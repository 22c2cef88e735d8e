//! Substitutions over terms and variable renaming.

use crate::sym::Sym;
use crate::term::{Term, Var};
use std::collections::BTreeMap;
use std::fmt;

/// A substitution: a finite map from variable names to terms.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Subst, Term, Var, Sort};
/// let mut s = Subst::new();
/// s.bind(Var::unsorted("x"), Term::constant("a"));
/// let t = Term::app("f", vec![Term::var(Var::unsorted("x"))]);
/// assert_eq!(s.apply(&t).to_string(), "f(a)");
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Sym, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Binds `v` to `t`. Later bindings overwrite earlier ones for the
    /// same variable.
    pub fn bind(&mut self, v: Var, t: Term) {
        self.map.insert(v.name().clone(), t);
    }

    /// The binding for a variable name, if any.
    pub fn get(&self, name: &Sym) -> Option<&Term> {
        self.map.get(name)
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Applies the substitution to a term, following bindings to a fixed
    /// point (bindings may map variables to terms containing other bound
    /// variables, as produced by unification).
    pub fn apply(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => match self.map.get(v.name()) {
                // Bound term may itself contain bound variables.
                Some(bound) => self.apply(bound),
                None => t.clone(),
            },
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| self.apply(a)).collect())
            }
        }
    }

    /// Iterates over `(name, term)` bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, &Term)> {
        self.map.iter()
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} -> {v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Generates fresh variable names for standardizing clauses apart.
#[derive(Debug, Default)]
pub struct FreshVars {
    counter: u64,
}

impl FreshVars {
    /// A new generator starting at zero.
    pub fn new() -> Self {
        FreshVars::default()
    }

    /// A fresh variable preserving the sort of `v`. Its name is not
    /// interned: it lives as long as the clauses that mention it.
    pub fn fresh(&mut self, v: &Var) -> Var {
        self.counter += 1;
        Var::new(Sym::uninterned(format!("{}_{}", v.name(), self.counter)), v.sort().clone())
    }

    /// A fresh symbol with the given prefix (used for Skolem functions).
    pub fn fresh_sym(&mut self, prefix: &str) -> Sym {
        self.counter += 1;
        Sym::new(format!("{prefix}_{}", self.counter))
    }

    /// Consumes `n` names without minting them: every later name is the
    /// one it would have been had `n` variables been renamed here.
    pub(crate) fn skip(&mut self, n: usize) {
        self.counter += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_follows_chained_bindings() {
        let mut s = Subst::new();
        s.bind(Var::unsorted("x"), Term::var(Var::unsorted("y")));
        s.bind(Var::unsorted("y"), Term::constant("c"));
        let t = Term::var(Var::unsorted("x"));
        assert_eq!(s.apply(&t).to_string(), "c");
    }

    #[test]
    fn apply_leaves_unbound_vars() {
        let s = Subst::new();
        let t = Term::app("f", vec![Term::var(Var::unsorted("z"))]);
        assert_eq!(s.apply(&t), t);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut g = FreshVars::new();
        let v = Var::unsorted("x");
        let a = g.fresh(&v);
        let b = g.fresh(&v);
        assert_ne!(a.name(), b.name());
    }

    #[test]
    fn skip_leaves_later_names_as_if_minted() {
        let v = Var::unsorted("x");
        let mut minted = FreshVars::new();
        minted.fresh(&v);
        minted.fresh(&v);
        let mut skipped = FreshVars::new();
        skipped.skip(2);
        assert_eq!(minted.fresh(&v), skipped.fresh(&v));
    }
}
