//! First-order formulas with the connectives the thesis' Specware
//! scripts use: `~`, `&`, `or`, `=>`, `<=>`, `fa`, `ex`, and the
//! three-way `if C then A else B` conditional (sugar for
//! `(C => A) & (~C => B)`).

use crate::sort::Sort;
use crate::sym::Sym;
use crate::term::{Term, Var};
use std::collections::BTreeSet;
use std::fmt;

/// A first-order formula.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Formula, Term, Var, Sort};
/// let p = Var::new("p", Sort::new("Processors"));
/// let f = Formula::forall(
///     vec![p.clone()],
///     Formula::implies(
///         Formula::pred("Correct", vec![Term::var(p.clone())]),
///         Formula::pred("Decides", vec![Term::var(p)]),
///     ),
/// );
/// assert_eq!(f.to_string(), "fa(p:Processors) (Correct(p) => Decides(p))");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum Formula {
    /// The true constant.
    True,
    /// The false constant.
    False,
    /// Predicate application `P(t1, …, tn)`.
    Pred(Sym, Vec<Term>),
    /// Equality of terms (treated as an uninterpreted predicate by the
    /// clausal prover; the Ch. 5 proofs do not need equality reasoning).
    Eq(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification over one or more variables.
    Forall(Vec<Var>, Box<Formula>),
    /// Existential quantification over one or more variables.
    Exists(Vec<Var>, Box<Formula>),
    /// `if c then t else e` — the conditional used throughout Ch. 4/5.
    Ite(Box<Formula>, Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Predicate atom.
    pub fn pred(name: impl Into<Sym>, args: Vec<Term>) -> Formula {
        Formula::Pred(name.into(), args)
    }

    /// Nullary predicate (propositional letter).
    pub fn prop(name: impl Into<Sym>) -> Formula {
        Formula::Pred(name.into(), Vec::new())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Binary conjunction (flattens nested `And`s).
    pub fn and(a: Formula, b: Formula) -> Formula {
        let mut parts = Vec::new();
        for f in [a, b] {
            match f {
                Formula::And(mut inner) => parts.append(&mut inner),
                other => parts.push(other),
            }
        }
        Formula::And(parts)
    }

    /// Binary disjunction (flattens nested `Or`s).
    pub fn or(a: Formula, b: Formula) -> Formula {
        let mut parts = Vec::new();
        for f in [a, b] {
            match f {
                Formula::Or(mut inner) => parts.append(&mut inner),
                other => parts.push(other),
            }
        }
        Formula::Or(parts)
    }

    /// Implication.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Bi-implication.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    /// Universal closure over `vars`.
    pub fn forall(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, Box::new(body))
        }
    }

    /// Existential closure over `vars`.
    pub fn exists(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    /// The conditional `if c then t else e`.
    pub fn ite(c: Formula, t: Formula, e: Formula) -> Formula {
        Formula::Ite(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Free variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        let mut bound = BTreeSet::new();
        self.collect_free(&mut out, &mut seen, &mut bound);
        out
    }

    fn collect_free(
        &self,
        out: &mut Vec<Var>,
        seen: &mut BTreeSet<Sym>,
        bound: &mut BTreeSet<Sym>,
    ) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Pred(_, args) => {
                for t in args {
                    for v in t.vars() {
                        if !bound.contains(v.name()) && seen.insert(v.name().clone()) {
                            out.push(v);
                        }
                    }
                }
            }
            Formula::Eq(l, r) => {
                for t in [l, r] {
                    for v in t.vars() {
                        if !bound.contains(v.name()) && seen.insert(v.name().clone()) {
                            out.push(v);
                        }
                    }
                }
            }
            Formula::Not(f) => f.collect_free(out, seen, bound),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(out, seen, bound);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.collect_free(out, seen, bound);
                b.collect_free(out, seen, bound);
            }
            Formula::Ite(c, t, e) => {
                c.collect_free(out, seen, bound);
                t.collect_free(out, seen, bound);
                e.collect_free(out, seen, bound);
            }
            Formula::Forall(vs, f) | Formula::Exists(vs, f) => {
                let newly: Vec<Sym> = vs
                    .iter()
                    .map(|v| v.name().clone())
                    .filter(|n| bound.insert(n.clone()))
                    .collect();
                f.collect_free(out, seen, bound);
                for n in newly {
                    bound.remove(&n);
                }
            }
        }
    }

    /// Universal closure over all free variables.
    pub fn close_universally(self) -> Formula {
        let fv = self.free_vars();
        Formula::forall(fv, self)
    }

    /// Renames every predicate and function symbol via `op` and every
    /// binder's sort via `sort`, in one rebuild; used by spec translation
    /// and morphism application.
    pub fn rename(&self, op: &impl Fn(&Sym) -> Sym, sort: &impl Fn(&Sort) -> Sort) -> Formula {
        let go = |g: &Formula| g.rename(op, sort);
        let binders = |vs: &[Var]| vs.iter().map(|v| v.with_sort(sort(v.sort()))).collect();
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Pred(p, args) => {
                Formula::Pred(op(p), args.iter().map(|t| t.map_syms(op)).collect())
            }
            Formula::Eq(l, r) => Formula::Eq(l.map_syms(op), r.map_syms(op)),
            Formula::Not(g) => Formula::not(go(g)),
            Formula::And(fs) => Formula::And(fs.iter().map(go).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(go).collect()),
            Formula::Implies(a, b) => Formula::implies(go(a), go(b)),
            Formula::Iff(a, b) => Formula::iff(go(a), go(b)),
            Formula::Forall(vs, g) => Formula::Forall(binders(vs), Box::new(go(g))),
            Formula::Exists(vs, g) => Formula::Exists(binders(vs), Box::new(go(g))),
            Formula::Ite(c, t, e) => Formula::ite(go(c), go(t), go(e)),
        }
    }

    /// Structural size (number of connective + atom nodes).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Pred(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            Formula::Eq(l, r) => 1 + l.size() + r.size(),
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(a, b) | Formula::Iff(a, b) => 1 + a.size() + b.size(),
            Formula::Ite(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Formula::Forall(_, f) | Formula::Exists(_, f) => 1 + f.size(),
        }
    }
}

fn fmt_binder(f: &mut fmt::Formatter<'_>, kw: &str, vs: &[Var], body: &Formula) -> fmt::Result {
    write!(f, "{kw}(")?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, ") {body}")
}

impl Formula {
    /// Context-aware printing: a quantified formula appearing as an
    /// *operand* of a connective must be parenthesized, because the
    /// parser gives quantifiers maximal scope (`A & fa(x) B & C` parses
    /// as `A & (fa(x) (B & C))`).
    fn fmt_operand(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Forall(..) | Formula::Exists(..) => write!(f, "({self})"),
            _ => write!(f, "{self}"),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Pred(p, args) if args.is_empty() => write!(f, "{p}"),
            Formula::Pred(p, args) => {
                write!(f, "{p}(")?;
                for (i, t) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Formula::Eq(l, r) => write!(f, "{l} = {r}"),
            Formula::Not(g) => write!(f, "~({g})"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    g.fmt_operand(f)?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    g.fmt_operand(f)?;
                }
                write!(f, ")")
            }
            Formula::Implies(a, b) => {
                write!(f, "(")?;
                a.fmt_operand(f)?;
                write!(f, " => ")?;
                b.fmt_operand(f)?;
                write!(f, ")")
            }
            Formula::Iff(a, b) => {
                write!(f, "(")?;
                a.fmt_operand(f)?;
                write!(f, " <=> ")?;
                b.fmt_operand(f)?;
                write!(f, ")")
            }
            Formula::Ite(c, t, e) => {
                write!(f, "(if ")?;
                c.fmt_operand(f)?;
                write!(f, " then ")?;
                t.fmt_operand(f)?;
                write!(f, " else ")?;
                e.fmt_operand(f)?;
                write!(f, ")")
            }
            Formula::Forall(vs, g) => fmt_binder(f, "fa", vs, g),
            Formula::Exists(vs, g) => fmt_binder(f, "ex", vs, g),
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, vars: &[&str]) -> Formula {
        Formula::pred(p, vars.iter().map(|v| Term::var(Var::unsorted(*v))).collect())
    }

    #[test]
    fn and_or_flatten() {
        let f = Formula::and(Formula::and(atom("A", &[]), atom("B", &[])), atom("C", &[]));
        match f {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other}"),
        }
    }

    #[test]
    fn free_vars_respect_binders() {
        let x = Var::unsorted("x");
        let f =
            Formula::forall(vec![x.clone()], Formula::and(atom("P", &["x"]), atom("Q", &["y"])));
        let names: Vec<String> = f.free_vars().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(names, ["y"]);
    }

    #[test]
    fn shadowing_inner_binder_does_not_leak() {
        // fa(x) (P(x) & ex(x) Q(x)) has no free vars.
        let x = Var::unsorted("x");
        let f = Formula::forall(
            vec![x.clone()],
            Formula::and(atom("P", &["x"]), Formula::exists(vec![x], atom("Q", &["x"]))),
        );
        assert!(f.free_vars().is_empty());
    }

    #[test]
    fn close_universally_binds_everything() {
        let f = atom("P", &["a", "b"]).close_universally();
        assert!(f.free_vars().is_empty());
        assert_eq!(f.to_string(), "fa(a, b) P(a, b)");
    }

    #[test]
    fn display_round_trips_structure() {
        let f = Formula::ite(atom("C", &[]), atom("T", &[]), atom("E", &[]));
        assert_eq!(f.to_string(), "(if C then T else E)");
    }

    #[test]
    fn rename_maps_symbols_and_binder_sorts() {
        let f = Formula::forall(
            vec![Var::new("x", Sort::new("E"))],
            Formula::pred(
                "Deliver",
                vec![Term::app("clock", vec![]), Term::var(Var::unsorted("x"))],
            ),
        );
        let g = f.rename(&|s| Sym::new(format!("X_{s}")), &|s| Sort::new(format!("S_{s}")));
        assert_eq!(g.to_string(), "fa(x:S_E) X_Deliver(X_clock, x)");
    }
}
