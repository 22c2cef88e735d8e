//! Clausal form: literals and clauses for the resolution prover.

use crate::subst::{FreshVars, Subst};
use crate::sym::Sym;
use crate::term::{Term, Var};
use crate::unify::match_terms;
use std::fmt;
use std::sync::Arc;

/// A literal: a possibly negated predicate atom.
///
/// Equality atoms are encoded with the reserved predicate symbol `=`.
/// The argument list is shared: cloning a literal (clausification
/// copies each out of one table into every clause that holds it) bumps
/// two reference counts and copies no term.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
    /// Predicate symbol.
    pub pred: Sym,
    /// Argument terms.
    pub args: Arc<[Term]>,
}

impl Literal {
    /// A new literal.
    pub fn new(positive: bool, pred: impl Into<Sym>, args: impl Into<Arc<[Term]>>) -> Self {
        Literal { positive, pred: pred.into(), args: args.into() }
    }

    /// The complementary literal.
    pub fn negated(&self) -> Literal {
        Literal { positive: !self.positive, ..self.clone() }
    }

    /// Applies a substitution to all argument terms.
    pub fn apply(&self, s: &Subst) -> Literal {
        Literal {
            positive: self.positive,
            pred: self.pred.clone(),
            args: self.args.iter().map(|t| s.apply(t)).collect(),
        }
    }

    /// Symbol-count weight.
    pub fn weight(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "~")?;
        }
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A disjunction of literals. The empty clause is the contradiction ⊥.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    /// The disjuncts. Kept sorted and de-duplicated.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// Builds a clause, sorting and de-duplicating literals.
    pub fn new(mut literals: Vec<Literal>) -> Self {
        literals.sort();
        literals.dedup();
        Clause { literals }
    }

    /// The empty clause ⊥.
    pub fn empty() -> Self {
        Clause { literals: Vec::new() }
    }

    /// Whether this is the empty clause (a refutation).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the clause contains complementary literals `P` and `~P`
    /// on syntactically identical atoms (and is thus a tautology).
    pub fn is_tautology(&self) -> bool {
        self.literals.iter().any(|l| {
            l.positive
                && self.literals.iter().any(|m| !m.positive && m.pred == l.pred && m.args == l.args)
        })
    }

    /// Total symbol-count weight (the given-clause selection heuristic).
    pub fn weight(&self) -> usize {
        self.literals.iter().map(Literal::weight).sum()
    }

    /// Applies a substitution to every literal and renormalizes.
    pub fn apply(&self, s: &Subst) -> Clause {
        Clause::new(self.literals.iter().map(|l| l.apply(s)).collect())
    }

    /// Renames all variables apart using `gen`, so two clauses never share
    /// variables during resolution. Names are minted in first-occurrence
    /// order.
    pub fn rename_apart(&self, gen: &mut FreshVars) -> Clause {
        let renaming: Vec<(&Sym, Term)> =
            self.vars().into_iter().map(|v| (v.name(), Term::var(gen.fresh(v)))).collect();
        fn rename(t: &Term, renaming: &[(&Sym, Term)]) -> Term {
            match t {
                Term::Var(v) => renaming
                    .iter()
                    .find(|(name, _)| *name == v.name())
                    .map_or_else(|| t.clone(), |(_, fresh)| fresh.clone()),
                Term::App(f, args) => {
                    Term::App(f.clone(), args.iter().map(|a| rename(a, renaming)).collect())
                }
            }
        }
        Clause::new(
            self.literals
                .iter()
                .map(|l| Literal {
                    positive: l.positive,
                    pred: l.pred.clone(),
                    args: l.args.iter().map(|t| rename(t, &renaming)).collect(),
                })
                .collect(),
        )
    }

    /// The number of distinct variables: how many fresh names
    /// [`Clause::rename_apart`] mints.
    pub(crate) fn var_count(&self) -> usize {
        self.vars().len()
    }

    /// The distinct variables (by name), in first-occurrence order.
    fn vars(&self) -> Vec<&Var> {
        fn walk<'a>(t: &'a Term, seen: &mut Vec<&'a Var>) {
            match t {
                Term::Var(v) if !seen.iter().any(|s| s.name() == v.name()) => seen.push(v),
                Term::Var(_) => {}
                Term::App(_, args) => args.iter().for_each(|a| walk(a, seen)),
            }
        }
        let mut seen = Vec::new();
        self.literals.iter().flat_map(|l| l.args.iter()).for_each(|t| walk(t, &mut seen));
        seen
    }

    /// θ-subsumption: does `self` subsume `other`? I.e. is there a
    /// substitution θ with `self`θ ⊆ `other`? Implemented by backtracking
    /// over literal matches, undoing a failed match's bindings by
    /// truncation; sound and complete for the small clauses the spec
    /// proofs produce.
    pub fn subsumes(&self, other: &Clause) -> bool {
        if self.literals.len() > other.literals.len() {
            return false;
        }
        fn go<'a>(
            pat: &'a [Literal],
            target: &'a [Literal],
            binds: &mut Vec<(&'a Sym, &'a Term)>,
        ) -> bool {
            let Some((first, rest)) = pat.split_first() else {
                return true;
            };
            for cand in target {
                if cand.positive != first.positive
                    || cand.pred != first.pred
                    || cand.args.len() != first.args.len()
                {
                    continue;
                }
                let mark = binds.len();
                if first.args.iter().zip(cand.args.iter()).all(|(p, t)| match_terms(p, t, binds))
                    && go(rest, target, binds)
                {
                    return true;
                }
                binds.truncate(mark);
            }
            false
        }
        go(&self.literals, &other.literals, &mut Vec::new())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "⊥");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    fn lit(pos: bool, p: &str, vars: &[&str]) -> Literal {
        Literal::new(pos, p, vars.iter().map(|v| Term::var(Var::unsorted(*v))).collect::<Vec<_>>())
    }

    #[test]
    fn tautology_detection() {
        let c = Clause::new(vec![lit(true, "P", &["x"]), lit(false, "P", &["x"])]);
        assert!(c.is_tautology());
        let d = Clause::new(vec![lit(true, "P", &["x"]), lit(false, "P", &["y"])]);
        assert!(!d.is_tautology());
    }

    #[test]
    fn duplicate_literals_collapse() {
        let c = Clause::new(vec![lit(true, "P", &["x"]), lit(true, "P", &["x"])]);
        assert_eq!(c.literals.len(), 1);
    }

    #[test]
    fn subsumption_by_more_general_clause() {
        // P(x) subsumes P(a) | Q(b).
        let gen = Clause::new(vec![lit(true, "P", &["x"])]);
        let spec = Clause::new(vec![
            Literal::new(true, "P", vec![Term::constant("a")]),
            Literal::new(true, "Q", vec![Term::constant("b")]),
        ]);
        assert!(gen.subsumes(&spec));
        assert!(!spec.subsumes(&gen));
    }

    #[test]
    fn subsumption_requires_consistent_bindings() {
        // P(x, x) does not subsume P(a, b).
        let pat = Clause::new(vec![lit(true, "P", &["x", "x"])]);
        let tgt = Clause::new(vec![Literal::new(
            true,
            "P",
            vec![Term::constant("a"), Term::constant("b")],
        )]);
        assert!(!pat.subsumes(&tgt));
    }

    #[test]
    fn rename_apart_leaves_no_shared_names() {
        let mut g = FreshVars::new();
        let c = Clause::new(vec![lit(true, "P", &["x", "y"])]);
        let r = c.rename_apart(&mut g);
        assert_eq!(c.var_count(), 2);
        for l in &r.literals {
            for t in l.args.iter() {
                for v in t.vars() {
                    assert_ne!(v.name().as_str(), "x");
                    assert_ne!(v.name().as_str(), "y");
                }
            }
        }
    }
}
