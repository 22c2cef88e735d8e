//! An independent check of a refutation: every inference the proof rests
//! on is replayed from its parents' recorded clauses. No search, and
//! none of the prover's own inference code — only [`unify`], whose every
//! answer is itself checked by applying it.

use crate::clause::{Clause, Literal};
use crate::prover::{Proof, Rule};
use crate::subst::Subst;
use crate::sym::Sym;
use crate::term::{Term, Var};
use crate::unify::unify;
use std::fmt;

/// Why [`Proof::check`] rejected a proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Index (into [`Proof::steps`]) of the offending step.
    pub step: usize,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}", self.step, self.reason)
    }
}

impl std::error::Error for CheckError {}

impl Proof {
    /// Checks the refutation without trusting the prover: the last used
    /// step must be ⊥, and the clause of every step it derives from by
    /// `Resolve(a, b)` or `Factor(a)` must equal, up to a bijective
    /// renaming of variables, one of the binary resolvents of `a` and `b`
    /// (or binary factors of `a`) recomputed from their recorded clauses,
    /// each parent preceding its child. Axiom and negated-conjecture
    /// clauses are the inputs and are taken as given.
    ///
    /// # Errors
    ///
    /// The lowest-numbered step that fails, with the reason.
    pub fn check(&self) -> Result<(), CheckError> {
        let last = match self.used.last() {
            Some(&i) if i < self.steps.len() => i,
            _ => return Err(CheckError { step: 0, reason: "no step is used" }),
        };
        if !self.steps[last].clause.is_empty() {
            return Err(CheckError { step: last, reason: "the last step is not ⊥" });
        }
        // Everything ⊥ derives from, whatever `used` claims.
        let mut derives_bottom = vec![false; self.steps.len()];
        let mut stack = vec![last];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut derives_bottom[i], true) {
                continue;
            }
            let parents = parents(&self.steps[i].rule);
            if parents.iter().any(|&p| p >= i) {
                return Err(CheckError { step: i, reason: "a parent does not precede its child" });
            }
            stack.extend(parents);
        }
        for (i, step) in self.steps.iter().enumerate().filter(|&(i, _)| derives_bottom[i]) {
            let candidates = match parents(&step.rule)[..] {
                [a, b] => resolvents(&self.steps[a].clause, &self.steps[b].clause),
                [a] => factors(&self.steps[a].clause),
                _ => continue,
            };
            if !candidates.iter().any(|c| is_variant(c, &step.clause)) {
                return Err(CheckError { step: i, reason: "not an inference from its parents" });
            }
        }
        Ok(())
    }
}

fn parents(rule: &Rule) -> Vec<usize> {
    match *rule {
        Rule::Axiom(_) | Rule::NegatedConjecture => Vec::new(),
        Rule::Resolve(a, b) => vec![a, b],
        Rule::Factor(a) => vec![a],
    }
}

/// `c`'s literals with every variable `x` renamed `<side>x`: `$` never
/// starts a parsed or minted name, so the two sides share none.
fn tagged(c: &Clause, side: &str) -> Vec<Literal> {
    fn tag(t: &Term, side: &str) -> Term {
        match t {
            Term::Var(v) => Term::Var(Var::new(
                Sym::uninterned(format!("{side}{}", v.name())),
                v.sort().clone(),
            )),
            Term::App(f, args) => Term::App(f.clone(), args.iter().map(|a| tag(a, side)).collect()),
        }
    }
    c.literals
        .iter()
        .map(|l| Literal {
            positive: l.positive,
            pred: l.pred.clone(),
            args: l.args.iter().map(|t| tag(t, side)).collect(),
        })
        .collect()
}

/// A unifier of the two argument lists, verified by applying it.
fn unifier(xs: &[Term], ys: &[Term]) -> Option<Subst> {
    let mut s = Subst::new();
    let found = xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| unify(x, y, &mut s));
    (found && xs.iter().zip(ys).all(|(x, y)| s.apply(x) == s.apply(y))).then_some(s)
}

/// Every binary resolvent of `a` and `b`.
fn resolvents(a: &Clause, b: &Clause) -> Vec<Clause> {
    let (a, b) = (tagged(a, "$a."), tagged(b, "$b."));
    let mut out = Vec::new();
    for (i, la) in a.iter().enumerate() {
        for (j, lb) in b.iter().enumerate() {
            if la.positive == lb.positive || la.pred != lb.pred {
                continue;
            }
            let Some(s) = unifier(&la.args, &lb.args) else { continue };
            let rest = a.iter().enumerate().filter(|&(k, _)| k != i).map(|(_, l)| l.apply(&s));
            let rest =
                rest.chain(b.iter().enumerate().filter(|&(k, _)| k != j).map(|(_, l)| l.apply(&s)));
            out.push(Clause::new(rest.collect()));
        }
    }
    out
}

/// Every binary factor of `c`.
fn factors(c: &Clause) -> Vec<Clause> {
    let c = tagged(c, "$a.");
    let mut out = Vec::new();
    for (i, li) in c.iter().enumerate() {
        for (j, lj) in c.iter().enumerate().skip(i + 1) {
            if li.positive != lj.positive || li.pred != lj.pred {
                continue;
            }
            let Some(s) = unifier(&li.args, &lj.args) else { continue };
            out.push(Clause::new(
                c.iter().enumerate().filter(|&(k, _)| k != j).map(|(_, l)| l.apply(&s)).collect(),
            ));
        }
    }
    out
}

/// Whether `x` and `y` are the same clause up to a bijective, sort-preserving
/// renaming of variables (literal order aside: names decide it).
fn is_variant(x: &Clause, y: &Clause) -> bool {
    type Renaming<'a> = Vec<(&'a Var, &'a Var)>;
    fn term<'a>(s: &'a Term, t: &'a Term, map: &mut Renaming<'a>) -> bool {
        match (s, t) {
            (Term::Var(v), Term::Var(w)) => {
                match map.iter().find(|(a, b)| a.name() == v.name() || b.name() == w.name()) {
                    Some((a, b)) => a.name() == v.name() && b.name() == w.name(),
                    None if v.sort() == w.sort() => {
                        map.push((v, w));
                        true
                    }
                    None => false,
                }
            }
            (Term::App(f, xs), Term::App(g, ys)) => {
                f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(a, b)| term(a, b, map))
            }
            _ => false,
        }
    }
    fn go<'a>(
        xs: &'a [Literal],
        ys: &'a [Literal],
        taken: &mut [bool],
        map: &mut Renaming<'a>,
    ) -> bool {
        let Some((first, rest)) = xs.split_first() else {
            return true;
        };
        for (j, cand) in ys.iter().enumerate() {
            if taken[j]
                || cand.positive != first.positive
                || cand.pred != first.pred
                || cand.args.len() != first.args.len()
            {
                continue;
            }
            let mark = map.len();
            if first.args.iter().zip(cand.args.iter()).all(|(s, t)| term(s, t, map)) {
                taken[j] = true;
                if go(rest, ys, taken, map) {
                    return true;
                }
                taken[j] = false;
            }
            map.truncate(mark);
        }
        false
    }
    x.literals.len() == y.literals.len()
        && go(&x.literals, &y.literals, &mut vec![false; y.literals.len()], &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::formula;
    use crate::prover::{NamedFormula, Prover};

    /// A refutation that needs both inference rules: binary resolution
    /// alone turns `P(x) | P(y)` and `~Q(u) | ~Q(v)` only into more
    /// two-literal clauses.
    fn proof() -> Proof {
        let axioms = vec![
            NamedFormula::new("a1", formula("fa(x) (P(x) => Q(x))")),
            NamedFormula::new("a2", formula("fa(x, y) P(x) or P(y)")),
        ];
        let res = Prover::new().prove(&axioms, &formula("ex(u, v) Q(u) & Q(v)"));
        res.proof().expect("proved").clone()
    }

    /// The used steps with a clause derived by an inference.
    fn derived(p: &Proof) -> Vec<usize> {
        p.used
            .iter()
            .copied()
            .filter(|&i| matches!(p.steps[i].rule, Rule::Resolve(..) | Rule::Factor(_)))
            .collect()
    }

    #[test]
    fn a_prover_proof_checks() {
        let p = proof();
        assert!(derived(&p).iter().any(|&i| matches!(p.steps[i].rule, Rule::Factor(_))));
        assert_eq!(p.check(), Ok(()));
    }

    #[test]
    fn a_dropped_or_flipped_literal_is_rejected() {
        let p = proof();
        let nonempty: Vec<usize> =
            derived(&p).into_iter().filter(|&i| !p.steps[i].clause.is_empty()).collect();
        assert!(!nonempty.is_empty());
        for i in nonempty {
            let mut dropped = p.clone();
            dropped.steps[i].clause.literals.pop();
            assert_eq!(dropped.check().map_err(|e| e.step), Err(i), "dropped a literal of {i}");
            let mut flipped = p.clone();
            let lit = &mut flipped.steps[i].clause.literals[0];
            lit.positive = !lit.positive;
            assert_eq!(flipped.check().map_err(|e| e.step), Err(i), "flipped a literal of {i}");
        }
    }

    #[test]
    fn a_proof_must_end_in_bottom_and_derive_from_earlier_steps() {
        let p = proof();
        let last = *p.used.last().expect("nonempty");
        let mut not_bottom = p.clone();
        not_bottom.steps[last].clause = not_bottom.steps[0].clause.clone();
        assert_eq!(not_bottom.check().map_err(|e| e.reason), Err("the last step is not ⊥"));
        let mut forward = p.clone();
        forward.steps[last].rule = Rule::Factor(last);
        assert_eq!(
            forward.check().map_err(|e| e.reason),
            Err("a parent does not precede its child")
        );
    }

    #[test]
    fn variants_need_a_bijection() {
        let c = |src: &str| crate::cnf::clausify(&formula(src), &mut crate::FreshVars::new());
        // P(x, y) and P(y, x) are variants; P(x, x) and P(x, y) are not.
        assert!(is_variant(&c("fa(x, y) P(x, y)")[0], &c("fa(x, y) P(y, x)")[0]));
        assert!(!is_variant(&c("fa(x) P(x, x)")[0], &c("fa(x, y) P(x, y)")[0]));
        assert!(!is_variant(&c("fa(x, y) P(x, y)")[0], &c("fa(x) P(x, x)")[0]));
    }
}
