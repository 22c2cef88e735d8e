//! Clausification: formula → conjunctive normal form.
//!
//! Pipeline (standard, see e.g. Chang & Lee): universal closure →
//! connective elimination (`<=>`, `=>`, `if/then/else`) → negation
//! normal form → standardize binders apart → Skolemize existentials →
//! drop universals → clause set, built bottom-up over `&` / `or`.

use crate::clause::{Clause, Literal};
use crate::formula::Formula;
use crate::subst::{FreshVars, Subst};
use crate::term::{Term, Var};

/// Converts a formula to an equisatisfiable set of clauses.
///
/// `fresh` supplies Skolem symbols and renamed variables; pass the same
/// generator for all formulas of one proof problem so names never clash.
///
/// # Examples
///
/// ```
/// use mcv_logic::{clausify, parse_formula, FreshVars};
/// let f = parse_formula("fa(x) (P(x) => Q(x))").unwrap();
/// let mut gen = FreshVars::new();
/// let clauses = clausify(&f, &mut gen);
/// assert_eq!(clauses.len(), 1);
/// assert_eq!(clauses[0].literals.len(), 2); // ~P(x) | Q(x)
/// ```
pub fn clausify(f: &Formula, fresh: &mut FreshVars) -> Vec<Clause> {
    let closed = f.clone().close_universally();
    let no_sugar = eliminate(&closed);
    let nnf = to_nnf(&no_sugar, true);
    let apart = standardize(&nnf, &mut Subst::new(), fresh);
    let sk = skolemize(&apart, &mut Vec::new(), fresh);
    let matrix = drop_universals(&sk);
    // Every literal of the matrix once, sorted: a literal's id is its
    // rank, so sorting ids sorts literals and `cnf` never clones one.
    // `complement[id]` is the id of the literal's negation, if present.
    let mut table = Vec::new();
    collect_literals(&matrix, &mut table);
    table.sort();
    table.dedup();
    let complement: Vec<Option<usize>> =
        table.iter().map(|l| table.binary_search(&l.negated()).ok()).collect();
    cnf(&matrix, &table, &complement)
        .into_iter()
        .map(|c| Clause { literals: c.into_iter().map(|i| table[i].clone()).collect() })
        .collect()
}

/// Removes `<=>`, `=>` and `if/then/else`.
fn eliminate(f: &Formula) -> Formula {
    match f {
        Formula::Implies(a, b) => Formula::or(Formula::not(eliminate(a)), eliminate(b)),
        Formula::Iff(a, b) => {
            let (a, b) = (eliminate(a), eliminate(b));
            Formula::and(
                Formula::or(Formula::not(a.clone()), b.clone()),
                Formula::or(Formula::not(b), a),
            )
        }
        Formula::Ite(c, t, e) => {
            let (c, t, e) = (eliminate(c), eliminate(t), eliminate(e));
            Formula::and(Formula::or(Formula::not(c.clone()), t), Formula::or(c, e))
        }
        Formula::Not(g) => Formula::not(eliminate(g)),
        Formula::And(fs) => Formula::And(fs.iter().map(eliminate).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(eliminate).collect()),
        Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(eliminate(g))),
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(eliminate(g))),
        other => other.clone(),
    }
}

/// Pushes negations to atoms. `positive` is the current polarity.
fn to_nnf(f: &Formula, positive: bool) -> Formula {
    match f {
        Formula::True => {
            if positive {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::False => {
            if positive {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::Pred(..) | Formula::Eq(..) => {
            if positive {
                f.clone()
            } else {
                Formula::not(f.clone())
            }
        }
        Formula::Not(g) => to_nnf(g, !positive),
        Formula::And(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| to_nnf(g, positive)).collect();
            if positive {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| to_nnf(g, positive)).collect();
            if positive {
                Formula::Or(parts)
            } else {
                Formula::And(parts)
            }
        }
        Formula::Forall(vs, g) => {
            let body = Box::new(to_nnf(g, positive));
            if positive {
                Formula::Forall(vs.clone(), body)
            } else {
                Formula::Exists(vs.clone(), body)
            }
        }
        Formula::Exists(vs, g) => {
            let body = Box::new(to_nnf(g, positive));
            if positive {
                Formula::Exists(vs.clone(), body)
            } else {
                Formula::Forall(vs.clone(), body)
            }
        }
        Formula::Implies(..) | Formula::Iff(..) | Formula::Ite(..) => {
            unreachable!("eliminate() must run before to_nnf")
        }
    }
}

/// Renames bound variables so every binder introduces a unique name.
fn standardize(f: &Formula, renaming: &mut Subst, fresh: &mut FreshVars) -> Formula {
    match f {
        Formula::Pred(p, args) => {
            Formula::Pred(p.clone(), args.iter().map(|t| renaming.apply(t)).collect())
        }
        Formula::Eq(l, r) => Formula::Eq(renaming.apply(l), renaming.apply(r)),
        Formula::Not(g) => Formula::not(standardize(g, renaming, fresh)),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|g| standardize(g, renaming, fresh)).collect())
        }
        Formula::Or(fs) => {
            Formula::Or(fs.iter().map(|g| standardize(g, renaming, fresh)).collect())
        }
        Formula::Forall(vs, g) | Formula::Exists(vs, g) => {
            let mut inner = renaming.clone();
            let mut new_vs = Vec::with_capacity(vs.len());
            for v in vs {
                let nv = fresh.fresh(v);
                inner.bind(v.clone(), Term::var(nv.clone()));
                new_vs.push(nv);
            }
            let body = Box::new(standardize(g, &mut inner, fresh));
            if matches!(f, Formula::Forall(..)) {
                Formula::Forall(new_vs, body)
            } else {
                Formula::Exists(new_vs, body)
            }
        }
        other => other.clone(),
    }
}

/// Replaces existential variables with Skolem functions of the enclosing
/// universal variables.
fn skolemize(f: &Formula, universals: &mut Vec<Var>, fresh: &mut FreshVars) -> Formula {
    match f {
        Formula::Exists(vs, g) => {
            let mut s = Subst::new();
            for v in vs {
                let sk = fresh.fresh_sym(&format!("sk_{}", v.name()));
                let args: Vec<Term> = universals.iter().cloned().map(Term::var).collect();
                s.bind(v.clone(), Term::App(sk, args));
            }
            let body = apply_formula(g, &s);
            skolemize(&body, universals, fresh)
        }
        Formula::Forall(vs, g) => {
            universals.extend(vs.iter().cloned());
            let body = skolemize(g, universals, fresh);
            universals.truncate(universals.len() - vs.len());
            Formula::Forall(vs.clone(), Box::new(body))
        }
        Formula::Not(g) => Formula::not(skolemize(g, universals, fresh)),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|g| skolemize(g, universals, fresh)).collect())
        }
        Formula::Or(fs) => {
            Formula::Or(fs.iter().map(|g| skolemize(g, universals, fresh)).collect())
        }
        other => other.clone(),
    }
}

/// Applies a substitution to the terms of a quantifier-free-or-not formula.
fn apply_formula(f: &Formula, s: &Subst) -> Formula {
    match f {
        Formula::Pred(p, args) => {
            Formula::Pred(p.clone(), args.iter().map(|t| s.apply(t)).collect())
        }
        Formula::Eq(l, r) => Formula::Eq(s.apply(l), s.apply(r)),
        Formula::Not(g) => Formula::not(apply_formula(g, s)),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| apply_formula(g, s)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| apply_formula(g, s)).collect()),
        Formula::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(apply_formula(g, s))),
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(apply_formula(g, s))),
        other => other.clone(),
    }
}

fn drop_universals(f: &Formula) -> Formula {
    match f {
        Formula::Forall(_, g) => drop_universals(g),
        Formula::Not(g) => Formula::not(drop_universals(g)),
        Formula::And(fs) => Formula::And(fs.iter().map(drop_universals).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(drop_universals).collect()),
        other => other.clone(),
    }
}

fn collect_literals(f: &Formula, out: &mut Vec<Literal>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_literals(g, out)),
        _ => out.push(formula_to_literal(f)),
    }
}

/// The clause set of an NNF matrix, built bottom-up: a conjunction is
/// the union of its conjuncts' clauses, a disjunction every union of one
/// clause per disjunct. Each clause is kept sorted and duplicate-free,
/// and one holding a complementary pair is dropped the moment it forms —
/// adding literals never un-makes a tautology. The result, sorted and
/// deduplicated, is the set that distributing `or` over `&` top-down and
/// then dropping tautologies yields.
fn cnf(f: &Formula, table: &[Literal], complement: &[Option<usize>]) -> Vec<Vec<usize>> {
    let mut clauses = match f {
        Formula::True => Vec::new(),
        Formula::False => vec![Vec::new()],
        Formula::And(fs) => fs.iter().flat_map(|g| cnf(g, table, complement)).collect(),
        Formula::Or(fs) => {
            let mut acc = vec![Vec::new()];
            for g in fs {
                if acc.is_empty() {
                    break;
                }
                let part = cnf(g, table, complement);
                acc = acc
                    .iter()
                    .flat_map(|c| part.iter().filter_map(|d| join(c, d, complement)))
                    .collect();
            }
            acc
        }
        _ => {
            let lit = formula_to_literal(f);
            vec![vec![table.binary_search(&lit).expect("collected from this matrix")]]
        }
    };
    clauses.sort_unstable();
    clauses.dedup();
    clauses
}

/// The sorted union of two sorted, duplicate-free, tautology-free
/// clauses, or `None` if it holds a complementary pair.
fn join(c: &[usize], d: &[usize], complement: &[Option<usize>]) -> Option<Vec<usize>> {
    if d.iter().any(|&l| complement[l].is_some_and(|n| c.binary_search(&n).is_ok())) {
        return None;
    }
    let mut out = [c, d].concat();
    out.sort_unstable();
    out.dedup();
    Some(out)
}

fn formula_to_literal(f: &Formula) -> Literal {
    match f {
        Formula::Pred(p, args) => Literal::new(true, p.clone(), args.clone()),
        Formula::Eq(l, r) => Literal::new(true, "=", vec![l.clone(), r.clone()]),
        Formula::Not(g) => formula_to_literal(g).negated(),
        other => panic!("not a literal after NNF: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn clauses(src: &str) -> Vec<Clause> {
        let f = parse_formula(src).expect("parse");
        clausify(&f, &mut FreshVars::new())
    }

    #[test]
    fn implication_becomes_one_clause() {
        let cs = clauses("fa(x) (P(x) => Q(x))");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].literals.len(), 2);
    }

    #[test]
    fn conjunction_splits_into_clauses() {
        let cs = clauses("P & Q");
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn iff_becomes_two_clauses() {
        let cs = clauses("(P <=> Q)");
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn ite_becomes_two_clauses() {
        let cs = clauses("if C then T else E");
        assert_eq!(cs.len(), 2);
        // (~C | T) and (C | E)
        let rendered: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
        assert!(rendered.iter().any(|s| s.contains("~C") && s.contains('T')), "{rendered:?}");
        assert!(rendered.iter().any(|s| s.contains('C') && s.contains('E')), "{rendered:?}");
    }

    #[test]
    fn existential_is_skolemized_to_function_of_universals() {
        let cs = clauses("fa(x) ex(y) R(x, y)");
        assert_eq!(cs.len(), 1);
        let lit = &cs[0].literals[0];
        // Second argument must be sk(x'), a function of the universal var.
        match &lit.args[1] {
            Term::App(f, args) => {
                assert!(f.as_str().starts_with("sk_"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected skolem term, got {other}"),
        }
    }

    #[test]
    fn top_level_existential_becomes_constant() {
        let cs = clauses("ex(y) P(y)");
        match &cs[0].literals[0].args[0] {
            Term::App(f, args) => {
                assert!(f.as_str().starts_with("sk_"));
                assert!(args.is_empty());
            }
            other => panic!("expected skolem constant, got {other}"),
        }
    }

    #[test]
    fn distribution_is_correct_for_or_of_ands() {
        // (A & B) or (C & D) => 4 clauses.
        let cs = clauses("(A & B) or (C & D)");
        assert_eq!(cs.len(), 4);
    }

    #[test]
    fn tautologies_are_dropped() {
        let cs = clauses("P or ~(P)");
        assert!(cs.is_empty());
    }

    #[test]
    fn negated_quantifier_flips() {
        // ~(fa(x) P(x)) == ex(x) ~P(x): one unit clause with skolem constant.
        let cs = clauses("~(fa(x) P(x))");
        assert_eq!(cs.len(), 1);
        assert!(!cs[0].literals[0].positive);
    }
}
