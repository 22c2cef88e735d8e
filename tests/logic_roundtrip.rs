//! Property tests tying the printer and parser together: every
//! generated formula pretty-prints to text the parser reads back to the
//! same AST. Catches precedence and parenthesization bugs in either
//! direction.

use mcv::logic::{clausify, parse_formula, Formula, FreshVars, Sort, Term, Var};
use proptest::prelude::*;

/// Binder variables may carry sorts: `fa(a:E)` prints and reparses them.
fn binder_var_strategy() -> impl Strategy<Value = Var> {
    prop_oneof!["[a-d]".prop_map(Var::unsorted), "[a-d]".prop_map(|n| Var::new(n, Sort::new("E"))),]
}

/// Term-position variables must be unsorted: the printer renders only
/// the name there, so a sort annotation cannot survive a round trip.
fn term_var_strategy() -> impl Strategy<Value = Var> {
    "[a-d]".prop_map(Var::unsorted)
}

/// Nullary constants are excluded: `c()` prints as the bare name `c`,
/// which the parser (faithfully to the thesis' scripts, where bare
/// identifiers are variables) reads back as a variable. The asymmetry
/// is pinned by `constant_print_parse_asymmetry` below.
fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = term_var_strategy().prop_map(Term::var).boxed();
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 1..3).prop_map(|args| Term::app("f", args))
    })
}

#[test]
fn constant_print_parse_asymmetry() {
    // A nullary application prints as a bare name…
    let c = Term::constant("k0");
    assert_eq!(c.to_string(), "k0");
    // …which the parser reads as a variable (bare identifiers are
    // variables in the Chapter 5 surface syntax). Writing `k0()` keeps
    // it a constant.
    assert_eq!(mcv::logic::parse_term("k0").unwrap(), Term::var(Var::unsorted("k0")));
    assert_eq!(mcv::logic::parse_term("k0()").unwrap(), c);
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        prop::collection::vec(term_strategy(), 0..3).prop_map(|args| Formula::pred("P", args)),
        (term_strategy(), term_strategy()).prop_map(|(l, r)| Formula::Eq(l, r)),
        Just(Formula::True),
        Just(Formula::False),
    ];
    atom.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Formula::ite(c, t, e)),
            (prop::collection::vec(binder_var_strategy(), 1..3), inner.clone())
                .prop_map(|(vs, f)| Formula::forall(dedup_vars(vs), f)),
            (prop::collection::vec(binder_var_strategy(), 1..3), inner)
                .prop_map(|(vs, f)| Formula::exists(dedup_vars(vs), f)),
        ]
    })
}

fn dedup_vars(vs: Vec<Var>) -> Vec<Var> {
    let mut seen = std::collections::BTreeSet::new();
    vs.into_iter().filter(|v| seen.insert(v.name().clone())).collect()
}

/// Propositional letters of the ground formulas below.
const LETTERS: [&str; 4] = ["A", "B", "C", "D"];

/// Quantifier-free ground formulas over at most four letters, with every
/// connective clausification has to eliminate.
fn ground_formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (0..LETTERS.len()).prop_map(|i| Formula::prop(LETTERS[i])),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Formula::ite(c, t, e)),
        ]
    })
}

/// Truth of a ground formula when letter `i` is bit `i` of `world`.
fn holds(f: &Formula, world: u32) -> bool {
    let letter =
        |p: &str| world >> LETTERS.iter().position(|l| *l == p).expect("a letter") & 1 == 1;
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Pred(p, _) => letter(p.as_str()),
        Formula::Not(g) => !holds(g, world),
        Formula::And(fs) => fs.iter().all(|g| holds(g, world)),
        Formula::Or(fs) => fs.iter().any(|g| holds(g, world)),
        Formula::Implies(a, b) => !holds(a, world) || holds(b, world),
        Formula::Iff(a, b) => holds(a, world) == holds(b, world),
        Formula::Ite(c, t, e) => {
            if holds(c, world) {
                holds(t, world)
            } else {
                holds(e, world)
            }
        }
        other => panic!("not ground and quantifier-free: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_formulas_reparse_to_the_same_ast(f in formula_strategy()) {
        let text = f.to_string();
        let reparsed = parse_formula(&text)
            .unwrap_or_else(|e| panic!("printed text failed to parse: {text:?}: {e}"));
        prop_assert_eq!(reparsed, f);
    }

    #[test]
    fn clausification_is_stable_across_round_trip(f in formula_strategy()) {
        // Clausifying the original and the round-tripped formula with a
        // fresh generator each yields the same clause count and shapes.
        let text = f.to_string();
        let reparsed = parse_formula(&text).expect("round trip");
        let a = clausify(&f, &mut FreshVars::new());
        let b = clausify(&reparsed, &mut FreshVars::new());
        prop_assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(&b) {
            prop_assert_eq!(ca.literals.len(), cb.literals.len());
        }
    }

    #[test]
    fn clausification_agrees_with_the_truth_table(f in ground_formula_strategy()) {
        let clauses = clausify(&f, &mut FreshVars::new());
        for world in 0..1u32 << LETTERS.len() {
            let satisfied = clauses.iter().all(|c| {
                c.literals.iter().any(|l| {
                    let i = LETTERS.iter().position(|p| *p == l.pred.as_str()).expect("a letter");
                    (world >> i & 1 == 1) == l.positive
                })
            });
            prop_assert_eq!(satisfied, holds(&f, world), "{} in world {:04b}: {:?}", f, world, clauses);
        }
        prop_assert!(clauses.windows(2).all(|w| w[0] < w[1]), "not sorted or duplicated: {:?}", clauses);
        for c in &clauses {
            prop_assert!(!c.is_tautology(), "tautology {}", c);
            prop_assert!(c.literals.windows(2).all(|w| w[0] < w[1]), "unsorted clause {}", c);
        }
    }

    #[test]
    fn terms_round_trip(t in term_strategy()) {
        let text = t.to_string();
        let reparsed = mcv::logic::parse_term(&text)
            .unwrap_or_else(|e| panic!("printed term failed to parse: {text:?}: {e}"));
        prop_assert_eq!(reparsed, t);
    }
}
