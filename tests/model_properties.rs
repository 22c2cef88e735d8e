//! Finite models against their two readers: every model the finder
//! returns passes `Model::check`, which evaluates the formulas and not
//! their clauses, and the prover never refutes a set that has one.

use mcv::logic::{find_model, Formula, ModelConfig, NamedFormula, Prover, ProverConfig, Term, Var};
use proptest::prelude::*;
use std::time::Duration;

const VARS: [&str; 2] = ["x", "y"];

/// Terms over two variables, two constants and one unary function.
fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0..VARS.len()).prop_map(|i| Term::var(Var::unsorted(VARS[i]))),
        (0..2usize).prop_map(|i| Term::constant(["a", "b"][i])),
    ];
    leaf.prop_recursive(2, 4, 1, |inner| inner.prop_map(|t| Term::app("f", vec![t])))
}

/// Formulas with every connective and quantifier, equality included.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        term_strategy().prop_map(|t| Formula::pred("P", vec![t])),
        term_strategy().prop_map(|t| Formula::pred("Q", vec![t])),
        (term_strategy(), term_strategy()).prop_map(|(s, t)| Formula::pred("R", vec![s, t])),
        (term_strategy(), term_strategy()).prop_map(|(s, t)| Formula::Eq(s, t)),
    ];
    atom.prop_recursive(3, 12, 3, |inner| {
        let binder = |i: usize| vec![Var::unsorted(VARS[i])];
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Formula::ite(c, t, e)),
            (0..VARS.len(), inner.clone()).prop_map(move |(i, f)| Formula::forall(binder(i), f)),
            (0..VARS.len(), inner).prop_map(move |(i, f)| Formula::exists(binder(i), f)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn found_models_pass_the_check_and_admit_no_refutation(
        fs in prop::collection::vec(formula_strategy(), 1..4)
    ) {
        let set: Vec<NamedFormula> =
            fs.into_iter().enumerate().map(|(i, f)| NamedFormula::new(format!("f{i}"), f)).collect();
        if let Some(model) = find_model(&set, &ModelConfig::default()) {
            prop_assert_eq!(model.check(&set), Ok(()), "{}", model);
            let prover = Prover::with_config(ProverConfig {
                max_clauses: 1_000,
                timeout: Duration::from_secs(2),
                ..ProverConfig::default()
            });
            let refutation = prover.prove(&set, &Formula::False);
            prop_assert!(!refutation.is_proved(), "refuted a set with a model: {:?}\n{}", set, model);
        }
    }
}
