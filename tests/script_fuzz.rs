//! The spec parser and the script interpreter fed damaged Chapter 5
//! texts: cut short anywhere, with a few bytes replaced by ones the
//! grammar cares about. Whatever the damage, both return, with a spec
//! or a typed error, and never panic. (Most damage is an error; a cut
//! between two declarations or a replaced comment byte still parses.)

use mcv::blocks::{script_runner, specs, SpecLibrary};
use mcv::core::{parse_spec, ScriptEngine};
use proptest::prelude::*;

const SPEC_TEXTS: [&str; 13] = [
    specs::BBB_SRC,
    specs::RELIABLEBROADCAST_SRC,
    specs::CONSENSUS_SRC,
    specs::UNDOREDO_SRC,
    specs::TWOPHASELOCK_SRC,
    specs::SNAPSHOT_SRC,
    specs::MVCCSNAPSHOT_SRC,
    specs::DECISIONMAKING_SRC,
    specs::CHECKPOINTING_SRC,
    specs::ROLLBACKRECOVERY_SRC,
    specs::VOTING_SRC,
    specs::TERMINATION_SRC,
    specs::FAILURETIMEOUT_SRC,
];

/// Bytes the spec and script grammars give meaning to, plus a
/// non-ASCII one that leaves invalid UTF-8 behind.
const NOISE: &[u8] = b"(){},:;=<>+-~&|%\n xX0\xff";

/// Where to cut, in thousandths of the text (1000 keeps all of it), and
/// which bytes to overwrite (position, noise byte).
fn damage_strategy() -> impl Strategy<Value = (usize, Vec<(usize, u8)>)> {
    let cut = prop_oneof![Just(1000usize), 0..1000usize];
    let edit = (any::<usize>(), 0..NOISE.len()).prop_map(|(at, i)| (at, NOISE[i]));
    (cut, prop::collection::vec(edit, 0..4))
}

fn damaged(text: &str, (cut, edits): &(usize, Vec<(usize, u8)>)) -> String {
    let mut bytes = text.as_bytes()[..text.len() * cut / 1000].to_vec();
    let len = bytes.len();
    for &(at, b) in edits.iter().filter(|_| len > 0) {
        bytes[at % len] = b;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A script without its final `prove` statement, and that statement.
fn split_at_prove(script: &str) -> (&str, &str) {
    let cut = script.trim_end().rfind('\n').expect("many statements") + 1;
    script.split_at(cut)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_spec_texts_parse_or_fail_cleanly(which in 0..SPEC_TEXTS.len(), damage in damage_strategy()) {
        let lib = SpecLibrary::load();
        let imports: Vec<_> = lib.all().into_iter().cloned().collect();
        let _ = parse_spec("DAMAGED", &damaged(SPEC_TEXTS[which], &damage), &imports);
    }

    #[test]
    fn damaged_scripts_run_or_fail_cleanly(which in 0..3usize, damage in damage_strategy()) {
        // The composition statements only: a damaged theorem could send
        // the prover on a search up to its budget.
        let script = [
            script_runner::serializability_script(),
            script_runner::csm_script(),
            script_runner::rbr_script(),
        ][which]
            .clone();
        let (compose, _) = split_at_prove(&script);
        let _ = ScriptEngine::new().run(&damaged(compose, &damage));
    }

    #[test]
    fn a_damaged_prove_statement_runs_or_fails_cleanly(damage in damage_strategy()) {
        let script = script_runner::serializability_script();
        let (compose, prove) = split_at_prove(&script);
        let mut engine = ScriptEngine::new();
        engine.run(compose).expect("the intact statements run");
        if let Err(e) = engine.run(&damaged(prove, &damage)) {
            prop_assert!(e.line <= 1, "{}", e);
        }
    }
}
