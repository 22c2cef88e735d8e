//! The bounded exhaustive explorer over the running commit sites: the
//! stated bound explored clean, the quorum-recovery split brain it
//! found kept fixed, the split it still finds kept visible, and the
//! search deterministic.

use mcv::chaos::{explore, Counterexample, FaultBudget, OracleResult};
use mcv::commit::{CrashPoint, Scenario};
use std::time::Instant;

/// Quorum-terminated 3PC at the explorer's time scale: hops of one
/// tick against a ten-tick timeout.
fn quorum(n_cohorts: usize, n_transactions: usize) -> Scenario {
    Scenario {
        n_cohorts,
        n_transactions,
        timeout: 10,
        quorum_termination: true,
        ..Scenario::default()
    }
}

fn load(name: &str) -> Counterexample {
    let path = format!("{}/tests/regressions/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The oracles' verdicts on the recorded execution, failing loudly if
/// the replay drifted from it (a choice gone, or other faults).
fn replay(cx: &Counterexample) -> Vec<OracleResult> {
    cx.replay().unwrap_or_else(|e| panic!("the replay drifted, re-derive the artifact: {e}"))
}

/// The bound: 3 sites × 1 transaction and 2 sites × 2 transactions,
/// each with one coordinator crash and its recovery at any point; the
/// 3-site run adds one partition cutting the coordinator off (both
/// ways or outbound only) and its heal. Before the recovery fix the
/// first run finds the split brain replayed below.
#[test]
fn the_recovery_bound_is_explored_clean() {
    for (sc, partition) in [(quorum(2, 1), vec![0]), (quorum(1, 2), vec![])] {
        let budget = FaultBudget { crash: vec![0], partition, delta: 1 };
        let start = Instant::now();
        let found = explore(&sc, &budget);
        println!(
            "{} sites x {} transactions, {budget:?}: {} executions, {} states in {:?}",
            sc.n_cohorts + 1,
            sc.n_transactions,
            found.executions,
            found.states,
            start.elapsed()
        );
        assert!(found.violation.is_none(), "{:#?}", found.violation.map(|cx| cx.steps()));
        assert!(found.executions > 0 && found.states > 1_000);
    }
}

/// The minimal counterexample the explorer found at the old recovery
/// rule: the coordinator, cut off in `p`, crashes; the cohorts
/// terminate to abort by quorum; the recovering coordinator applied
/// `p1 -> commit` alone. With the fix it asks instead, and learns the
/// abort.
#[test]
fn the_quorum_recovery_split_brain_stays_fixed() {
    let cx = load("quorum-recovery-split-brain.json");
    assert_eq!(cx.violated, "ac1_agreement");
    let verdicts = replay(&cx);
    assert!(verdicts.iter().all(|o| o.pass), "{verdicts:#?}");
}

/// A split the explorer still finds under quorum termination (ROADMAP
/// item 13): two backups decide from different majorities — the
/// coordinator, prepared, commits with a quorum it shares with a
/// cohort that its fellow backup counted in an all-`w` quorum to
/// abort. Pinned as a known defect: when the termination rule is made
/// quorum-safe this replay passes and the test must flip.
#[test]
fn concurrent_quorum_backups_still_split() {
    let cx = load("concurrent-backups-split-brain.json");
    let verdicts = replay(&cx);
    let split = verdicts.iter().find(|o| o.name == "ac1_agreement").expect("oracle");
    assert!(!split.pass, "the concurrent-backup split is gone: flip this test");
}

/// The same bound explored twice gives the same state count and the
/// same first counterexample.
#[test]
fn exploration_is_deterministic() {
    let sc = Scenario {
        n_cohorts: 2,
        naive_timeouts: true,
        timeout: 10,
        coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
        ..Scenario::default()
    };
    let budget = FaultBudget { crash: vec![0], partition: vec![0], delta: 2 };
    let a = explore(&sc, &budget);
    let b = explore(&sc, &budget);
    assert_eq!((a.states, a.executions), (b.states, b.executions));
    assert!(a.violation.is_some());
    assert_eq!(a.violation, b.violation);
}
