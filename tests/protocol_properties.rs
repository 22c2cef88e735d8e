//! Property tests of the executable commit protocols across random
//! seeds, cohort counts and failure schedules: the three global
//! properties, observed rather than proved.

use mcv::commit::{run_scenario, CrashPoint, Protocol, Scenario};
use proptest::prelude::*;

fn crash_point_strategy() -> impl Strategy<Value = Option<CrashPoint>> {
    prop_oneof![
        Just(None),
        Just(Some(CrashPoint::AfterVoteReq)),
        Just(Some(CrashPoint::AfterVotes)),
        Just(Some(CrashPoint::AfterPrepare)),
        Just(Some(CrashPoint::AfterPartialPrepare)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Consistent state maintenance: with the termination protocol, no
    /// execution — whatever the seed, size, or coordinator crash point —
    /// yields one site committing while another aborts.
    #[test]
    fn three_pc_is_always_uniform(
        seed in 0u64..500,
        n_cohorts in 1usize..6,
        crash in crash_point_strategy(),
    ) {
        let r = run_scenario(&Scenario {
            seed,
            n_cohorts,
            coordinator_crash: crash,
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        prop_assert!(r.uniform, "split brain: {:?}", r.decisions);
    }

    /// Non-blocking: 3PC's operational sites decide before the failed
    /// coordinator recovers, for every crash point.
    #[test]
    fn three_pc_never_blocks(
        seed in 0u64..500,
        n_cohorts in 1usize..6,
        crash in crash_point_strategy(),
    ) {
        let r = run_scenario(&Scenario {
            seed,
            n_cohorts,
            coordinator_crash: crash,
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        prop_assert!(r.nonblocking, "blocked: {:?}", r.blocked_before_recovery);
    }

    /// 2PC stays *uniform* (atomicity) even though it blocks: safety is
    /// never traded away.
    #[test]
    fn two_pc_is_always_uniform(
        seed in 0u64..500,
        n_cohorts in 1usize..6,
        crash in crash_point_strategy(),
    ) {
        // 3PC-only crash points degrade to "no crash" for 2PC (the
        // prepare phase does not exist); AfterVotes is the relevant one.
        let crash = match crash {
            Some(CrashPoint::AfterPrepare) | Some(CrashPoint::AfterPartialPrepare) => {
                Some(CrashPoint::AfterVotes)
            }
            other => other,
        };
        let r = run_scenario(&Scenario {
            protocol: Protocol::TwoPhase,
            seed,
            n_cohorts,
            coordinator_crash: crash,
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        prop_assert!(r.uniform, "split brain: {:?}", r.decisions);
    }

    /// 2PC blocks exactly in the post-vote window.
    #[test]
    fn two_pc_blocks_in_the_post_vote_window(seed in 0u64..500, n_cohorts in 1usize..6) {
        let r = run_scenario(&Scenario {
            protocol: Protocol::TwoPhase,
            seed,
            n_cohorts,
            coordinator_crash: Some(CrashPoint::AfterVotes),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        prop_assert!(!r.nonblocking);
        prop_assert_eq!(r.blocked_before_recovery.len(), n_cohorts);
    }

    /// Validity: with no failures and all-yes votes, both protocols
    /// commit; with a no-vote, both abort.
    #[test]
    fn validity_of_outcomes(
        seed in 0u64..500,
        n_cohorts in 1usize..6,
        protocol in prop_oneof![Just(Protocol::TwoPhase), Just(Protocol::ThreePhase)],
        refuser in prop::option::of(0usize..6),
    ) {
        let refuser = refuser.filter(|r| *r < n_cohorts);
        let r = run_scenario(&Scenario {
            protocol,
            seed,
            n_cohorts,
            vote_no_cohort: refuser,
            ..Scenario::default()
        });
        prop_assert!(r.uniform);
        prop_assert_eq!(r.outcome, Some(refuser.is_none()));
    }

    /// Determinism: same scenario, same execution.
    #[test]
    fn runs_are_reproducible(seed in 0u64..500, n_cohorts in 1usize..5) {
        let sc = Scenario {
            seed,
            n_cohorts,
            coordinator_crash: Some(CrashPoint::AfterPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        };
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.decision_times, b.decision_times);
    }
}

/// The explorer and the seeded simulator agree about the naive-timeout
/// hazard across cohort counts: a coordinator crashing mid-way through
/// its prepare broadcast splits two or more cohorts, never one — in
/// every execution the explorer reaches and in the seeded run alike.
#[test]
fn model_and_simulation_agree_on_the_naive_hazard() {
    use mcv::chaos::{explore, FaultBudget};
    for cohorts in 1..=3usize {
        let sc = Scenario {
            n_cohorts: cohorts,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            naive_timeouts: true,
            ..Scenario::default()
        };
        let explored = explore(&sc, &FaultBudget { delta: 5, ..FaultBudget::default() });
        let sim = run_scenario(&sc);
        assert_eq!(explored.violation.is_none(), cohorts == 1, "explorer, {cohorts} cohorts");
        assert_eq!(sim.uniform, cohorts == 1, "simulation, {cohorts} cohorts");
    }
}
