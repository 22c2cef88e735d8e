//! Workload harness: runs one distributed transaction through 2PC or
//! 3PC under a configurable failure scenario and reports what the
//! thesis' global properties look like operationally.
//!
//! A [`Scenario`] is the one description of a simulated commit run:
//! the harness, the chaos campaigns and the explorer all build their
//! world from it through [`build_world`].

use crate::monitor::{check_uniformity, decisions, ObservedDecision};
use crate::msg::{CrashPoint, Msg, Protocol};
use crate::site::{Site, SiteConfig, TxnPlan};
use mcv_sim::{FaultEvent, FaultSchedule, ProcId, RunStats, SimTime, World, WorldConfig};
use mcv_txn::TxnId;
use std::collections::BTreeMap;

/// Scenario configuration: the protocol, the topology, the crash
/// points the protocol positions, and the dated faults. Serializable,
/// so a violating run ships as a replayable artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Which protocol to run.
    pub protocol: Protocol,
    /// Number of cohorts (the coordinator is an extra site, id 0).
    pub n_cohorts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Per-phase timeout in ticks.
    pub timeout: u64,
    /// Crash the coordinator at this point.
    pub coordinator_crash: Option<CrashPoint>,
    /// Crash cohort `index` (0-based) at this point.
    pub cohort_crash: Option<(usize, CrashPoint)>,
    /// This cohort (0-based) votes no.
    pub vote_no_cohort: Option<usize>,
    /// Use the naive Figure 3.2 timeout transitions instead of
    /// election + termination.
    pub naive_timeouts: bool,
    /// Absolute tick at which crashed sites recover (None = never).
    pub recovery_at: Option<u64>,
    /// Simulation deadline.
    pub deadline: u64,
    /// Number of concurrent transactions (disjoint write sets).
    pub n_transactions: usize,
    /// The dated faults (host ids: 0 is the coordinator, `1..=n_cohorts`
    /// the cohorts). An event naming a process the topology lacks is
    /// inert.
    pub schedule: FaultSchedule,
    /// Use quorum-based termination (partition-tolerant; see
    /// `SiteConfig::quorum_termination`).
    pub quorum_termination: bool,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            protocol: Protocol::ThreePhase,
            n_cohorts: 3,
            seed: 0,
            timeout: 50,
            coordinator_crash: None,
            cohort_crash: None,
            vote_no_cohort: None,
            naive_timeouts: false,
            recovery_at: None,
            deadline: 10_000,
            n_transactions: 1,
            schedule: FaultSchedule::none(),
            quorum_termination: false,
        }
    }
}

/// What happened in a scenario run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The scenario.
    pub protocol: Protocol,
    /// Low-level simulator stats.
    pub stats: RunStats,
    /// All observed local decisions.
    pub decisions: Vec<ObservedDecision>,
    /// Whether every deciding site agreed (atomicity).
    pub uniform: bool,
    /// The agreed outcome, if uniform and anyone decided.
    pub outcome: Option<bool>,
    /// Sites that were still undecided at the pre-recovery checkpoint
    /// although operational (i.e. *blocked* by the failure).
    pub blocked_before_recovery: Vec<ProcId>,
    /// Whether all operational sites decided before any failed site
    /// recovered — the non-blocking property.
    pub nonblocking: bool,
    /// Per-site decision times.
    pub decision_times: BTreeMap<ProcId, SimTime>,
    /// Messages sent in total.
    pub messages: u64,
}

/// The transaction id used by single-transaction scenarios.
const TXN: TxnId = TxnId(1);

/// Builds the world for a scenario: the only place a scenario's dated
/// faults reach a [`World`].
pub fn build_world(sc: &Scenario) -> World<Msg, Site> {
    let mut world = World::new(WorldConfig { seed: sc.seed, ..WorldConfig::default() });
    let coordinator = ProcId(0);
    let cohort_ids: Vec<ProcId> = (1..=sc.n_cohorts).map(ProcId).collect();
    let plans: Vec<TxnPlan> = (1..=sc.n_transactions.max(1) as u64)
        .map(|t| TxnPlan {
            txn: TxnId(t),
            writes: cohort_ids
                .iter()
                .map(|c| (*c, vec![(format!("X{}_{t}", c.0), 100 * t as i64 + c.0 as i64)]))
                .collect(),
        })
        .collect();
    let site = |crash_at, vote_no, plans| {
        Site::new(SiteConfig {
            protocol: sc.protocol,
            coordinator,
            timeout: sc.timeout,
            crash_at,
            vote_no,
            plans,
            naive_timeouts: sc.naive_timeouts,
            quorum_termination: sc.quorum_termination,
        })
    };
    world.add_process(site(sc.coordinator_crash, false, plans));
    for i in 0..cohort_ids.len() {
        let crash_at = sc.cohort_crash.and_then(|(idx, cp)| (idx == i).then_some(cp));
        world.add_process(site(crash_at, sc.vote_no_cohort == Some(i), Vec::new()));
    }
    for ev in &sc.schedule.events {
        world.schedule(ev);
    }
    if let Some(at) = sc.recovery_at {
        // Recovery events on processes that never crashed are no-ops.
        for proc in 0..=sc.n_cohorts {
            world.schedule(&FaultEvent::Recover { proc, at });
        }
    }
    world
}

/// Runs the scenario and reports. A `TornWrite` in the schedule is the
/// plain crash [`World::schedule`] makes of it: only `mcv-chaos`'s
/// `run_chaos`, whose oracle judges the log, tears it.
///
/// Besides the returned [`Report`], the run emits per-protocol
/// counters to the ambient [`mcv_obs`] collector (if one is
/// installed): `commit.{2pc,3pc}.{runs,messages,rounds,commits,
/// aborts}` plus one `commit.site.<id>.decisions` counter per
/// deciding site. *Rounds* counts the coordinator's protocol-state
/// transitions on the primary transaction — 2PC and 3PC differ by
/// exactly the extra prepare round.
pub fn run_scenario(sc: &Scenario) -> Report {
    let _span = mcv_obs::Span::enter("commit.run_scenario");
    let mut world = build_world(sc);
    // Phase 1: run up to (but excluding) recovery, to observe blocking.
    // With `recovery_at <= 1` there is no pre-recovery window: the
    // checkpoint would clamp to tick 0 and report start-of-run state as
    // "blocked". Skip the observation entirely — non-blocking holds
    // vacuously when recovery is immediate.
    let mut blocked = Vec::new();
    if sc.recovery_at.is_none_or(|r| r > 1) {
        let checkpoint = sc.recovery_at.map(|r| r - 1).unwrap_or(sc.deadline).min(sc.deadline);
        world.run_until(SimTime::from_ticks(checkpoint));
        let pre_decisions = decisions(world.trace());
        for i in 0..world.n_procs() {
            let id = ProcId(i);
            if !world.is_up(id) {
                continue;
            }
            let decided = pre_decisions.iter().any(|d| d.site == id && d.txn == TXN);
            // Sites that never started participating (e.g. a no-op extra
            // site) have no local state for the txn.
            let participated = world.process(id).local_state(TXN).is_some();
            if participated && !decided {
                blocked.push(id);
            }
        }
    }
    let nonblocking = blocked.is_empty();
    // Phase 2: run to the deadline (recovery, if any, happens here).
    let stats = world.run_until(SimTime::from_ticks(sc.deadline));
    let all_decisions = decisions(world.trace());
    let uniform = check_uniformity(world.trace()).is_ok();
    let outcome = if uniform {
        let ds: Vec<bool> =
            all_decisions.iter().filter(|d| d.txn == TXN).map(|d| d.commit).collect();
        ds.first().copied()
    } else {
        None
    };
    let mut decision_times = BTreeMap::new();
    for d in &all_decisions {
        if d.txn == TXN {
            decision_times.entry(d.site).or_insert(d.time);
        }
    }
    let proto = match sc.protocol {
        Protocol::TwoPhase => "2pc",
        Protocol::ThreePhase => "3pc",
    };
    let rounds = world
        .trace()
        .of(ProcId(0))
        .filter(|e| matches!(e.event, mcv_trace::EventKind::State { txn, .. } if txn == TXN.0))
        .count() as u64;
    mcv_obs::counter(&format!("commit.{proto}.runs"), 1);
    mcv_obs::counter(&format!("commit.{proto}.messages"), stats.messages_sent);
    mcv_obs::counter(&format!("commit.{proto}.rounds"), rounds);
    for d in &all_decisions {
        mcv_obs::counter(
            &format!("commit.{proto}.{}", if d.commit { "commits" } else { "aborts" }),
            1,
        );
        mcv_obs::counter(&format!("commit.site.{}.decisions", d.site), 1);
    }
    Report {
        protocol: sc.protocol,
        messages: stats.messages_sent,
        stats,
        decisions: all_decisions,
        uniform,
        outcome,
        blocked_before_recovery: blocked,
        nonblocking,
        decision_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_sim::CutKind;

    /// Cuts cohort p1 off from everyone else from tick 20 to `until`.
    fn isolate_cohort_1(until: u64) -> FaultSchedule {
        let cut = FaultEvent::Partition { side: vec![1], cut: CutKind::Both, from: 20, until };
        FaultSchedule { events: vec![cut] }
    }

    #[test]
    fn failure_free_3pc_commits_uniformly() {
        let r = run_scenario(&Scenario::default());
        assert!(r.uniform);
        assert_eq!(r.outcome, Some(true));
        assert!(r.nonblocking);
        // Coordinator + 3 cohorts all decide.
        assert_eq!(r.decision_times.len(), 4);
    }

    #[test]
    fn failure_free_2pc_commits_uniformly() {
        let r = run_scenario(&Scenario { protocol: Protocol::TwoPhase, ..Scenario::default() });
        assert!(r.uniform);
        assert_eq!(r.outcome, Some(true));
        assert!(r.nonblocking);
    }

    #[test]
    fn a_no_vote_aborts_everywhere() {
        let r = run_scenario(&Scenario { vote_no_cohort: Some(1), ..Scenario::default() });
        assert!(r.uniform);
        assert_eq!(r.outcome, Some(false));
    }

    #[test]
    fn two_pc_uses_fewer_messages_than_three_pc() {
        let two = run_scenario(&Scenario { protocol: Protocol::TwoPhase, ..Scenario::default() });
        let three = run_scenario(&Scenario::default());
        assert!(two.messages < three.messages, "2PC {} vs 3PC {}", two.messages, three.messages);
    }

    #[test]
    fn coordinator_crash_after_votes_blocks_2pc() {
        let r = run_scenario(&Scenario {
            protocol: Protocol::TwoPhase,
            coordinator_crash: Some(CrashPoint::AfterVotes),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        // Cohorts voted yes and cannot decide: blocked until recovery.
        assert!(!r.nonblocking);
        assert_eq!(r.blocked_before_recovery.len(), 3);
        // After recovery the coordinator resolves (abort: no decision was
        // logged) and uniformity holds.
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        assert_eq!(r.outcome, Some(false));
    }

    #[test]
    fn coordinator_crash_after_votes_does_not_block_3pc() {
        let r = run_scenario(&Scenario {
            coordinator_crash: Some(CrashPoint::AfterVotes),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.nonblocking, "blocked: {:?}", r.blocked_before_recovery);
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // Nobody was prepared: termination decides abort; the recovered
        // coordinator (failure transition from w1) also aborts.
        assert_eq!(r.outcome, Some(false));
    }

    #[test]
    fn coordinator_crash_after_prepare_3pc_commits_nonblocking() {
        let r = run_scenario(&Scenario {
            coordinator_crash: Some(CrashPoint::AfterPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.nonblocking, "blocked: {:?}", r.blocked_before_recovery);
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // Cohorts were prepared: termination decides commit; recovered
        // coordinator (failure transition from p1) commits too.
        assert_eq!(r.outcome, Some(true));
    }

    #[test]
    fn partial_prepare_with_termination_is_safe() {
        let r = run_scenario(&Scenario {
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        assert!(r.nonblocking);
    }

    #[test]
    fn partial_prepare_with_naive_timeouts_splits_brain() {
        // The reproduction of why Figure 3.2's independent timeout
        // transitions are unsafe beyond one cohort.
        let r = run_scenario(&Scenario {
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            naive_timeouts: true,
            recovery_at: None,
            ..Scenario::default()
        });
        assert!(!r.uniform, "expected split brain, got {:?}", r.decisions);
    }

    #[test]
    fn naive_timeouts_are_safe_with_one_cohort() {
        let r = run_scenario(&Scenario {
            n_cohorts: 1,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            naive_timeouts: true,
            recovery_at: None,
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
    }

    #[test]
    fn cohort_crash_before_vote_aborts() {
        let r = run_scenario(&Scenario {
            cohort_crash: Some((0, CrashPoint::AfterVoteYes)),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
    }

    #[test]
    fn cascading_backup_failure_still_terminates() {
        // Coordinator dies after votes; the first elected backup
        // (cohort 0, lowest id) dies right after announcing itself; the
        // next lowest must take over and finish the termination.
        let r = run_scenario(&Scenario {
            coordinator_crash: Some(CrashPoint::AfterVotes),
            cohort_crash: Some((0, CrashPoint::AsBackupAfterAnnounce)),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // The surviving cohorts (p2, p3) decide well before recovery.
        for site in [ProcId(2), ProcId(3)] {
            let t = r.decision_times.get(&site).copied().expect("decided");
            assert!(t.ticks() < 5_000, "{site} decided only at {t}");
        }
    }

    #[test]
    fn concurrent_transactions_all_commit() {
        let r = run_scenario(&Scenario { n_transactions: 5, ..Scenario::default() });
        assert!(r.uniform);
        // 5 transactions x 4 sites = 20 decisions, all commits.
        let commits = r.decisions.iter().filter(|d| d.commit).count();
        assert_eq!(commits, 20, "decisions: {:?}", r.decisions);
    }

    #[test]
    fn concurrent_transactions_under_coordinator_crash_stay_uniform() {
        let r = run_scenario(&Scenario {
            n_transactions: 4,
            coordinator_crash: Some(CrashPoint::AfterPrepare),
            recovery_at: Some(5_000),
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // Every transaction reaches a uniform outcome at every cohort.
        for t in 1..=4u64 {
            let outcomes: Vec<bool> =
                r.decisions.iter().filter(|d| d.txn == TxnId(t)).map(|d| d.commit).collect();
            assert!(!outcomes.is_empty(), "T{t} undecided");
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "T{t}: {outcomes:?}");
        }
    }

    #[test]
    fn cohort_databases_stay_serializable_across_transactions() {
        let sc = Scenario { n_transactions: 6, ..Scenario::default() };
        let mut world = build_world(&sc);
        world.run_until(SimTime::from_ticks(sc.deadline));
        for i in 1..=sc.n_cohorts {
            let site = world.process(ProcId(i));
            let h = site.db.history().expect("site is up");
            assert!(h.is_conflict_serializable(), "cohort {i}: {h}");
        }
    }

    #[test]
    fn partition_splits_brain_without_quorum() {
        // The thesis' assumption 2 ("reliable network without
        // partitioning") is load-bearing: after a partial prepare, a
        // partition separating the prepared cohort lets both sides run
        // the termination protocol and decide differently.
        let r = run_scenario(&Scenario {
            n_cohorts: 4,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            schedule: isolate_cohort_1(9_000),
            ..Scenario::default()
        });
        assert!(!r.uniform, "expected split brain, got {:?}", r.decisions);
    }

    #[test]
    fn quorum_termination_survives_partition() {
        // Same scenario with quorum-based termination: the minority side
        // (1 of 5 sites) blocks instead of deciding; the majority decides;
        // after the partition heals the minority adopts its decision.
        let r = run_scenario(&Scenario {
            n_cohorts: 4,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            schedule: isolate_cohort_1(2_000),
            quorum_termination: true,
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // Everyone eventually decides, including the once-isolated cohort.
        assert!(r.decision_times.contains_key(&ProcId(1)), "{:?}", r.decision_times);
        // The isolated cohort could only decide after the heal.
        assert!(r.decision_times[&ProcId(1)].ticks() >= 2_000);
    }

    #[test]
    fn quorum_minority_stays_blocked_while_partitioned() {
        let r = run_scenario(&Scenario {
            n_cohorts: 4,
            coordinator_crash: Some(CrashPoint::AfterPartialPrepare),
            // Partition outlives the simulation deadline.
            schedule: isolate_cohort_1(20_000),
            quorum_termination: true,
            ..Scenario::default()
        });
        assert!(r.uniform, "decisions: {:?}", r.decisions);
        // The isolated cohort never reaches a quorum: no decision from it.
        assert!(!r.decision_times.contains_key(&ProcId(1)), "{:?}", r.decision_times);
        // The majority side still decides.
        assert!(r.decision_times.contains_key(&ProcId(2)));
    }

    #[test]
    fn immediate_recovery_skips_blocking_observation() {
        // Regression: recovery_at = Some(0) used to clamp the Phase-1
        // checkpoint to tick 0 and observe start-of-run state, reporting
        // sites as blocked before anything had happened. With an
        // immediate recovery there is no pre-recovery window, so the
        // blocking observation is vacuous and the run must still reach
        // a uniform decision.
        for at in [0, 1] {
            let r = run_scenario(&Scenario {
                coordinator_crash: Some(CrashPoint::AfterVotes),
                recovery_at: Some(at),
                ..Scenario::default()
            });
            assert!(r.nonblocking, "recovery_at={at}: blocked {:?}", r.blocked_before_recovery);
            assert!(r.blocked_before_recovery.is_empty());
            assert!(r.uniform, "recovery_at={at}: decisions {:?}", r.decisions);
            // The recovery event fires before the crash even happens, so
            // it is a no-op and the coordinator stays down; the three
            // cohorts still decide via the termination protocol.
            assert_eq!(r.decision_times.len(), 3, "recovery_at={at}: {:?}", r.decision_times);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_scenario(&Scenario { seed: 11, ..Scenario::default() });
        let b = run_scenario(&Scenario { seed: 11, ..Scenario::default() });
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.decision_times, b.decision_times);
    }
}
