//! Integration tests for the distributed runtime: fault-free
//! commits, vote-no aborts, tolerated fault schedules, and the
//! naive-timeout split-brain counterexample over real threads —
//! found, shrunk and replayed under the schedule that exposed it.

use mcv_dist::{run_pipeline, tolerated_campaign, DistConfig, PipelineConfig};

/// Every plan submitted at once, per-message transport.
fn all_at_once(dist: DistConfig) -> PipelineConfig {
    PipelineConfig { max_inflight: dist.n_txns, batch_window_us: 0, arrival_us: None, dist }
}

/// Figure 3.2's naive timeout transitions: after the coordinator
/// crashes having sent prepare to only the first shard, that shard
/// times out in `p` (commit) while the others time out in `w` (abort).
fn naive_split_config() -> DistConfig {
    DistConfig {
        naive_timeouts: true,
        quorum_termination: false,
        crash_at: Some((0, mcv_commit::CrashPoint::AfterPartialPrepare)),
        n_shards: 2,
        n_txns: 1,
        ..DistConfig::default()
    }
}

#[test]
fn fault_free_run_commits_everywhere_and_passes_all_oracles() {
    // No fault to time out on: a patient timeout keeps a scheduler
    // stall from surfacing as a legitimate abort.
    let out = run_pipeline(&all_at_once(DistConfig { timeout: 2_000, ..DistConfig::default() }));
    assert!(out.violated().is_none(), "violated: {:?}", out.violated());
    assert_eq!(out.stats.committed, out.stats.txns);
    assert_eq!(out.stats.undecided, 0);
    assert!(!out.stats.timed_out);
}

#[test]
fn a_no_vote_aborts_uniformly() {
    let out = run_pipeline(&all_at_once(DistConfig {
        vote_no: Some(1),
        n_txns: 1,
        ..DistConfig::default()
    }));
    assert!(out.violated().is_none(), "violated: {:?}", out.violated());
    assert_eq!(out.stats.committed, 0);
    assert_eq!(out.stats.aborted, 1);
}

#[test]
fn coordinator_crash_after_votes_still_terminates() {
    // The classic 2PC blocking window: 3PC's termination protocol must
    // decide among the surviving shards.
    let out = run_pipeline(&all_at_once(DistConfig {
        crash_at: Some((0, mcv_commit::CrashPoint::AfterVotes)),
        n_txns: 1,
        ..DistConfig::default()
    }));
    assert!(out.violated().is_none(), "violated: {:?}", out.violated());
    assert_eq!(out.stats.undecided, 0);
}

#[test]
fn naive_timeouts_split_brain_across_real_shards() {
    // Cross-shard atomicity is violated on live engines. A handful of
    // attempts absorbs scheduling jitter; in practice the first run
    // splits.
    let cfg = all_at_once(naive_split_config());
    let split = (0..3).any(|_| {
        let out = run_pipeline(&cfg);
        out.violates("atomicity") || out.violates("ac1_agreement")
    });
    assert!(split, "naive timeouts failed to split-brain in 3 attempts");
}

#[test]
fn tolerated_fault_campaign_stays_green() {
    let c = tolerated_campaign(all_at_once(DistConfig { n_txns: 1, ..DistConfig::default() }));
    let summary = c.run_seeds(100, 4);
    assert!(summary.all_green(), "failures: {:?}", summary.failures);
    assert_eq!(summary.runs, 4);
}

#[test]
fn pipelined_violation_shrinks_and_replays() {
    // The campaign loop, the shrinker and the artifact all replay the
    // windowed, batched schedule that found the violation. The plan
    // generates no timed faults: the targeted crash alone exposes the
    // bug.
    let mut c = tolerated_campaign(PipelineConfig {
        dist: naive_split_config(),
        max_inflight: 4,
        batch_window_us: 600,
        arrival_us: None,
    });
    c.plan.crashes = false;
    c.plan.partitions = false;
    c.plan.drop_windows = false;
    let v = c.hunt(3).expect("the naive variant splits under the pipelined schedule");
    assert_eq!(v.artifact.config.max_inflight, 4);
    assert_eq!(v.artifact.config.batch_window_us, 600);
    assert!(v.artifact.config.dist.schedule.len() <= v.original_events);
    assert!(v.artifact.reproduces(), "shrunk artifact no longer violates {}", v.oracle);
}
