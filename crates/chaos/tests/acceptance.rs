//! End-to-end acceptance for the chaos subsystem, mirroring ISSUE's
//! acceptance criteria: the naive-timeout 3PC campaign must find and
//! shrink a split-brain counterexample, the packaged artifact must
//! replay byte-deterministically, and the election + termination
//! protocol must survive a long tolerated-fault campaign untouched.

use mcv_chaos::{run_chaos, Artifact, Campaign, FaultPlan, Target};
use mcv_commit::Scenario;

fn naive_campaign() -> Campaign<Scenario> {
    let base = Scenario { naive_timeouts: true, ..Scenario::default() };
    let plan = FaultPlan::tolerated(base.n_procs(), 300);
    Campaign::new(base, plan)
}

#[test]
fn naive_timeouts_split_brain_is_found_and_shrunk() {
    let v = naive_campaign()
        .hunt(200)
        .expect("200 seeds of tolerated faults must expose the naive timeout split brain");
    assert_eq!(v.oracle, "ac1_agreement", "expected an agreement violation, got {}", v.oracle);
    assert!(
        v.artifact.config.schedule.len() <= 5,
        "counterexample must shrink to <= 5 fault events, got {}: {:?}",
        v.artifact.config.schedule.len(),
        v.artifact.config.schedule
    );
    assert!(
        v.artifact.config.schedule.len() < v.original_events
            || v.artifact.config.n_cohorts < naive_campaign().base.n_cohorts,
        "shrinking made no progress"
    );
    assert!(v.artifact.reproduces(), "the minimal counterexample must still violate ac1");
}

#[test]
fn repro_artifact_replays_byte_deterministically() {
    let v = naive_campaign().hunt(200).expect("hunt must find a violation");

    // Round-trip through the JSON artifact (as the repro file would).
    let dir = std::env::temp_dir().join(format!("mcv-chaos-acceptance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = v.artifact.write(&dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let loaded = Artifact::<Scenario>::from_json(&text).unwrap();
    assert_eq!(loaded, v.artifact);

    // Replaying the loaded artifact gives bit-identical executions.
    let a = loaded.replay();
    let b = loaded.replay();
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.stats, b.stats);
    assert!(a.violates(&loaded.violated), "replay must reproduce the violation");
    assert!(loaded.replay_cmd.ends_with(&format!("-- chaos replay {}.json", loaded.id)));
}

#[test]
fn election_and_quorum_termination_survive_500_seeds() {
    let base = Scenario { quorum_termination: true, ..Scenario::default() };
    let plan = FaultPlan::tolerated(base.n_procs(), 300);
    let summary = Campaign::new(base, plan).run_seeds(0, 500);
    assert_eq!(summary.runs, 500);
    assert!(
        summary.all_green(),
        "election + quorum termination must pass every oracle: {:?}",
        summary.failures
    );
    // Every oracle actually ran on every seed.
    for name in mcv_chaos::ORACLE_NAMES {
        assert_eq!(summary.passes.get(*name), Some(&500), "oracle {name} missing passes");
    }
}

#[test]
fn fault_free_baseline_commits_everywhere() {
    let out = run_chaos(&Scenario::default());
    assert!(out.all_pass(), "oracles: {:?}", out.oracles);
    assert!(out.fingerprint.contains("commit"), "fingerprint: {}", out.fingerprint);
}
