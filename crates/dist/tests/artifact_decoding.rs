//! Artifact decoding under hostile input, for both campaign targets:
//! the simulator's `ChaosConfig` and the threaded runtime's
//! `PipelineConfig`. Whatever the text, `Artifact::from_json` returns
//! an artifact or an error and never panics; every artifact a campaign
//! writes reads back equal; and a schedule naming a process the
//! topology lacks is refused by name.

use mcv_chaos::{Artifact, ChaosConfig, CutKind, FaultEvent, FaultPlan, FaultSchedule, Target};
use mcv_commit::CrashPoint;
use mcv_dist::{DistConfig, PipelineConfig};
use proptest::prelude::*;
use serde::Value;

/// Every copy of `tree` with one map field, at any depth, replaced by a
/// value of another type: a list for a string, a string otherwise.
fn mistyped(tree: &Value) -> Vec<Value> {
    match tree {
        Value::Map(fields) => (0..fields.len())
            .flat_map(|i| {
                let wrong = match &fields[i].1 {
                    Value::Str(_) => Value::Seq(Vec::new()),
                    _ => Value::Str("x".into()),
                };
                std::iter::once(wrong).chain(mistyped(&fields[i].1)).map(move |v| {
                    let mut f = fields.clone();
                    f[i].1 = v;
                    Value::Map(f)
                })
            })
            .collect(),
        Value::Seq(items) => (0..items.len())
            .flat_map(|i| {
                mistyped(&items[i]).into_iter().map(move |v| {
                    let mut s = items.clone();
                    s[i] = v;
                    Value::Seq(s)
                })
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Round-trips `artifact`, then feeds the decoder everything it must
/// refuse: `noise` as text, every strict prefix of the artifact, every
/// field mistyped, and the artifact with `stray` — an event naming a
/// process past the topology — added to its schedule.
fn check<T: Target>(artifact: &Artifact<T>, noise: &str, stray: impl Fn(usize) -> FaultEvent) {
    let good = artifact.to_json();
    assert_eq!(Artifact::<T>::from_json(&good).ok().as_ref(), Some(artifact), "{good}");
    assert!(artifact.replay_cmd.contains(&format!("--replay {}.json", artifact.id)));

    let refused = |text: &str| {
        assert!(Artifact::<T>::from_json(text).is_err(), "accepted {text:?}");
    };
    refused(noise);
    (0..good.len()).filter(|&end| good.is_char_boundary(end)).for_each(|end| refused(&good[..end]));
    let tree = serde_json::parse_value(&good).expect("artifact JSON parses");
    for wrong in mistyped(&tree) {
        refused(&serde_json::to_string(&wrong).expect("value renders"));
    }

    let mut bad = artifact.clone();
    let event = stray(bad.config.n_procs());
    bad.config.schedule_mut().events.push(event.clone());
    let err = Artifact::<T>::from_json(&bad.to_json()).expect_err("stray event accepted");
    assert!(err.to_string().contains(&format!("{event:?}")), "{err}");
}

fn chaos_config(seed: u64, n_cohorts: usize, naive: bool) -> ChaosConfig {
    ChaosConfig {
        n_cohorts,
        naive_timeouts: naive,
        quorum_termination: !naive,
        seed,
        vote_no_cohort: naive.then_some(1),
        schedule: FaultSchedule::generate(seed, &FaultPlan::full(n_cohorts + 1, 300)),
        ..ChaosConfig::default()
    }
}

fn pipeline_config(seed: u64, n_shards: usize, naive: bool) -> PipelineConfig {
    PipelineConfig {
        dist: DistConfig {
            n_shards,
            n_txns: 3,
            seed,
            naive_timeouts: naive,
            crash_at: naive.then_some((0, CrashPoint::AfterVotes)),
            schedule: FaultSchedule::generate(seed, &FaultPlan::full(n_shards + 1, 150)),
            ..DistConfig::default()
        },
        max_inflight: 2,
        batch_window_us: 600,
        arrival_us: (!naive).then(|| vec![0, 250, seed % 1_000]),
    }
}

/// Fixed inputs beside the generated ones: four texts that are no
/// artifact, and one hand-picked configuration per target.
const FIXED_NOISE: [&str; 4] = ["", "{", "[]", "{\"id\": 1}"];

fn fixed_chaos() -> ChaosConfig {
    ChaosConfig {
        naive_timeouts: true,
        seed: 17,
        schedule: FaultSchedule::generate(17, &FaultPlan::tolerated(4, 300)),
        ..ChaosConfig::default()
    }
}

fn fixed_pipeline() -> PipelineConfig {
    PipelineConfig {
        dist: DistConfig { naive_timeouts: true, seed: 9, ..DistConfig::default() },
        max_inflight: 4,
        batch_window_us: 600,
        arrival_us: Some(vec![0, 250]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn artifacts_of_both_targets_decode_or_fail_cleanly(
        seed in any::<u64>(),
        size in 2usize..5,
        naive in any::<bool>(),
        fixed in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        noise_pick in 0usize..8,
        kind in 0usize..3,
        past in 0usize..50,
    ) {
        // Arbitrary bytes, sometimes one of the fixed texts; they also
        // serve as the evidence text, so the round trip covers escaping.
        let noise = match FIXED_NOISE.get(noise_pick) {
            Some(text) => (*text).to_owned(),
            None => String::from_utf8_lossy(&bytes).into_owned(),
        };
        let stray = |n_procs: usize| {
            let p = n_procs + past;
            match kind {
                0 => FaultEvent::Crash { proc: p, at: 10 },
                1 => FaultEvent::Partition { side: vec![0, p], cut: CutKind::Both, from: 1, until: 9 },
                _ => FaultEvent::DropWindow { src: None, dst: Some(p), from: 1, until: 9 },
            }
        };
        let (chaos, pipeline) = if fixed {
            (fixed_chaos(), fixed_pipeline())
        } else {
            (chaos_config(seed, size, naive), pipeline_config(seed, size, naive))
        };
        check(&Artifact::new(chaos, "ac1_agreement".into(), noise.clone()), &noise, stray);
        check(&Artifact::new(pipeline, "atomicity".into(), noise.clone()), &noise, stray);
    }
}
