//! Determinism and conservation properties of the profiler: the
//! attribution table and the telemetry stream feed claims `exp.prof`
//! asserts exactly, so their deterministic shape must be a pure
//! function of their inputs — never of drain timing, wall clock, or
//! float formatting accidents.

use mcv_prof::{
    attribute_commits, strip_wall_all, telemetry_jsonl, AttributionTable, Phase, ProfSamples,
    TelemetryConfig, TelemetryStream, Timeline, PHASES,
};
use mcv_trace::{CausalTrace, Event, EventKind};
use proptest::prelude::*;

/// Synthetic harvested samples mirroring the recorder's contract: one
/// timeline per transaction (distinct ids), per-phase chunks that
/// never exceed the total (phases are disjoint slices of one
/// transaction's lifetime), plus optional anonymous `txn == 0`
/// entries (unanchored transport samples).
fn samples_strategy() -> impl Strategy<Value = ProfSamples> {
    (
        prop::collection::vec(
            (1_000u64..10_000_000, prop::collection::vec(0usize..8, 0..6), any::<bool>()),
            0..40,
        ),
        0u64..3,
    )
        .prop_map(|(specs, dropped)| {
            let timelines = specs
                .into_iter()
                .enumerate()
                .map(|(i, (total, picks, anonymous))| {
                    let mut t = Timeline::new(if anonymous { 0 } else { i as u64 + 1 });
                    t.total_ns = if anonymous { 0 } else { total };
                    let share = total / (picks.len().max(1) as u64 + 1);
                    for p in picks {
                        t.add(PHASES[p], share);
                    }
                    t
                })
                .collect();
            ProfSamples { timelines, dropped }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same samples in, same table out — rendered text and JSON both,
    /// byte for byte. The table is what `exp.prof` prints and gates.
    #[test]
    fn attribution_is_a_pure_function_of_its_samples(samples in samples_strategy()) {
        let a = AttributionTable::from_samples(&samples);
        let b = AttributionTable::from_samples(&samples);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap()
        );
    }

    /// Attributed and unattributed fractions partition the anchored
    /// time: both lie in [0, 1] and sum to 1 whenever any transaction
    /// anchored the table.
    #[test]
    fn fractions_partition_anchored_time(samples in samples_strategy()) {
        let t = AttributionTable::from_samples(&samples);
        prop_assert!((0.0..=1.0).contains(&t.attributed_frac), "{}", t.attributed_frac);
        prop_assert!((0.0..=1.0).contains(&t.unattributed_frac), "{}", t.unattributed_frac);
        if t.anchored_txns > 0 {
            let sum = t.attributed_frac + t.unattributed_frac;
            prop_assert!((sum - 1.0).abs() < 1e-9, "attributed + unattributed = {sum}");
        }
    }

    /// Per-phase nanosecond sums in the table equal the sums over the
    /// raw samples — aggregation loses nothing and invents nothing.
    #[test]
    fn phase_sums_are_conserved(samples in samples_strategy()) {
        let t = AttributionTable::from_samples(&samples);
        for (i, p) in PHASES.iter().enumerate() {
            let raw: u64 = samples
                .timelines
                .iter()
                .filter(|tl| tl.txn != 0)
                .map(|tl| tl.phase_ns[i])
                .sum();
            let row = t.row(p.name()).expect("every phase has a row");
            prop_assert_eq!(row.sum_ns, raw, "phase {}", p.name());
        }
    }
}

/// One telemetry observation at a virtual instant.
#[derive(Debug, Clone)]
enum Obs {
    Arrival(u64),
    Shed(u64),
    Abort(u64),
    Commit(u64, u64),
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    let at = 0u64..2_000;
    prop_oneof![
        at.clone().prop_map(Obs::Arrival),
        at.clone().prop_map(Obs::Shed),
        at.clone().prop_map(Obs::Abort),
        (at, 1_000u64..1_000_000).prop_map(|(t, l)| Obs::Commit(t, l)),
    ]
}

fn apply(stream: &mut TelemetryStream, obs: &Obs) {
    match obs {
        Obs::Arrival(t) => stream.observe_arrival(*t),
        Obs::Shed(t) => stream.observe_shed(*t),
        Obs::Abort(t) => stream.observe_abort(*t),
        Obs::Commit(t, lat) => stream.observe_commit(*t, *lat, None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No observation is ever lost, no matter how drains interleave
    /// with observes: the emitted windows account for every arrival,
    /// shed, abort, and commit exactly once (late observations fold
    /// into the next open window instead of vanishing).
    #[test]
    fn interleaved_drains_lose_nothing(
        ops in prop::collection::vec(
            prop_oneof![
                obs_strategy().prop_map(Some),
                (0u64..2_500).prop_map(|_| None), // drain point
            ],
            1..60,
        ),
        watermarks in prop::collection::vec(0u64..2_500, 0..10),
    ) {
        let mut stream = TelemetryStream::new(TelemetryConfig { window_us: 100 });
        let mut emitted = Vec::new();
        let mut wm = watermarks.into_iter();
        let (mut arrivals, mut sheds, mut aborts, mut commits) = (0u64, 0u64, 0u64, 0u64);
        for op in &ops {
            match op {
                Some(o) => {
                    match o {
                        Obs::Arrival(_) => arrivals += 1,
                        Obs::Shed(_) => sheds += 1,
                        Obs::Abort(_) => aborts += 1,
                        Obs::Commit(..) => commits += 1,
                    }
                    apply(&mut stream, o);
                }
                None => {
                    if let Some(w) = wm.next() {
                        emitted.extend(stream.drain_complete(w));
                    }
                }
            }
        }
        emitted.extend(stream.finish());
        prop_assert_eq!(emitted.iter().map(|s| s.arrivals).sum::<u64>(), arrivals);
        prop_assert_eq!(emitted.iter().map(|s| s.wall.sheds).sum::<u64>(), sheds);
        prop_assert_eq!(emitted.iter().map(|s| s.wall.aborts).sum::<u64>(), aborts);
        prop_assert_eq!(emitted.iter().map(|s| s.wall.commits).sum::<u64>(), commits);
        // Emitted windows are contiguous once the stream starts.
        for pair in emitted.windows(2) {
            prop_assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
    }

    /// The wall-stripped JSONL stream is a pure function of the
    /// scheduled arrival times: latencies, drain watermarks, and
    /// completion outcomes never leak into the stripped bytes. The
    /// schedule is sorted, as the driver dispatches arrivals in order
    /// and only drains windows behind the dispatch point.
    #[test]
    fn stripped_jsonl_depends_only_on_the_schedule(
        at_us in prop::collection::vec(0u64..3_000, 1..40),
        latencies_a in prop::collection::vec(1_000u64..500_000, 40),
        latencies_b in prop::collection::vec(1_000u64..500_000, 40),
        watermark in 0u64..3_500,
    ) {
        let at_us = {
            let mut v = at_us;
            v.sort_unstable();
            v
        };
        let run = |latencies: &[u64], split: bool| {
            let mut s = TelemetryStream::new(TelemetryConfig { window_us: 250 });
            let mut out = Vec::new();
            for (i, &t) in at_us.iter().enumerate() {
                s.observe_arrival(t);
                s.observe_commit(t, latencies[i], None);
                if split && t > watermark {
                    out.extend(s.drain_complete(watermark));
                }
            }
            out.extend(s.finish());
            strip_wall_all(&mut out);
            telemetry_jsonl(&out)
        };
        prop_assert_eq!(run(&latencies_a, false), run(&latencies_b, true));
    }
}

fn ev(id: u64, site: usize, wall_us: u64, cause: Option<u64>, kind: EventKind) -> Event {
    Event { id, site, seq: 0, lamport: id, cause, time: 0, wall_ns: wall_us * 1_000, kind }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Critical-path segments tile the commit span exactly for any
    /// timing of the canonical lock → append → force → commit shape:
    /// the telescoping decomposition never gaps or double-counts, so
    /// phase fractions are well defined.
    #[test]
    fn path_segments_tile_the_span_for_any_timing(
        release_us in 1u64..500,
        acquire_gap in 1u64..100,
        append_gap in 1u64..100,
        force_gap in 1u64..1_000,
        ack_gap in 1u64..50,
    ) {
        let t_acq = release_us + acquire_gap;
        let t_app = t_acq + append_gap;
        let t_force = t_app + force_gap;
        let t_commit = t_force + ack_gap;
        let trace = CausalTrace {
            events: vec![
                ev(1, 0, 0, None,
                   EventKind::LockAcquire { txn: 1, item: "A".into(), exclusive: true }),
                ev(2, 1, release_us, None, EventKind::LockRelease { txn: 2, item: "B".into() }),
                ev(3, 0, t_acq, Some(2),
                   EventKind::LockAcquire { txn: 1, item: "B".into(), exclusive: true }),
                ev(4, 0, t_app, None,
                   EventKind::WalAppend { txn: 1, lsn: 1, what: "commit".into(), wal: 0 }),
                ev(5, 2, t_force, None, EventKind::WalForce { upto: 1, wal: 0 }),
                ev(6, 0, t_commit, Some(5), EventKind::Commit { txn: 1 }),
            ],
            dropped: 0,
        };
        let (table, paths) = attribute_commits(&trace);
        prop_assert_eq!(paths.len(), 1);
        let path = &paths[0];
        prop_assert_eq!(path.total_ns, t_commit * 1_000);
        let sum: u64 = path.segments.iter().map(|s| s.ns).sum();
        prop_assert_eq!(sum, path.total_ns, "{:#?}", path.segments);
        // Everything in this trace is classifiable; the lock hand-off
        // lands in lock_wait and the force dwell in wal_force.
        prop_assert!((table.attributed_frac - 1.0).abs() < 1e-9, "{}", table.render());
        let tl = path.timeline();
        prop_assert_eq!(tl.phase_ns[Phase::LockWait.index()], t_acq * 1_000);
        prop_assert_eq!(tl.phase_ns[Phase::WalForce.index()], force_gap * 1_000);
        prop_assert_eq!(tl.phase_ns[Phase::CommitAck.index()], ack_gap * 1_000);
    }
}
