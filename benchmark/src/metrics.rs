//! The declared metrics: names, units, directions, regression bounds,
//! and for every per-layer metric which end-to-end metric on which
//! workload it is expected to move. `BENCHMARK.json` mirrors the two
//! tables; a self-test keeps them equal.

use crate::json::Json;
use crate::workloads::{
    DIST_PIPELINE as DIST, ENGINE_2PL_UNIFORM as UNIFORM, ENGINE_2PL_ZIPF as ZIPF,
    ENGINE_SI_ZIPF as SI, LOAD_OPEN_DEVICE as LOAD, SPEC_VERIFY as SPEC, WORKLOADS,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; every workload reports all
/// of them on the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const TPUT: &str = "tput_tps";
pub const LAT_P50: &str = "lat_p50_us";
pub const GOODPUT: &str = "goodput_tps";
pub const SETUP: &str = "setup_s";
pub const PEAK_RSS: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: TPUT,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "units of user work completed per second of a repetition: committed transactions (engine, dist saturation leg, load overload leg) or Chapter 5 replays",
    },
    EndToEnd {
        name: LAT_P50,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency of one unit of work: first begin to successful commit with retries (engine), due arrival to commit (dist paced leg, load nominal leg), one replay (spec)",
    },
    EndToEnd {
        name: GOODPUT,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "units completed inside the workload's latency limit per second: 1 ms (engine), 20 ms (dist paced leg), the 50 ms deadline on the overload leg (load), 1 s (spec)",
    },
    EndToEnd {
        name: SETUP,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation plus bringing the system to the state a repetition starts from: engine build and preload, a 500-txn pipeline bring-up, schedule generation, library load",
    },
    EndToEnd {
        name: PEAK_RSS,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak resident set of the process that ran the workload (VmHWM)",
    },
];

/// A metric of one layer (layer = crate), reported by the traced run
/// and never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads whose traced run measures it; it reads 0 elsewhere.
    pub on: &'static [&'static str],
    /// `(end-to-end metric, workload)` pairs it is expected to move.
    /// Empty means "predicts no end-to-end change" and `note` says why
    /// it is kept.
    pub moves: &'static [(&'static str, &'static str)],
    pub note: &'static str,
}

impl PerLayer {
    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields at least one part")
    }
}

const ENGINES: &[&str] = &[UNIFORM, ZIPF, SI];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static [(&'static str, &'static str)],
    note: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, on, moves, note }
}

use Better::{Higher, Lower};

const WRITE_PATH: &[(&str, &str)] = &[(TPUT, UNIFORM), (LAT_P50, UNIFORM)];
const READ_PATH: &[(&str, &str)] = &[(TPUT, ZIPF), (TPUT, SI)];
const COMMIT_PATH: &[(&str, &str)] =
    &[(TPUT, UNIFORM), (TPUT, ZIPF), (TPUT, SI), (LAT_P50, UNIFORM)];
const SI_ONLY: &[(&str, &str)] = &[(TPUT, SI), (LAT_P50, SI)];
const DEVICE: &[(&str, &str)] = &[(GOODPUT, LOAD), (LAT_P50, LOAD)];
const ADMISSION: &[(&str, &str)] = &[(GOODPUT, LOAD), (LAT_P50, LOAD)];
const WAL_PATH: &[(&str, &str)] = &[(TPUT, UNIFORM), (TPUT, DIST)];
const PIPELINE: &[(&str, &str)] = &[(TPUT, DIST), (LAT_P50, DIST)];
const REPLAY: &[(&str, &str)] = &[(TPUT, SPEC), (LAT_P50, SPEC)];
const ALL_TPUT: &[(&str, &str)] = &[(TPUT, UNIFORM), (TPUT, ZIPF), (TPUT, SI)];

pub const PER_LAYER: [PerLayer; 73] = [
    // engine: spans around Engine::begin and Txn::{read, write, commit}, one client
    pl("engine.begin_ns", "ns", Lower, ENGINES, ALL_TPUT, "mean self time per call; snapshot registration on si-zipf"),
    pl("engine.begin_p99_ns", "ns", Lower, ENGINES, &[], "tail of the call with one client; no end-to-end tail is gated"),
    pl("engine.begin_calls_per_txn", "count", Lower, ENGINES, &[], "exactly 1 with one client; retries would add to it"),
    pl("engine.read_ns", "ns", Lower, ENGINES, READ_PATH, "shared-lock path on the 2PL workloads, version-chain path on si-zipf"),
    pl("engine.read_p99_ns", "ns", Lower, ENGINES, &[], "tail of the call with one client"),
    pl("engine.read_calls_per_txn", "count", Lower, ENGINES, &[], "exact with one client: the spec mix"),
    pl("engine.write_ns", "ns", Lower, ENGINES, WRITE_PATH, "exclusive lock + WAL append + store + undo; buffered under si-zipf"),
    pl("engine.write_p99_ns", "ns", Lower, ENGINES, &[], "tail of the call with one client"),
    pl("engine.write_calls_per_txn", "count", Lower, ENGINES, &[], "exact with one client: the spec mix"),
    pl("engine.commit_ns", "ns", Lower, ENGINES, COMMIT_PATH, "commit record, force at 0 us (record encoding), lock release; certify + install + gc on si-zipf"),
    pl("engine.commit_p99_ns", "ns", Lower, ENGINES, &[], "tail of the call with one client (log buffer growth)"),
    pl("engine.commit_calls_per_txn", "count", Lower, ENGINES, &[], "exactly 1 with one client"),
    // engine: the same specs from two clients (traced run only)
    pl("engine.abort_ns", "ns", Lower, ENGINES, &[], "two clients: undo + lock release of a deadlock or certification victim; one client never aborts"),
    pl("engine.abort_p99_ns", "ns", Lower, ENGINES, &[], "two clients"),
    pl("engine.abort_calls_per_txn", "count", Lower, ENGINES, &[], "two clients: wasted transactions per committed one"),
    pl("engine.lock_conflicts_per_txn", "count", Lower, ENGINES, &[], "two clients: blocked lock requests; moves engine.scale_2over1"),
    pl("engine.deadlocks_per_ktxn", "count", Lower, ENGINES, &[], "two clients: cycles found in the waits-for graph"),
    pl("engine.cert_aborts_per_ktxn", "count", Lower, ENGINES, &[], "two clients: first-committer-wins losers on si-zipf"),
    pl("engine.retry_frac", "ratio", Lower, ENGINES, &[], "two clients: retries / transactions begun, the wasted work"),
    pl("engine.lat_p99_us", "us", Lower, ENGINES, &[], "two clients: p99 of first begin to commit; lat_p99_us was demoted from end-to-end (see README)"),
    pl("engine.scale_2over1", "ratio", Higher, ENGINES, &[], "sustained two-client over one-client tput_tps; below 1 at the seed (a lock convoy) and bistable, which is why one client runs end to end"),
    // engine: counts per committed transaction from metrics_snapshot(), one client
    pl("engine.read_lock_acq_per_txn", "count", Lower, ENGINES, &[(TPUT, ZIPF)], "exact; must be 0 on engine-si-zipf"),
    pl("engine.wal_records_per_txn", "count", Lower, ENGINES, COMMIT_PATH, "exact"),
    pl("engine.wal_forces_per_commit", "ratio", Lower, ENGINES, DEVICE, "1.0 with per-commit force; batching only pays with the device on"),
    pl("engine.wal_bytes_per_txn", "B", Lower, ENGINES, &[], "exact; durable log bytes per committed transaction; demoted from end-to-end (not defined on every workload); catches a format change that buys speed with space"),
    pl("engine.gc_handoff_ratio", "ratio", Higher, &[UNIFORM], DEVICE, "group_commit true over false at zero latency: the log-writer hand-off alone"),
    pl("engine.pool_handoff_ns", "ns", Lower, &[LOAD], DEVICE, "Pool::submit to job start"),
    pl("engine.pool_try_submit_ns", "ns", Lower, &[LOAD], ADMISSION, ""),
    // mvcc: probes on a 10 000-item MvccStore, counts from engine-si-zipf
    pl("mvcc.snapshot_open_close_ns", "ns", Lower, &[SI], SI_ONLY, "nothing on the 2PL workloads"),
    pl("mvcc.read_at_ns", "ns", Lower, &[SI], SI_ONLY, "chain depth 1"),
    pl("mvcc.read_at_deep_ns", "ns", Lower, &[SI], SI_ONLY, "chain depth 8"),
    pl("mvcc.install_ns", "ns", Lower, &[SI], SI_ONLY, "commit_lock + install + advance"),
    pl("mvcc.gc_ns_per_version", "ns", Lower, &[SI], SI_ONLY, ""),
    pl("mvcc.versions_installed_per_txn", "count", Lower, &[SI], SI_ONLY, ""),
    pl("mvcc.gc_collected_frac", "ratio", Higher, &[SI], &[(PEAK_RSS, SI)], "collected / installed"),
    // txn: probes on the model primitives the engine layers over
    pl("txn.wal_append_ns", "ns", Lower, &[UNIFORM], WAL_PATH, "ForcedWal::append"),
    pl("txn.wal_force_ns_per_rec", "ns", Lower, &[UNIFORM], WAL_PATH, "record encoding dominates at 0 us"),
    pl("txn.wal_bytes_per_update", "B", Lower, &[UNIFORM], &[(PEAK_RSS, UNIFORM)], "moves engine.wal_bytes_per_txn"),
    pl("txn.wal_recover_ns_per_rec", "ns", Lower, &[UNIFORM], &[], "from_bytes_lossy + recover over the workload's own image; recovery time is no end-to-end metric here"),
    pl("txn.lock_acquire_release_ns", "ns", Lower, &[UNIFORM], &[], "model LockManager, uncontended round of 8 locks over a 64-item table (release_all is linear in the table); the engine has its own lock table, so no end-to-end change until they merge"),
    pl("txn.zipf_next_ns", "ns", Lower, &[UNIFORM], &[(SETUP, LOAD)], "the repository's picker; the benchmark draws its own keys"),
    // commit
    pl("commit.scenario_3pc_us", "us", Lower, &[DIST], PIPELINE, "run_scenario, 2 cohorts, failure-free, on the simulator"),
    pl("commit.scenario_msgs", "count", Lower, &[DIST], PIPELINE, "exact"),
    // dist: from PipelineOutcome
    pl("dist.settle_ms", "ms", Lower, &[DIST], PIPELINE, "saturation leg"),
    pl("dist.verify_ms_per_ktxn", "ms", Lower, &[DIST], &[], "call wall time minus settle: set-up, teardown and oracle evaluation, super-linear at the seed; campaign wall time, not user-visible"),
    pl("dist.sends_per_txn", "count", Lower, &[DIST], PIPELINE, ""),
    pl("dist.trace_events_per_txn", "count", Lower, &[DIST], PIPELINE, "the recorder is always on in run_pipeline"),
    pl("dist.wal_forces_per_commit", "ratio", Lower, &[DIST], &[], "per-batch force amortisation; pays only with a device latency"),
    pl("dist.stream_8k_tps", "1/s", Higher, &[DIST], &[(TPUT, DIST)], "one 8 000-txn saturation repetition: throughput falls with stream length at the seed"),
    pl("dist.lat_paced_p99_us", "us", Lower, &[DIST], &[], "paced-leg p99; demoted from end-to-end like the other p99s"),
    pl("dist.fabric_route_ns", "ns", Lower, &[DIST], PIPELINE, "SimTransport::send + advance per message"),
    // load
    pl("load.shed_frac", "ratio", Lower, &[LOAD], ADMISSION, "overload leg"),
    pl("load.deadline_missed_frac", "ratio", Lower, &[LOAD], ADMISSION, "overload leg"),
    pl("load.nominal_forces_per_commit", "ratio", Lower, &[LOAD], DEVICE, "group-commit batching at 3 000 txn/s"),
    pl("load.nominal_lat_p99_us", "us", Lower, &[LOAD], &[], "p99 from due arrival on the nominal leg; demoted from end-to-end (host stalls decide it)"),
    pl("load.overload_lat_p50_us", "us", Lower, &[LOAD], ADMISSION, "median latency of the transactions admitted under overload: the queueing delay the bounded queue allows"),
    pl("load.schedule_gen_ns_per_arrival", "ns", Lower, &[LOAD], &[(SETUP, LOAD)], ""),
    pl("load.simulate_ns_per_arrival", "ns", Lower, &[LOAD], &[], "virtual-clock replay of the admission machinery; a planning tool, not on the live path"),
    // trace, prof, obs
    pl("trace.record_ns", "ns", Lower, &[DIST], &[(TPUT, DIST)], "unbounded recorder, always on in run_pipeline"),
    pl("trace.record_ring_ns", "ns", Lower, &[DIST], &[], "ring recorder; off in every end-to-end run"),
    pl("trace.check_ns_per_event", "ns", Lower, &[DIST], &[], "happens-before audit over one dist-pipeline trace; part of dist.verify_ms_per_ktxn"),
    pl("trace.engine_on_ratio", "ratio", Higher, &[UNIFORM], &[], "tput_tps with a ring Recorder + Profiler installed over without: the <= 1.05x gate of ROADMAP item 5; tracing is off end to end"),
    pl("prof.record_ns", "ns", Lower, &[UNIFORM], &[], "off in every end-to-end run"),
    pl("obs.hist_record_ns", "ns", Lower, &[UNIFORM], &[], "off in every end-to-end run"),
    // core, logic, blocks
    pl("blocks.library_load_us", "us", Lower, &[SPEC], &[(SETUP, SPEC)], ""),
    pl("blocks.replay_ms", "ms", Lower, &[SPEC], REPLAY, "one full Chapter 5 replay; demoted from end-to-end (it is lat_p50_us of spec-verify)"),
    pl("core.colimit_us", "us", Lower, &[SPEC], REPLAY, "the last Chapter 5 diagram (RCOV)"),
    pl("logic.prove_ms.serialize", "ms", Lower, &[SPEC], REPLAY, ""),
    pl("logic.prove_ms.csm", "ms", Lower, &[SPEC], REPLAY, ""),
    pl("logic.prove_ms.rbr", "ms", Lower, &[SPEC], REPLAY, ""),
    pl("logic.clauses_generated", "count", Lower, &[SPEC], REPLAY, "exact"),
    // the benchmark itself
    pl("bench.span_overhead_frac", "ratio", Lower, &[UNIFORM, ZIPF, SI, DIST, LOAD, SPEC], &[], "1 - traced/untraced tput_tps: the error bar on the span numbers; off the engine workloads a run records a handful of spans, so it shows run-to-run noise"),
    pl("bench.fail_frac", "ratio", Lower, &[UNIFORM, ZIPF, SI, DIST, LOAD, SPEC], &[], "failed / attempted; demoted from end-to-end (0 on a healthy run) and carried by the result line's attempted and failed"),
];

/// Names are letters, digits, `_`, `.`, `-`, start with a letter or
/// digit, and are at most 64 characters.
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are letters, digits, `_`, `/`, `%`, `.`, `-`, at most 16.
pub fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `BENCHMARK.json`, generated from the tables above and the workload
/// table (`benchmark manifest` prints it).
pub fn manifest(run_seconds: u32) -> Json {
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(name_ok(name), "{name} is not a well-formed name");
    }
    let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(unit_ok(unit), "{unit} is not a well-formed unit");
    }
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric definitions and the layer ledger as markdown tables
/// (`benchmark describe`; the README's tables are this output).
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "| workload | why |\n|---|---|");
    for w in &WORKLOADS {
        let _ = writeln!(s, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        s,
        "\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    let _ = writeln!(
        s,
        "\n| per-layer metric | unit | better | measured on | should move | note |\n|---|---|---|---|---|---|"
    );
    for m in &PER_LAYER {
        let moves = if m.moves.is_empty() {
            "nothing end to end".to_owned()
        } else {
            let pairs: Vec<_> = m.moves.iter().map(|(e, w)| format!("`{e}` on `{w}`")).collect();
            pairs.join(", ")
        };
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | {moves} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.on.join(", "),
            m.note
        );
    }
    s
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn workload_exists(name: &str) -> bool {
        WORKLOADS.iter().any(|w| w.name == name)
    }

    #[test]
    fn declared_sets_respect_the_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end(SETUP).expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn names_are_used_once_across_all_tables() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is declared twice");
        }
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        for m in &PER_LAYER {
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            assert!(m.on.iter().all(|w| workload_exists(w)), "{}", m.name);
            for (metric, workload) in m.moves {
                assert!(end_to_end(metric).is_some(), "{} moves unknown {metric}", m.name);
                assert!(workload_exists(workload), "{} moves unknown {workload}", m.name);
            }
            assert!(
                !m.moves.is_empty() || !m.note.is_empty(),
                "{} predicts no change and does not say why it is kept",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` at the repo root is exactly what the tables
    /// generate: every emitted workload and metric name is declared.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let seconds = on_disk.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(seconds, crate::DEFAULT_SECONDS, "run_seconds is the default budget");
        assert_eq!(
            on_disk,
            manifest(seconds as u32),
            "regenerate with `benchmark/run.sh manifest`"
        );
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(name_ok("logic.prove_ms.csm") && name_ok("engine-2pl-zipf") && name_ok("9lives"));
        assert!(
            !name_ok("") && !name_ok(".hidden") && !name_ok("a b") && !name_ok(&"x".repeat(65))
        );
        assert!(unit_ok("1/s") && unit_ok("us") && unit_ok("%"));
        assert!(!unit_ok("") && !unit_ok("per second") && !unit_ok(&"u".repeat(17)));
    }
}
