//! `mcv engine …`: the concurrent transaction engine judged by the
//! thesis' own oracles — a tuned run, the `./ci` smokes, the anomaly
//! campaign and the replay of its shrunk counterexample. The gates'
//! seed base is `--seed-base`, else `--seed`, else 42.

use mcv_bench::cli::{self, Args};
use mcv_bench::group_commit_driver;
use mcv_chaos::{detect_anomalies, AnomalyArtifact, AnomalyReport};
use mcv_engine::{run_driver, DriverConfig, EngineConfig, IsolationLevel, Mix, WorkloadKind};
use std::sync::Arc;

pub fn run(args: &Args) -> bool {
    let base = args.get("--seed-base").or(args.get("--seed")).unwrap_or(42);
    match args.command {
        "engine run" => run_once(args),
        "engine smoke" => smoke(base),
        "engine mvcc-smoke" => mvcc_smoke(base),
        "engine anomalies" => anomalies(args.get("N").expect("a required positional"), base),
        "engine replay" => replay(&args.get::<String>("FILE").expect("a required positional")),
        other => unreachable!("`{other}` is not an engine command"),
    }
}

fn read_write(mix: Mix, write_pct: u8) -> WorkloadKind {
    WorkloadKind::ReadWrite { mix, write_pct, ops_per_txn: 8 }
}

/// Writes the flight-recorder window to `target/chaos/<id>.trace.jsonl`
/// and prints where the happens-before audit localizes the problem.
fn dump_flight(rec: &Arc<mcv_trace::Recorder>, id: &str) {
    let trace = rec.snapshot();
    let _ = std::fs::create_dir_all("target/chaos");
    let path = std::path::Path::new("target/chaos").join(format!("{id}.trace.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("flight recorder: {} ({} events)", path.display(), trace.len()),
        Err(e) => eprintln!("could not write flight-recorder dump: {e}"),
    }
    let hb = mcv_trace::check(&trace);
    if !hb.ok() {
        eprint!("{}", hb.summary());
    }
}

fn run_once(args: &Args) -> bool {
    let theta: f64 = args.get("--zipf").unwrap_or(0.9);
    if !(0.0..1.0).contains(&theta) {
        cli::bad_argument(&format!("--zipf: theta {theta} not in [0, 1)"));
    }
    let isolation = args.get("--isolation").unwrap_or(IsolationLevel::Serializable2pl);
    let mut cfg = group_commit_driver(args.get("--force-us").unwrap_or(300));
    cfg.engine.isolation = isolation;
    if args.has("--no-group-commit") {
        (cfg.engine.group_commit, cfg.engine.group_window_us) = (false, 0);
    }
    cfg.engine.shards = args.get("--shards").unwrap_or(16);
    cfg.clients = args.get("--threads").unwrap_or(4);
    cfg.txns = args.get("--txns").unwrap_or(2_000);
    cfg.items = args.get("--items").unwrap_or(2_048);
    cfg.seed = args.get("--seed").unwrap_or(42);
    cfg.workload = match args.get::<String>("--workload").as_deref() {
        Some("zipf") => read_write(Mix::Zipfian { theta }, 50),
        Some("readheavy") => read_write(Mix::Zipfian { theta }, 10),
        Some("bank") => WorkloadKind::BankTransfer,
        Some("writeskew") => WorkloadKind::WriteSkew { pairs: (cfg.items / 2).max(1) },
        _ => read_write(Mix::Uniform, 50),
    };
    println!(
        "engine run: {} threads, {} shards, {} txns, {} items, {} us force, \
         group commit {}, isolation {}",
        cfg.clients,
        cfg.engine.shards,
        cfg.txns,
        cfg.items,
        cfg.engine.force_latency_us,
        cfg.engine.group_commit,
        isolation,
    );
    // Flight recorder: the run records causal events into a bounded
    // ring; on oracle failure the last-N window is dumped for triage.
    let rec = mcv_trace::Recorder::ring(mcv_chaos::FLIGHT_RECORDER_CAP);
    let flight = Arc::clone(&rec);
    let (report, data) = mcv_trace::with_recorder(rec, || {
        mcv_obs::collect(|| {
            let report = run_driver(&cfg);
            mcv_obs::absorb(&report.metrics);
            report
        })
    });
    println!("\n{}\n", report.summary());
    if isolation.is_mvcc() {
        for (name, v) in report.metrics.family("engine.mvcc.") {
            println!("{name:<32} {v}");
        }
        println!(
            "{:<32} {}",
            "engine.locks.read_acquisitions",
            report.metrics.counter("engine.locks.read_acquisitions")
        );
    }
    println!("{}", data.into_report("engine.run").fact("seed", cfg.seed).summary());
    if !report.oracles_ok() {
        eprintln!("ORACLE VIOLATION — see report above");
        dump_flight(&flight, "engine_run");
    }
    report.oracles_ok()
}

fn smoke(seed: u64) -> bool {
    // Short fixed-seed runs of each workload shape on 4 threads; all
    // oracles must pass and group commit must actually batch. Each
    // shape offsets the seed so no two shapes share one.
    let shapes = [
        ("uniform", read_write(Mix::Uniform, 50), 512),
        ("zipf", read_write(Mix::Zipfian { theta: 0.9 }, 50), 512),
        ("bank", WorkloadKind::BankTransfer, 32),
    ];
    for (i, (name, workload, items)) in shapes.into_iter().enumerate() {
        let cfg = DriverConfig {
            txns: 400,
            items,
            workload,
            seed: seed + i as u64,
            ..group_commit_driver(200)
        };
        let rec = mcv_trace::Recorder::ring(mcv_chaos::FLIGHT_RECORDER_CAP);
        let flight = Arc::clone(&rec);
        let report = mcv_trace::with_recorder(rec, || run_driver(&cfg));
        println!(
            "smoke {name:<8} committed={} serializable={} recovery={} bank={:?} \
             forces/commits={}/{}",
            report.committed,
            report.serializable,
            report.recovered_matches,
            report.bank_invariant_ok,
            report.forces,
            report.commits,
        );
        if !report.oracles_ok() {
            eprintln!("smoke {name}: ORACLE VIOLATION");
            dump_flight(&flight, &format!("engine_smoke_{name}"));
            return false;
        }
        if report.forces >= report.commits {
            eprintln!("smoke {name}: group commit did not batch");
            return false;
        }
    }
    println!("engine smoke: all oracles green");
    true
}

/// The isolation-matrix gate: a read-heavy run per level. Every level
/// must commit everything and replay from the WAL; MVCC levels must
/// serve all reads from version chains (zero shared-lock traffic).
fn mvcc_smoke(base: u64) -> bool {
    let levels = [
        IsolationLevel::Serializable2pl,
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::SerializableSsi,
    ];
    for (i, isolation) in levels.into_iter().enumerate() {
        let mut cfg = DriverConfig {
            txns: 400,
            items: 512,
            workload: read_write(Mix::Zipfian { theta: 0.9 }, 10),
            seed: base + i as u64,
            ..group_commit_driver(200)
        };
        cfg.engine.isolation = isolation;
        let report = run_driver(&cfg);
        let reads = report.metrics.counter("engine.mvcc.snapshot_reads");
        let read_locks = report.metrics.counter("engine.locks.read_acquisitions");
        println!(
            "mvcc smoke {:<4} committed={} recovery={} snapshot_reads={} read_locks={} \
             cert_aborts={}",
            isolation.name(),
            report.committed,
            report.recovered_matches,
            reads,
            read_locks,
            report.metrics.counter("engine.mvcc.cert_aborts"),
        );
        if report.committed != cfg.txns || !report.recovered_matches {
            eprintln!("mvcc smoke {isolation}: driver oracles failed");
            return false;
        }
        if isolation.is_mvcc() {
            if reads == 0 {
                eprintln!("mvcc smoke {isolation}: no reads served from version chains");
                return false;
            }
            if read_locks != 0 {
                eprintln!("mvcc smoke {isolation}: snapshot reads acquired {read_locks} locks");
                return false;
            }
        } else if !report.serializable {
            eprintln!("mvcc smoke {isolation}: 2PL history not serializable");
            return false;
        }
    }
    println!("mvcc smoke: isolation matrix green (zero read locks on every MVCC level)");
    true
}

/// One anomaly-campaign run: a tiny write-skew workload.
fn anomaly_config(
    isolation: IsolationLevel,
    seed: u64,
    clients: usize,
    txns: u64,
    pairs: usize,
) -> DriverConfig {
    DriverConfig {
        engine: EngineConfig {
            shards: 4,
            group_commit: false,
            // A modeled force latency stretches every commit, widening
            // the window in which concurrent transactions snapshot
            // before this one's versions install — which is exactly
            // the overlap write skew needs.
            force_latency_us: 100,
            group_window_us: 0,
            isolation,
            ..Default::default()
        },
        clients,
        txns,
        items: 2 * pairs,
        workload: WorkloadKind::WriteSkew { pairs },
        seed,
    }
}

/// The detectors' verdict over the causal trace of one run.
fn anomaly_run(cfg: &DriverConfig) -> AnomalyReport {
    let rec = mcv_trace::Recorder::unbounded();
    let flight = Arc::clone(&rec);
    mcv_trace::with_recorder(rec, || run_driver(cfg));
    detect_anomalies(&flight.snapshot())
}

/// The campaign's clients, transactions and pairs per run.
const CLIENTS: usize = 3;
const TXNS: u64 = 16;
const PAIRS: usize = 2;

/// Shrinks a write-skew repro at `seed`: smallest (txns, pairs) on a
/// fixed ladder that still witnesses the anomaly.
fn shrink_skew(seed: u64) -> (u64, usize, AnomalyReport) {
    let si =
        |t, p| anomaly_run(&anomaly_config(IsolationLevel::SnapshotIsolation, seed, CLIENTS, t, p));
    let mut best = (TXNS, PAIRS, si(TXNS, PAIRS));
    for (t, p) in [(12, 2), (8, 2), (8, 1), (4, 1)] {
        if t >= best.0 && p >= best.1 {
            continue;
        }
        let rep = si(t, p);
        if !rep.write_skews.is_empty() {
            best = (t, p, rep);
        }
    }
    best
}

/// The anomaly campaign over `n` seeds starting at `base`.
fn anomalies(n: u64, base: u64) -> bool {
    let mut si_skews = 0u64;
    let mut si_first: Option<u64> = None;
    let mut failures = 0u64;
    for seed in base..base + n {
        let at = |isolation| anomaly_run(&anomaly_config(isolation, seed, CLIENTS, TXNS, PAIRS));
        // SI may exhibit write skew (that's the finding); it must never
        // long-fork. SSI and 2PL must be clean outright. RC exercises
        // the long-fork detector; any verdict is legal there.
        let si = at(IsolationLevel::SnapshotIsolation);
        if !si.write_skews.is_empty() {
            si_skews += si.write_skews.len() as u64;
            si_first.get_or_insert(seed);
        }
        if !si.long_forks.is_empty() {
            eprintln!("seed {seed}: long fork under SI — snapshots must be totally ordered");
            failures += 1;
        }
        let ssi = at(IsolationLevel::SerializableSsi);
        if !ssi.clean() {
            eprintln!("seed {seed}: anomaly under SSI: {ssi:?}");
            failures += 1;
        }
        let tpl = at(IsolationLevel::Serializable2pl);
        if !tpl.clean() {
            eprintln!("seed {seed}: anomaly under 2PL: {tpl:?}");
            failures += 1;
        }
        at(IsolationLevel::ReadCommitted);
    }
    println!(
        "anomaly campaign: {n} seeds from {base}: SI write skews={si_skews}, \
         SSI/2PL violations={failures}"
    );
    if let Some(seed) = si_first {
        let (txns, pairs, witnesses) = shrink_skew(seed);
        let si = IsolationLevel::SnapshotIsolation.name();
        let artifact =
            AnomalyArtifact::new("write_skew", si, seed, CLIENTS, txns, pairs, witnesses);
        match artifact.write("target/chaos") {
            Ok(path) => println!(
                "shrunk SI counterexample ({txns} txns, {pairs} pairs): {}\nreplay: {}",
                path.display(),
                mcv_chaos::replay_command("engine", &path.display().to_string())
            ),
            Err(e) => eprintln!("could not write anomaly artifact: {e}"),
        }
    }
    if si_skews == 0 {
        eprintln!("anomaly campaign: SI produced no write skew over {n} seeds — detector dead?");
        return false;
    }
    if failures == 0 {
        println!("anomaly campaign: SI skews found, SSI and 2PL clean");
    }
    failures == 0
}

/// The run an anomaly artifact records.
fn replay_config(a: &AnomalyArtifact) -> Result<DriverConfig, String> {
    let isolation = a.isolation.parse()?;
    Ok(anomaly_config(isolation, a.seed, a.clients, a.txns, a.pairs))
}

/// Runs allowed for a replay: the clients are real threads, so one
/// interleaving may miss the overlap the anomaly needs.
const REPLAY_RUNS: usize = 20;

fn replay(path: &str) -> bool {
    let loaded = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let loaded = loaded.and_then(|text| {
        let malformed = |e: String| format!("malformed artifact {path}: {e}");
        let a = AnomalyArtifact::from_json(&text).map_err(|e| malformed(e.to_string()))?;
        Ok((replay_config(&a).map_err(malformed)?, a))
    });
    let (cfg, artifact) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    println!(
        "replaying {}: {} under {}, seed {}, {} clients, {} txns, {} pairs",
        artifact.id,
        artifact.anomaly,
        artifact.isolation,
        artifact.seed,
        artifact.clients,
        artifact.txns,
        artifact.pairs
    );
    for run in 1..=REPLAY_RUNS {
        let report = anomaly_run(&cfg);
        let found = match artifact.anomaly.as_str() {
            "write_skew" => report.write_skews.len(),
            _ => report.long_forks.len(),
        };
        if found > 0 {
            println!("reproduced on run {run}: {report:?}");
            return true;
        }
    }
    println!("did NOT reproduce in {REPLAY_RUNS} runs — artifact and code have diverged");
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replay_runs_exactly_the_recorded_configuration() {
        let a = AnomalyArtifact::new("write_skew", "ssi", 17, 2, 8, 3, AnomalyReport::default());
        let cfg = replay_config(&a).expect("a valid artifact");
        assert_eq!(
            (cfg.engine.isolation.name(), cfg.seed, cfg.clients, cfg.txns, cfg.workload),
            ("ssi", 17, 2, 8, WorkloadKind::WriteSkew { pairs: 3 })
        );
        assert_eq!(cfg.items, 6);
        let bad = AnomalyArtifact { isolation: "serializable-ish".into(), ..a };
        assert!(replay_config(&bad).is_err());
    }
}
