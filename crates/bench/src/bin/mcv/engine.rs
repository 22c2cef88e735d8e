//! `mcv engine …`: the concurrent transaction engine judged by the
//! thesis' own oracles — a tuned run, the `./ci` smokes, the anomaly
//! campaign and the replay of its shrunk counterexample. The gates'
//! seed base is `--seed-base`, else `--seed`, else 42.

use mcv_bench::cli::{self, Args};
use mcv_bench::group_commit_driver;
use mcv_chaos::{detect_anomalies, AnomalyArtifact, AnomalyReport};
use mcv_engine::{
    run_driver, DriverConfig, DriverReport, EngineConfig, IsolationLevel, Mix, WorkloadKind,
};
use mcv_txn::{Dependency, Isolation};
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
             forces/commits={}/{} admission={:.1}ms oracles={:.1}ms",
            report.committed,
            report.serializable,
            report.recovered_matches,
            report.bank_invariant_ok,
            report.forces,
            report.commits,
            report.elapsed_ns as f64 / 1e6,
            report.oracle_ns as f64 / 1e6,
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

/// The isolation-matrix gate: a read-heavy run per level, recorded in
/// full. Every level must commit everything, replay from the WAL and
/// keep its promise (2PL and SSI Serializable, SI SnapshotIsolation, RC
/// ReadCommitted); MVCC levels must serve all reads from version chains
/// (zero shared-lock traffic).
fn mvcc_smoke(base: u64) -> bool {
    for (i, isolation) in LEVELS.into_iter().enumerate() {
        let mut cfg = DriverConfig {
            txns: 400,
            items: 512,
            workload: read_write(Mix::Zipfian { theta: 0.9 }, 10),
            seed: base + i as u64,
            ..group_commit_driver(200)
        };
        cfg.engine.isolation = isolation;
        let (report, verdicts) = judged_run(&cfg);
        let reads = report.metrics.counter("engine.mvcc.snapshot_reads");
        let read_locks = report.metrics.counter("engine.locks.read_acquisitions");
        let broken = broken_promise(isolation, &report, &verdicts);
        println!(
            "mvcc smoke {:<4} committed={} recovery={} snapshot_reads={} read_locks={} \
             cert_aborts={} {}={}",
            isolation.name(),
            report.committed,
            report.recovered_matches,
            reads,
            read_locks,
            report.metrics.counter("engine.mvcc.cert_aborts"),
            promise(isolation),
            broken.is_none(),
        );
        if report.committed != cfg.txns || !report.recovered_matches {
            eprintln!("mvcc smoke {isolation}: driver oracles failed");
            return false;
        }
        if let Some(why) = broken {
            eprintln!("mvcc smoke {isolation}: {why}");
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
        }
    }
    println!(
        "mvcc smoke: isolation matrix green (every level keeps its promise, zero read locks \
         on every MVCC level)"
    );
    true
}

/// The engine's isolation levels.
const LEVELS: [IsolationLevel; 4] = [
    IsolationLevel::Serializable2pl,
    IsolationLevel::ReadCommitted,
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::SerializableSsi,
];

/// The level an engine isolation level promises.
fn promise(isolation: IsolationLevel) -> Isolation {
    match isolation {
        IsolationLevel::ReadCommitted => Isolation::ReadCommitted,
        IsolationLevel::SnapshotIsolation => Isolation::SnapshotIsolation,
        IsolationLevel::Serializable2pl | IsolationLevel::SerializableSsi => {
            Isolation::Serializable
        }
    }
}

/// Why a judged run breaks its level's promise, if it does. 2PL emits
/// no version events, so its sampled single-version history (the
/// driver's `serializable`) speaks for it; MVCC levels sample nothing.
fn broken_promise(
    isolation: IsolationLevel,
    report: &DriverReport,
    verdicts: &AnomalyReport,
) -> Option<String> {
    let level = promise(isolation);
    if let Some(cycle) = verdicts.violation(level) {
        return Some(format!("violates {level}: {}", render(cycle)));
    }
    (!report.serializable).then(|| "sampled 2PL history not serializable".to_owned())
}

/// A witness cycle on one line.
fn render(cycle: &[Dependency]) -> String {
    cycle.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

/// Runs `cfg` under an unbounded recorder: the driver's report and the
/// verdicts on its trace.
fn judged_run(cfg: &DriverConfig) -> (DriverReport, AnomalyReport) {
    let rec = mcv_trace::Recorder::unbounded();
    let flight = Arc::clone(&rec);
    let report = mcv_trace::with_recorder(rec, || run_driver(cfg));
    (report, detect_anomalies(&flight.snapshot()))
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

/// The campaign's clients, transactions and pairs per run.
const CLIENTS: usize = 3;
const TXNS: u64 = 16;
const PAIRS: usize = 2;

/// The canaries: a weak level whose runs the next stronger check must
/// reject on at least one seed, or that check is dead and would pass any
/// protocol.
const CANARIES: [(IsolationLevel, Isolation); 2] = [
    (IsolationLevel::SnapshotIsolation, Isolation::Serializable),
    (IsolationLevel::ReadCommitted, Isolation::SnapshotIsolation),
];

/// Shrinks the campaign run of `isolation` at `seed` whose verdicts
/// `found` `level` rejects: the smallest (txns, pairs) on a fixed ladder
/// that it still rejects.
fn shrink_run(
    isolation: IsolationLevel,
    level: Isolation,
    (seed, found): (u64, AnomalyReport),
) -> (u64, usize, AnomalyReport) {
    let run = |t, p| judged_run(&anomaly_config(isolation, seed, CLIENTS, t, p)).1;
    let mut best = (TXNS, PAIRS, found);
    for (t, p) in [(12, 2), (8, 2), (8, 1), (4, 1)] {
        if t >= best.0 && p >= best.1 {
            continue;
        }
        let rep = run(t, p);
        if rep.violation(level).is_some() {
            best = (t, p, rep);
        }
    }
    best
}

/// The anomaly campaign over `n` seeds starting at `base`: every level
/// keeps its promise on every run, and each canary fires on some seed;
/// the first firing seed of each is shrunk into an artifact.
fn anomalies(n: u64, base: u64) -> bool {
    let mut fired: [(u64, Option<(u64, AnomalyReport)>); 2] = Default::default();
    let mut failures = 0u64;
    for seed in base..base + n {
        for isolation in LEVELS {
            let cfg = anomaly_config(isolation, seed, CLIENTS, TXNS, PAIRS);
            let (report, verdicts) = judged_run(&cfg);
            if let Some(why) = broken_promise(isolation, &report, &verdicts) {
                eprintln!("seed {seed}: {isolation} {why}");
                failures += 1;
            }
            for (i, &(weak, level)) in CANARIES.iter().enumerate() {
                if weak == isolation && verdicts.violation(level).is_some() {
                    fired[i].0 += 1;
                    fired[i].1.get_or_insert_with(|| (seed, verdicts.clone()));
                }
            }
        }
    }
    let tally: Vec<String> = CANARIES
        .iter()
        .zip(&fired)
        .map(|((weak, level), (runs, _))| format!("{level} rejects {weak} on {runs}/{n} runs"))
        .collect();
    println!(
        "anomaly campaign: {n} seeds from {base}: {}, broken promises={failures}",
        tally.join(", ")
    );
    let mut ok = failures == 0;
    for (&(weak, level), (_, first)) in CANARIES.iter().zip(fired) {
        let Some(first) = first else {
            eprintln!(
                "anomaly campaign: {level} rejected no {weak} run over {n} seeds — check dead?"
            );
            ok = false;
            continue;
        };
        let seed = first.0;
        let (txns, pairs, witnesses) = shrink_run(weak, level, first);
        let artifact =
            AnomalyArtifact::new(level, weak.name(), seed, CLIENTS, txns, pairs, witnesses);
        match artifact.write("target/chaos") {
            Ok(path) => println!(
                "shrunk {weak} run that {level} rejects ({txns} txns, {pairs} pairs): {}\nreplay: {}",
                path.display(),
                mcv_chaos::replay_command("engine", &path.display().to_string())
            ),
            Err(e) => eprintln!("could not write anomaly artifact: {e}"),
        }
    }
    if ok {
        println!("anomaly campaign: every level kept its promise, both canaries fired");
    }
    ok
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
        "replaying {}: {} rejects {}, seed {}, {} clients, {} txns, {} pairs",
        artifact.id,
        artifact.level,
        artifact.isolation,
        artifact.seed,
        artifact.clients,
        artifact.txns,
        artifact.pairs
    );
    for run in 1..=REPLAY_RUNS {
        let (_, verdicts) = judged_run(&cfg);
        if let Some(cycle) = verdicts.violation(artifact.level) {
            println!("reproduced on run {run}: {}", render(cycle));
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
        let a = AnomalyArtifact::new(
            Isolation::Serializable,
            "ssi",
            17,
            2,
            8,
            3,
            AnomalyReport::default(),
        );
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
