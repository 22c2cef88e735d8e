//! Trace explorer: record, check, and render causal event traces.
//!
//! ```text
//! trace record --out t.jsonl [--seed N] [--faults]   # 3PC run under the simulator
//! trace record-engine --out t.jsonl [--workers N] [--txns N]
//! trace check t.jsonl                                # happens-before audit
//! trace show t.jsonl [--filter site=N|txn=N|kind=K]  # per-site swimlanes
//! trace show t.jsonl --causal-path <txn>             # HB chain of one txn
//! trace critical-path t.jsonl [--txn N]              # weighted commit path + attribution
//! trace smoke                                        # record+check+render, for CI
//! ```
//!
//! `record` emits deterministic JSONL (wall-clock stripped): same seed,
//! same bytes. `record-engine` keeps wall-clock timestamps so
//! `--causal-path` can attribute time along the commit critical path.

use mcv_chaos::{run_chaos, ChaosConfig, FaultPlan, FaultSchedule, Target};
use mcv_trace::{CausalTrace, Filter};
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("record-engine") => record_engine(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("show") => show(&args[1..]),
        Some("critical-path") => critical_path(&args[1..]),
        Some("smoke") => smoke(),
        _ => {
            eprintln!(
                "usage: trace record --out <path> [--seed N] [--faults]\n\
                 \x20      trace record-engine --out <path> [--workers N] [--txns N]\n\
                 \x20      trace check <path>\n\
                 \x20      trace show <path> [--filter k=v]... [--causal-path <txn>]\n\
                 \x20      trace critical-path <path> [--txn N]\n\
                 \x20      trace smoke"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Runs a 3-cohort 3PC commit under the simulator, recording the full
/// causal trace, and writes it (wall-clock stripped) as JSONL.
fn record(args: &[String]) -> i32 {
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("trace record: --out <path> is required");
        return 2;
    };
    let seed = flag_value(args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut cfg = ChaosConfig { seed, ..ChaosConfig::default() };
    if args.iter().any(|a| a == "--faults") {
        cfg.schedule = FaultSchedule::generate(seed, &FaultPlan::tolerated(cfg.n_procs(), 300));
    }
    let (outcome, mut trace) = mcv_trace::record_trace(None, || run_chaos(&cfg));
    trace.strip_wall();
    if let Err(e) = trace.write_jsonl(Path::new(&out)) {
        eprintln!("trace record: cannot write {out}: {e}");
        return 1;
    }
    println!(
        "recorded {} events ({} oracles pass) -> {out}",
        trace.len(),
        outcome.oracles.iter().filter(|o| o.pass).count()
    );
    0
}

/// Runs a small multi-threaded engine workload under a recorder and
/// writes the trace. Wall-clock is kept so `--causal-path` can show
/// where commit latency went.
fn record_engine(args: &[String]) -> i32 {
    use mcv_engine::{Engine, EngineConfig};
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("trace record-engine: --out <path> is required");
        return 2;
    };
    let workers: usize = flag_value(args, "--workers").and_then(|s| s.parse().ok()).unwrap_or(2);
    let txns: u64 = flag_value(args, "--txns").and_then(|s| s.parse().ok()).unwrap_or(5);
    let ((), trace) = mcv_trace::record_trace(None, || {
        let engine = Engine::new(EngineConfig {
            group_commit: true,
            force_latency_us: 200,
            group_window_us: 20,
            ..Default::default()
        });
        let threads: Vec<_> = (0..workers)
            .map(|w| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    for i in 0..txns {
                        let mut t = engine.begin();
                        let r = t
                            .read("ctr")
                            .and_then(|v| t.write("ctr", v + 1))
                            .and_then(|()| t.write(&format!("w{w}.{i}"), i as i64));
                        match r {
                            Ok(()) => t.commit().expect("commit"),
                            Err(_) => t.abort(),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
    });
    if let Err(e) = trace.write_jsonl(Path::new(&out)) {
        eprintln!("trace record-engine: cannot write {out}: {e}");
        return 1;
    }
    println!("recorded {} events from {workers} workers -> {out}", trace.len());
    0
}

fn load(path: &str) -> Result<CausalTrace, String> {
    CausalTrace::read_jsonl(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Happens-before audit of a recorded trace; nonzero exit on violation.
fn check(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("trace check: a trace path is required");
        return 2;
    };
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace check: {e}");
            return 1;
        }
    };
    let report = mcv_trace::check(&trace);
    println!("{}", report.summary().trim_end());
    if let Some(divergence) = mcv_trace::explain_divergence(&trace) {
        println!("{divergence}");
    }
    i32::from(!report.ok())
}

/// Renders swimlanes (default) or one transaction's causal path.
fn show(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("trace show: a trace path is required");
        return 2;
    };
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace show: {e}");
            return 1;
        }
    };
    if let Some(txn) = flag_value(args, "--causal-path") {
        let Ok(txn) = txn.parse::<u64>() else {
            eprintln!("trace show: --causal-path takes a numeric transaction id");
            return 2;
        };
        print!("{}", mcv_trace::render_causal_path(&trace, txn));
        return 0;
    }
    let mut filter = Filter::default();
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if a == "--filter" {
            let Some(spec) = rest.next() else {
                eprintln!("trace show: --filter requires site=N, txn=N, or kind=NAME");
                return 2;
            };
            if let Err(e) = filter.parse_arg(spec) {
                eprintln!("trace show: {e}");
                return 2;
            }
        }
    }
    print!("{}", mcv_trace::swimlanes(&trace, &filter));
    0
}

/// Weighted critical-path analysis: the longest causal chain behind
/// each commit decision, with wall time attributed to typed phases.
/// Needs a trace recorded with wall-clock kept (`record-engine`, or a
/// `run_pipeline` trace) — stripped traces carry no edge weights.
fn critical_path(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("trace critical-path: a trace path is required");
        return 2;
    };
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace critical-path: {e}");
            return 1;
        }
    };
    let committed = mcv_prof::committed_txns(&trace);
    if committed.is_empty() {
        eprintln!("trace critical-path: no commit decisions in {path}");
        return 1;
    }
    if let Some(txn) = flag_value(args, "--txn") {
        let Ok(txn) = txn.parse::<u64>() else {
            eprintln!("trace critical-path: --txn takes a numeric transaction id");
            return 2;
        };
        return match mcv_prof::commit_path(&trace, txn) {
            Some(p) => {
                print!("{}", p.render());
                0
            }
            None => {
                eprintln!(
                    "trace critical-path: no weighted path for txn {txn} — either it never \
                     committed, or the trace was recorded wall-stripped (re-record with \
                     `trace record-engine`, which keeps wall-clock)"
                );
                1
            }
        };
    }
    let (table, paths) = mcv_prof::attribute_commits(&trace);
    if paths.is_empty() {
        eprintln!(
            "trace critical-path: {} committed txn(s) but no weighted paths — the trace was \
             recorded wall-stripped (re-record with `trace record-engine`, which keeps \
             wall-clock)",
            committed.len()
        );
        return 1;
    }
    println!("{} commit path(s) over {} events", paths.len(), trace.len());
    print!("{}", table.render());
    0
}

/// CI gate: record a short 3PC run, check happens-before, and render
/// both views; any failure is a nonzero exit.
fn smoke() -> i32 {
    let dir = std::env::temp_dir().join(format!("mcv-trace-smoke-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("trace smoke: cannot create {}: {e}", dir.display());
        return 1;
    }
    let path: PathBuf = dir.join("smoke.jsonl");
    let out = path.to_string_lossy().into_owned();
    let code = record(&["--out".to_owned(), out.clone()]);
    if code != 0 {
        return code;
    }
    let code = check(std::slice::from_ref(&out));
    if code != 0 {
        eprintln!("trace smoke: happens-before check FAILED");
        return code;
    }
    let trace = load(&out).expect("just written");
    let lanes = mcv_trace::swimlanes(&trace, &Filter::default());
    let path1 = mcv_trace::render_causal_path(&trace, 1);
    let _ = std::fs::remove_dir_all(&dir);
    if !path1.contains("COMMIT") {
        eprintln!("trace smoke: causal path of txn 1 has no commit decision:\n{path1}");
        return 1;
    }
    println!(
        "swimlanes: {} lines; causal path: {} lines",
        lanes.lines().count(),
        path1.lines().count()
    );
    println!("trace smoke OK");
    0
}
