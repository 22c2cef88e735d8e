//! `mcv trace …`: record, check and render causal event traces.
//! `record` writes deterministic JSONL (wall-clock stripped: same seed,
//! same bytes); `record-engine` keeps wall-clock so `critical-path` can
//! attribute time along each commit's critical path.

use mcv_bench::cli::{self, Args};
use mcv_chaos::{run_chaos, FaultPlan, Target};
use mcv_commit::Scenario;
use mcv_trace::{CausalTrace, Filter};
use std::path::Path;

pub fn run(args: &Args) -> bool {
    let file = || args.get::<String>("FILE").expect("a required positional");
    let out = || {
        let missing = format!("mcv {}: --out <path> is required", args.command);
        args.get::<String>("--out").unwrap_or_else(|| cli::bad_argument(&missing))
    };
    match args.command {
        "trace record" => record(&out(), args.get("--seed").unwrap_or(0), args.has("--faults")),
        "trace record-engine" => record_engine(
            &out(),
            args.get("--workers").unwrap_or(2),
            args.get("--txns").unwrap_or(5),
        ),
        "trace check" => check(&file()),
        "trace show" => show(&file(), args),
        "trace critical-path" => critical_path(&file(), args.get("--txn")),
        "trace smoke" => smoke(),
        other => unreachable!("`{other}` is not a trace command"),
    }
}

/// Runs a 3-cohort 3PC commit under the simulator, recording the full
/// causal trace, and writes it (wall-clock stripped) as JSONL.
fn record(out: &str, seed: u64, faults: bool) -> bool {
    let mut cfg = Scenario { seed, ..Scenario::default() };
    if faults {
        cfg.schedule = FaultPlan::tolerated(cfg.n_procs(), 300).generate(seed);
    }
    let (outcome, mut trace) = mcv_trace::record_trace(None, || run_chaos(&cfg));
    trace.strip_wall();
    if let Err(e) = trace.write_jsonl(Path::new(out)) {
        eprintln!("trace record: cannot write {out}: {e}");
        return false;
    }
    println!(
        "recorded {} events ({} oracles pass) -> {out}",
        trace.len(),
        outcome.oracles.iter().filter(|o| o.pass).count()
    );
    true
}

/// Runs a small multi-threaded engine workload under a recorder and
/// writes the trace. Wall-clock is kept so `critical-path` can show
/// where commit latency went.
fn record_engine(out: &str, workers: u64, txns: u64) -> bool {
    use mcv_engine::{Engine, EngineConfig};
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
    if let Err(e) = trace.write_jsonl(Path::new(out)) {
        eprintln!("trace record-engine: cannot write {out}: {e}");
        return false;
    }
    println!("recorded {} events from {workers} workers -> {out}", trace.len());
    true
}

/// Reads a recorded trace, printing why it cannot.
fn load(path: &str) -> Option<CausalTrace> {
    let read = CausalTrace::read_jsonl(Path::new(path));
    read.map_err(|e| eprintln!("mcv trace: cannot read {path}: {e}")).ok()
}

/// Happens-before audit of a recorded trace; nonzero exit on violation.
fn check(path: &str) -> bool {
    let Some(trace) = load(path) else { return false };
    let report = mcv_trace::check(&trace);
    println!("{}", report.summary().trim_end());
    if let Some(divergence) = mcv_trace::explain_divergence(&trace) {
        println!("{divergence}");
    }
    report.ok()
}

/// Renders swimlanes (default) or one transaction's causal path.
fn show(path: &str, args: &Args) -> bool {
    let Some(trace) = load(path) else { return false };
    if let Some(txn) = args.get("--causal-path") {
        print!("{}", mcv_trace::render_causal_path(&trace, txn));
        return true;
    }
    let mut filter = Filter::default();
    for spec in args.all("--filter") {
        if let Err(e) = filter.parse_arg(spec) {
            cli::bad_argument(&format!("mcv trace show: {e}"));
        }
    }
    print!("{}", mcv_trace::swimlanes(&trace, &filter));
    true
}

/// Weighted critical-path analysis: the longest causal chain behind
/// each commit decision, with wall time attributed to typed phases.
/// Needs a trace recorded with wall-clock kept (`record-engine`, or a
/// `run_pipeline` trace) — stripped traces carry no edge weights.
fn critical_path(path: &str, txn: Option<u64>) -> bool {
    const STRIPPED: &str = "the trace was recorded wall-stripped (re-record with \
                            `mcv trace record-engine`, which keeps wall-clock)";
    let Some(trace) = load(path) else { return false };
    let committed = mcv_prof::committed_txns(&trace);
    if committed.is_empty() {
        eprintln!("trace critical-path: no commit decisions in {path}");
        return false;
    }
    if let Some(txn) = txn {
        return match mcv_prof::commit_path(&trace, txn) {
            Some(p) => {
                print!("{}", p.render());
                true
            }
            None => {
                eprintln!(
                    "trace critical-path: no weighted path for txn {txn} — either it never \
                     committed, or {STRIPPED}"
                );
                false
            }
        };
    }
    let (table, paths) = mcv_prof::attribute_commits(&trace);
    if paths.is_empty() {
        eprintln!(
            "trace critical-path: {} committed txn(s) but no weighted paths — {STRIPPED}",
            committed.len()
        );
        return false;
    }
    println!("{} commit path(s) over {} events", paths.len(), trace.len());
    print!("{}", table.render());
    true
}

/// CI gate: record a short 3PC run, check happens-before, and render
/// both views; any failure is a nonzero exit.
fn smoke() -> bool {
    let dir = std::env::temp_dir().join(format!("mcv-trace-smoke-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("trace smoke: cannot create {}: {e}", dir.display());
        return false;
    }
    let out = dir.join("smoke.jsonl").to_string_lossy().into_owned();
    if !record(&out, 0, false) {
        return false;
    }
    if !check(&out) {
        eprintln!("trace smoke: happens-before check FAILED");
        return false;
    }
    let trace = load(&out).expect("just written");
    let lanes = mcv_trace::swimlanes(&trace, &Filter::default());
    let path1 = mcv_trace::render_causal_path(&trace, 1);
    let _ = std::fs::remove_dir_all(&dir);
    if !path1.contains("COMMIT") {
        eprintln!("trace smoke: causal path of txn 1 has no commit decision:\n{path1}");
        return false;
    }
    println!(
        "swimlanes: {} lines; causal path: {} lines",
        lanes.lines().count(),
        path1.lines().count()
    );
    println!("trace smoke OK");
    true
}
