//! The repo benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! benchmark [--seed n] [--seconds s] [--smoke] [--only <name>] [--traced]   every workload, one result file
//! benchmark compare <a.json> <b.json>                                    verdict per workload x metric
//! benchmark manifest                                                      BENCHMARK.json from the tables
//! benchmark describe                                                      the tables as markdown
//! ```
//!
//! `run.sh` builds this binary and forwards its arguments. See
//! `README.md` for what is measured and why.

mod compare;
mod json;
mod metrics;
mod report;
mod run_dist;
mod run_engine;
mod run_load;
mod run_spec;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use workloads::{EngineWorkload, DIST_PIPELINE, LOAD_OPEN_DEVICE, SPEC_VERIFY, WORKLOADS};

/// Budget of a `--smoke` pass per workload, seconds.
const SMOKE_SECONDS: f64 = 1.0;
/// Default budget, the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 42;

/// What one workload run is told.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// How long to measure; repetitions of fixed work continue until
    /// this is used, and shrink below a few seconds (smoke runs).
    pub seconds: f64,
    pub traced: bool,
    /// Where span files and result records go.
    pub out_dir: PathBuf,
}

pub fn per_op_ns(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Share of full size that repetitions run at: full once the budget
/// holds several of them, smaller for smoke runs.
pub fn size_factor(seconds: f64) -> f64 {
    (seconds / 3.0).min(1.0)
}

/// `n` at `factor` of full size, never so small that a half or a
/// quarter of it is empty.
pub fn scaled(n: usize, factor: f64) -> usize {
    ((n as f64 * factor) as usize).max(200)
}

/// Repeats `rep`, which returns what it cost in wall time, until the
/// budget is used and at least twice. The last repetition may end up
/// to one repetition past the budget, never more.
pub fn repeat_for(budget_s: f64, mut rep: impl FnMut() -> Duration) -> usize {
    let mut used = Duration::ZERO;
    let mut reps = 0;
    loop {
        let cost = rep();
        used += cost;
        reps += 1;
        if reps >= 2 && (used + cost).as_secs_f64() > budget_s {
            return reps;
        }
    }
}

/// Median of three runs of a probe.
pub fn probe_median(mut f: impl FnMut() -> f64) -> f64 {
    stats::median(&[f(), f(), f()])
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    out_dir: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--only" => cli.only = Some(value()?.clone()),
            "--seed" => {
                cli.seed = Some(value()?.parse().map_err(|_| "--seed needs a whole number")?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in cli.workload.iter().chain(&cli.only) {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {}", known.join(", ")));
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &Args) -> report::RunResult {
    let mut res = report::RunResult {
        workload: name.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        ..report::RunResult::default()
    };
    let engine = EngineWorkload::by_name(name);
    match (name, engine, args.traced) {
        (_, Some(w), false) => run_engine::untraced(w, args, &mut res),
        (_, Some(w), true) => run_engine::traced(w, args, &mut res),
        (DIST_PIPELINE, _, false) => run_dist::untraced(args, &mut res),
        (DIST_PIPELINE, _, true) => run_dist::traced(args, &mut res),
        (LOAD_OPEN_DEVICE, _, false) => run_load::untraced(args, &mut res),
        (LOAD_OPEN_DEVICE, _, true) => run_load::traced(args, &mut res),
        (SPEC_VERIFY, _, false) => run_spec::untraced(args, &mut res),
        (SPEC_VERIFY, _, true) => run_spec::traced(args, &mut res),
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
    res
}

fn record_path(args: &Args, workload: &str) -> PathBuf {
    args.out_dir.join(format!("run-{workload}-trace{}.json", u8::from(args.traced)))
}

/// One workload in this process: the table, then the contract line as
/// the last line of standard output.
fn single(name: &str, args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let res = run_workload(name, args);
    let path = record_path(args, name);
    if let Err(e) = std::fs::write(&path, res.detail().render_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    print!("{}", res.render());
    println!("{}", res.contract_line());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own so `peak_rss_mb`
/// belongs to one workload; the children's records are merged into one
/// result file.
fn all(cli: &Cli, base: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| cli.only.as_deref().is_none_or(|only| only == *n))
        .collect();
    let passes: &[bool] = if cli.traced { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut runs = Vec::new();
    for &traced in passes {
        for name in &names {
            let args = Args { traced, ..base.clone() };
            let status = std::process::Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir)
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{name} (trace {}) exited with {s}", u8::from(traced));
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot start {name}: {e}");
                    return ExitCode::from(2);
                }
            }
            match std::fs::read_to_string(record_path(&args, name)).map(|t| json::parse(&t)) {
                Ok(Ok(record)) => runs.push(record),
                Ok(Err(e)) => {
                    eprintln!("{name}: unreadable record: {e}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{name}: no record: {e}");
                    ok = false;
                }
            }
        }
    }
    let result = Json::obj([
        ("seed", Json::Num(base.seed as f64)),
        ("seconds", Json::Num(base.seconds)),
        ("cores", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let suffix = if cli.traced { "-traced" } else { "" };
    let path = base.out_dir.join(format!("result-seed{}{suffix}.json", base.seed));
    match std::fs::write(&path, result.render_pretty()) {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest(DEFAULT_SECONDS as u32).render_pretty());
            return ExitCode::SUCCESS;
        }
        Some("describe") => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let args = Args {
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(if cli.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS }),
        traced: cli.trace.unwrap_or(false),
        out_dir: cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("benchmark/out")),
    };
    match &cli.workload {
        Some(name) => single(name, &args),
        None => all(&cli, &args),
    }
}
