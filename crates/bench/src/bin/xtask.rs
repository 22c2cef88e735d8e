//! Repository chores the `./ci` pipeline leans on:
//!
//! ```text
//! xtask docsync                                # doc-inventory lint
//! xtask ci-report <gatelog> [--out <file>] [--flake] [--diff <old-report.json>]
//! xtask pairs <rev-a> <rev-b> --workload <w> --seeds <a>..<b> [--pairs <n>]
//!             [--seconds <s>] [--dir <worktrees>]
//! ```
//!
//! `docsync` fails (exit 1) if any workspace crate is absent from the
//! DESIGN.md crate inventory or the README crate list — the docs drift
//! the moment a crate lands without them — or if none of `./ci`'s
//! `cargo test` invocations runs a workspace crate's tests (an
//! `--exclude` nobody balances with a `-p` silently un-wires a crate),
//! or if a `./ci full --only|--skip <list>` example in the docs names a
//! gate `./ci`'s `FULL_GATES` lacks (the script exits 2 on it), or a
//! documented command runs an `--example` that `examples/` lacks or a
//! `--bin mcv -- <sub>` that `mcv_bench::cli::MCV` lacks, or if
//! a `CHANGES.md` entry tagged `[perf_opt]` has no row in
//! EXPERIMENTS.md's "Performance trajectory" table (a claimed gain
//! nobody can look up did not happen), or if non-test code of any
//! crate parks on a timer anywhere but in the workspace's wait
//! primitive (`crates/engine/src/wait.rs`): a timed park overshoots by
//! more than the intervals the runtimes time (a hop, a device
//! operation, an arrival gap), and the floor that bought came back one
//! call site at a time once already.
//!
//! `ci-report` turns the gate log the `./ci` script accumulates (one
//! `<name> <pass|fail> <seconds>` line per gate) into a summary table
//! on stdout and a machine-readable [`mcv_obs::RunReport`] at `--out`
//! (default `ci-report.json`), with the report's wall-clock fields
//! stripped so identical gate outcomes diff clean; the per-gate wall
//! times survive as facts — they are the report's content. With
//! `--flake`, gates named `<name>@r<round>` are grouped by base name
//! and any gate whose verdict differs between rounds is reported as
//! FLAKY. With `--diff <old-report.json>`, the current gates are
//! compared against a previous `ci-report.json`: verdict flips, per-
//! gate wall-time deltas, and any gate slowing down by more than 2x
//! are called out (informational — the exit code still reflects only
//! this run's verdicts).
//!
//! `pairs` is the measuring rule for a performance claim as one command:
//! it rejects a `--workload` that the root `BENCHMARK.json` does not
//! name before building anything, then checks both revisions out as `git worktree`s under `--dir`
//! (default `target/pairs`; a relative path is taken from the repository
//! root), builds each one's benchmark into its own `CARGO_TARGET_DIR`,
//! then runs the built benchmark binary with `--workload <w>` on one
//! seed per pair, untraced, with the side that runs first alternating
//! from pair to pair. It runs the binary itself, not `run.sh`, so that
//! the kernel's account of the child (`getrusage(RUSAGE_CHILDREN)`,
//! read before and after each run) holds the benchmark's CPU time and
//! context switches and no `cargo build`'s. It prints every run as it
//! finishes and ends with one row per end-to-end metric in
//! EXPERIMENTS.md's "Performance trajectory" format — quartiles on each
//! side, the ratio of medians and the pairs `<rev-b>` won (a `*_tps`
//! metric is better higher, every other lower) — plus two rows of work
//! per operation: `cpu_us_per_op` (user + system CPU per attempted
//! operation) and `invol_switches_per_s` (involuntary context switches
//! per wall second: how often the box took a CPU away from the run).

use mcv_bench::cli::{self, Kind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const XTASK: &[cli::Command] = &[
    cli::Command { path: "docsync", params: &[] },
    cli::Command {
        path: "ci-report",
        params: &[
            ("GATELOG", Kind::Text),
            ("--out", Kind::Text),
            ("--flake", Kind::Switch),
            ("--diff", Kind::Text),
        ],
    },
    cli::Command {
        path: "pairs",
        params: &[
            ("REV_A", Kind::Text),
            ("REV_B", Kind::Text),
            ("--workload", Kind::Text),
            ("--seeds", Kind::Text),
            ("--pairs", Kind::Count),
            ("--seconds", Kind::Count),
            ("--dir", Kind::Text),
        ],
    },
];

fn main() -> ExitCode {
    let args = cli::parse_or_exit("xtask", XTASK);
    match args.command {
        "docsync" => docsync(),
        "ci-report" => ci_report(&args),
        _ => {
            pairs(&pairs_args(&args).unwrap_or_else(|e| cli::bad_argument(&format!("pairs: {e}"))))
        }
    }
}

/// `xtask pairs` arguments.
#[derive(Debug, PartialEq)]
struct PairsArgs {
    revs: [String; 2],
    workload: String,
    seeds: Vec<u64>,
    seconds: u64,
    /// Where the worktrees go: `--dir` joined onto the repository root
    /// (so a relative path means the same from any working directory).
    dir: PathBuf,
}

/// `xtask pairs` arguments, checked against the repository's
/// `BENCHMARK.json`.
fn pairs_args(args: &cli::Args) -> Result<PairsArgs, String> {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    PairsArgs::new(args, &root, &workload_names(&manifest))
}

/// The `name` of every entry of the manifest's `workloads` array. A
/// scan, not a parser: it relies only on names being plain strings and
/// on `]` appearing in that array inside strings alone.
fn workload_names(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("\"workloads\"") else {
        return Vec::new();
    };
    let body = &manifest[start..];
    let (mut in_string, mut escaped, mut end) = (false, false, body.len());
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ']' if !in_string => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    body[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .map(str::to_owned)
        .collect()
}

impl PairsArgs {
    fn new(args: &cli::Args, root: &Path, workloads: &[String]) -> Result<PairsArgs, String> {
        let workload: String = args.get("--workload").ok_or("--workload is required")?;
        if !workloads.contains(&workload) {
            return Err(format!(
                "unknown workload {workload:?}; BENCHMARK.json names {}",
                workloads.join(", ")
            ));
        }
        let (lo, hi) = args
            .get::<String>("--seeds")
            .as_deref()
            .and_then(|s| s.split_once(".."))
            .and_then(|(lo, hi)| Some((lo.parse::<u64>().ok()?, hi.parse::<u64>().ok()?)))
            .filter(|(lo, hi)| lo <= hi)
            .ok_or("--seeds must read <a>..<b> (inclusive, a <= b)")?;
        let mut seeds: Vec<u64> = (lo..=hi).collect();
        if let Some(n) = args.get::<usize>("--pairs") {
            if n == 0 || n > seeds.len() {
                return Err(format!("--pairs {n} is not between 1 and {}", seeds.len()));
            }
            seeds.truncate(n);
        }
        let rev = |name| args.get(name).expect("a required positional");
        Ok(PairsArgs {
            revs: [rev("REV_A"), rev("REV_B")],
            workload,
            seeds,
            seconds: args.get("--seconds").unwrap_or(12),
            dir: root.join(args.get::<String>("--dir").as_deref().unwrap_or("target/pairs")),
        })
    }
}

/// The end-to-end metric names in a benchmark result line
/// (`{"correct":…,"metrics":{"<name>":{"value":<v>,…},…}}`), in order.
fn metric_names(line: &str) -> Vec<&str> {
    let mut pieces: Vec<&str> = line.split("\":{\"value\":").collect();
    pieces.pop();
    pieces.iter().filter_map(|p| p.rsplit('"').next()).collect()
}

/// The value of end-to-end metric `name` in a benchmark result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{name}\":{{\"value\":"))?.1;
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// The `attempted` count of a benchmark result line.
fn attempted(line: &str) -> Option<f64> {
    let rest = line.split_once("\"attempted\":")?.1;
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// CPU time and involuntary context switches of every child process
/// this one has waited for so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ChildUsage {
    cpu_us: u64,
    invol_switches: u64,
}

/// `struct rusage` of 64-bit Linux: user and system time as `timeval`s
/// (seconds, microseconds), then fourteen `long` counters, of which
/// the last is `ru_nivcsw`. Declared by hand: no `libc` crate is
/// vendored.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

impl ChildUsage {
    fn now() -> ChildUsage {
        let mut u = RUsage { utime: [0; 2], stime: [0; 2], counters: [0; 14] };
        // SAFETY: `u` is a writable `struct rusage` that outlives the call.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
        let us = |[s, us]: [i64; 2]| (s * 1_000_000 + us) as u64;
        ChildUsage { cpu_us: us(u.utime) + us(u.stime), invol_switches: u.counters[13] as u64 }
    }

    fn since(self, earlier: ChildUsage) -> ChildUsage {
        ChildUsage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            invol_switches: self.invol_switches.saturating_sub(earlier.invol_switches),
        }
    }
}

/// The work-per-operation rows `pairs` adds to the benchmark's own.
const USAGE_METRICS: [&str; 2] = ["cpu_us_per_op", "invol_switches_per_s"];

/// One benchmark run: its result line and what the kernel charged it.
#[derive(Debug)]
struct Run {
    line: String,
    cpu_us_per_op: f64,
    invol_switches_per_s: f64,
}

impl Run {
    fn new(line: String, usage: ChildUsage, wall: std::time::Duration) -> Run {
        let ops = attempted(&line).unwrap_or(0.0).max(1.0);
        Run {
            cpu_us_per_op: usage.cpu_us as f64 / ops,
            invol_switches_per_s: usage.invol_switches as f64 / wall.as_secs_f64().max(1e-9),
            line,
        }
    }

    /// An end-to-end metric of the result line, or one of `USAGE_METRICS`.
    fn value(&self, metric: &str) -> Option<f64> {
        match metric {
            "cpu_us_per_op" => Some(self.cpu_us_per_op),
            "invol_switches_per_s" => Some(self.invol_switches_per_s),
            _ => metric_value(&self.line, metric),
        }
    }
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

/// A number the way the trajectory table writes it.
fn short(x: f64) -> String {
    match x.abs() {
        a if a >= 10_000.0 => format!("{:.1}k", x / 1e3),
        a if a >= 100.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        a if a >= 1.0 || a == 0.0 => format!("{x:.3}"),
        // Three significant digits.
        a => format!("{x:.*}", (2.0 - a.log10().floor()) as usize),
    }
}

/// The trajectory-table row for `metric`: per-pair values of side A and B.
fn trajectory_row(args: &PairsArgs, metric: &str, a: &[f64], b: &[f64]) -> String {
    let higher = metric.ends_with("_tps");
    let won = a.iter().zip(b).filter(|(a, b)| if higher { b > a } else { b < a }).count();
    let (qa, qb) = (quartiles(a), quartiles(b));
    let q = |q: [f64; 3]| q.map(short).join(" / ");
    format!(
        "| {} vs {} | `{}` | `{}` | {} | {} | {:.2} | {won} / {} | {}–{} |",
        args.revs[1],
        args.revs[0],
        args.workload,
        metric,
        q(qa),
        q(qb),
        qb[1] / qa[1],
        a.len(),
        args.seeds[0],
        args.seeds[args.seeds.len() - 1],
    )
}

/// Runs `cmd`, failing with its name unless it exits 0; returns stdout.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Checks `rev` out under `dir` (once) and builds its benchmark;
/// returns the worktree and its target directory.
fn prepare(root: &Path, dir: &Path, rev: &str) -> Result<(PathBuf, PathBuf), String> {
    let sha = run(Command::new("git").arg("-C").arg(root).args(["rev-parse", "--short", rev]))?;
    let tree = dir.join(sha.trim());
    if !tree.exists() {
        run(Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["worktree", "add", "--detach"])
            .arg(&tree)
            .arg(sha.trim()))?;
    }
    let target = tree.with_extension("target");
    run(Command::new("bash")
        .arg("benchmark/run.sh")
        .arg("manifest")
        .current_dir(&tree)
        .env("CARGO_TARGET_DIR", &target))?;
    Ok((tree, target))
}

fn pairs(args: &PairsArgs) -> ExitCode {
    let root = repo_root();
    let mut sides = Vec::new();
    for rev in &args.revs {
        match prepare(&root, &args.dir, rev) {
            Ok(side) => sides.push(side),
            Err(e) => {
                eprintln!("pairs: {rev}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // runs[side][pair]
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for (k, seed) in args.seeds.iter().enumerate() {
        for side in if k % 2 == 0 { [0, 1] } else { [1, 0] } {
            let (tree, target) = &sides[side];
            let seconds = args.seconds.to_string();
            let (before, t0) = (ChildUsage::now(), std::time::Instant::now());
            let result = run(Command::new(target.join("release/benchmark"))
                .arg("--out")
                .arg(tree.join("benchmark/out"))
                .args(["--workload", &args.workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0"])
                .current_dir(tree));
            let (usage, wall) = (ChildUsage::now().since(before), t0.elapsed());
            let line = match result.map(|out| out.lines().last().unwrap_or_default().to_owned()) {
                Ok(line) if !metric_names(&line).is_empty() => line,
                Ok(line) => {
                    eprintln!("pairs: no metrics in the result line {line:?}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("pairs: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let r = Run::new(line, usage, wall);
            println!(
                "pair {k} seed {seed} {}: {:.1} cpu-us/op, {:.0} invol/s: {}",
                args.revs[side], r.cpu_us_per_op, r.invol_switches_per_s, r.line
            );
            runs[side].push(r);
        }
    }
    let values = |side: usize, metric: &str| -> Vec<f64> {
        runs[side].iter().filter_map(|r| r.value(metric)).collect()
    };
    for metric in metric_names(&runs[0][0].line).into_iter().chain(USAGE_METRICS) {
        let (a, b) = (values(0, metric), values(1, metric));
        if a.len() == args.seeds.len() && b.len() == args.seeds.len() {
            println!("{}", trajectory_row(args, metric, &a, &b));
        } else {
            eprintln!("pairs: {metric} is missing from some result lines; no row");
        }
    }
    let incorrect = runs.iter().flatten().filter(|r| !r.line.contains("\"correct\":true")).count();
    println!("  runs not correct: {incorrect} of {}", 2 * args.seeds.len());
    if incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench`), so the lint works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Workspace member crate names: every `crates/*/Cargo.toml` (the root
/// manifest's members list is the glob `"crates/*"`), each member's
/// `name = "..."`. Vendored shims under `vendor/` are deliberately out
/// of scope — they mirror external APIs, not this project's design.
fn workspace_crates(root: &Path) -> Result<Vec<String>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
        let member_manifest = entry.path().join("Cargo.toml");
        if !member_manifest.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&member_manifest)
            .map_err(|e| format!("cannot read {}: {e}", member_manifest.display()))?;
        let name = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .ok_or_else(|| format!("{}: no package name", member_manifest.display()))?;
        names.push(name.to_owned());
    }
    if names.is_empty() {
        return Err(format!("no member crates found under {}", crates_dir.display()));
    }
    names.sort();
    Ok(names)
}

/// The `crates` that no `cargo test` invocation in `script` runs.
/// `--workspace` covers every crate but its `--exclude`s, `-p` /
/// `--package` covers the one it names, and a bare `cargo test` covers
/// only the root package, which is not a `crates/*` member. Comment
/// lines are skipped.
fn untested_crates(script: &str, crates: &[String]) -> Vec<String> {
    let mut tested: Vec<&str> = Vec::new();
    for line in script.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let Some((_, args)) = line.split_once("cargo test") else { continue };
        let words: Vec<&str> = args.split_whitespace().collect();
        let named = |flags: &[&str]| -> Vec<&str> {
            words.windows(2).filter(|w| flags.contains(&w[0])).map(|w| w[1]).collect()
        };
        if words.contains(&"--workspace") {
            let excluded = named(&["--exclude"]);
            tested.extend(crates.iter().map(String::as_str).filter(|c| !excluded.contains(c)));
        }
        tested.extend(named(&["-p", "--package"]));
    }
    crates.iter().filter(|c| !tested.contains(&c.as_str())).cloned().collect()
}

/// The PRs whose `CHANGES.md` entry (`- PR <n> (... [perf_opt] ...): `)
/// carries the `[perf_opt]` tag in its heading but which have no row
/// starting `| <n> (` in the "Performance trajectory" section of
/// `experiments`.
fn perf_prs_without_trajectory_row(changes: &str, experiments: &str) -> Vec<u32> {
    let table = experiments
        .split_once("Performance trajectory")
        .map_or("", |(_, rest)| rest.split("\n## ").next().unwrap_or(""));
    changes
        .lines()
        .filter_map(|line| {
            let entry = line.strip_prefix("- PR ")?;
            let heading = entry.split_once("): ").map_or(entry, |(heading, _)| heading);
            let (n, _) = heading.split_once(' ')?;
            heading.contains("[perf_opt]").then(|| n.parse().ok()).flatten()
        })
        .filter(|n| !table.lines().any(|row| row.starts_with(&format!("| {n} ("))))
        .collect()
}

/// The 1-based lines of `source`'s non-test code (everything above its
/// first `#[cfg(test)]`) that mention one of `calls`. Comment lines are
/// skipped.
fn calls_outside_tests(source: &str, calls: &[&str]) -> Vec<usize> {
    source
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter(|(_, l)| calls.iter().any(|call| l.contains(call)))
        .map(|(i, _)| i + 1)
        .collect()
}

/// The calls that park on a timer.
const TIMED_PARKS: [&str; 3] = ["thread::sleep", "recv_timeout", "wait_timeout"];

/// The one file allowed to park on a timer.
const WAIT_PRIMITIVE: &str = "crates/engine/src/wait.rs";

/// Every `.rs` file under `crates/*/src`, recursively, as `(path from
/// the repository root, text)`.
fn crate_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
    {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
        dirs.push(entry.path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries {
            let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
                files.push((rel, text));
            }
        }
    }
    Ok(files)
}

/// The call lints, `(applies to path, calls, complaint)`: non-test code
/// of a file a rule applies to never mentions the rule's calls. Timed
/// parks go through the one wait primitive (`mcv-bench`'s xtask spells
/// the names as strings). Protocol code reports what a site did through
/// `Ctx::record` only, so the world trace, the causal trace and the
/// `mcv-dist` ledger cannot disagree. Network randomness is drawn by the
/// one link core only, so the simulator and the dist fabric cannot drift
/// apart.
type CallRule = (fn(&str) -> bool, &'static [&'static str], &'static str);
const CALL_RULES: [CallRule; 3] = [
    (
        |path| path != WAIT_PRIMITIVE && !path.starts_with("crates/bench/"),
        &TIMED_PARKS,
        "parks on a timer; wait through crates/engine/src/wait.rs instead",
    ),
    (
        |path| path.starts_with("crates/commit/src/"),
        &["mcv_trace::emit"],
        "calls mcv_trace::emit; report through Ctx::record instead",
    ),
    (
        |path| {
            (path.starts_with("crates/dist/src/") || path.starts_with("crates/sim/src/"))
                && path != LINK_CORE
        },
        &["gen_range", "gen_bool"],
        "draws network randomness; route through mcv_sim's link core",
    ),
];

/// The one file allowed to draw network randomness.
const LINK_CORE: &str = "crates/sim/src/net.rs";

/// Every [`CALL_RULES`] breach in `files` (`(path, text)`), as sorted
/// `file:line` complaints.
fn call_complaints(files: &[(String, String)]) -> Vec<String> {
    let mut found: Vec<String> = CALL_RULES
        .iter()
        .flat_map(|(applies, calls, what)| {
            files.iter().filter(|(path, _)| applies(path)).flat_map(move |(path, text)| {
                calls_outside_tests(text, calls)
                    .into_iter()
                    .map(move |l| format!("{path}:{l} {what}"))
            })
        })
        .collect();
    found.sort();
    found
}

/// The docs whose `./ci full --only|--skip <list>` examples must name
/// real gates.
const GATE_DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The gate names of `script`'s `FULL_GATES=(...)` array.
fn full_gates(script: &str) -> Vec<&str> {
    let list = script.split_once("FULL_GATES=(").and_then(|(_, rest)| rest.split_once(')'));
    list.map_or(Vec::new(), |(names, _)| names.split_whitespace().collect())
}

/// The names a `./ci full --only|--skip <list>` in `doc` selects that
/// `gates` lacks. The flags and the list may wrap onto the next line.
fn unknown_doc_gates<'a>(doc: &'a str, gates: &[&str]) -> Vec<&'a str> {
    let mut unknown = Vec::new();
    for (at, _) in doc.match_indices("./ci full") {
        let mut words = doc[at + "./ci full".len()..].split_whitespace();
        while words.next().is_some_and(|w| w == "--only" || w == "--skip") {
            let list = words.next().unwrap_or("");
            let list = list.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'));
            unknown.extend(list.split(',').filter(|name| !gates.contains(name)));
        }
    }
    unknown
}

/// The commands the `docs` run that do not exist, by file: a
/// `--example <x>` with no `examples/<x>.rs`, or a `--bin mcv -- <sub>`
/// naming no command of [`cli::MCV`]. The command may wrap onto the
/// next line.
fn unknown_doc_commands(docs: &[(&str, String)], examples: &[String]) -> Vec<String> {
    let word = |w: &str| w.trim_matches(|c: char| !c.is_alphanumeric() && c != '_').to_owned();
    let mut unknown = Vec::new();
    for (file, text) in docs {
        for (at, _) in text.match_indices("--example ") {
            let rest = text[at + "--example ".len()..].split_whitespace().next();
            let name = rest.map(word).unwrap_or_default();
            if !examples.contains(&name) {
                unknown.push(format!("{file} runs `--example {name}`, which examples/ lacks"));
            }
        }
        for (at, _) in text.match_indices("--bin mcv --") {
            let rest = text[at + "--bin mcv --".len()..].split_whitespace();
            let words: Vec<String> = rest.filter(|w| *w != "\\").take(2).map(word).collect();
            if cli::command(cli::MCV, &words).is_none() {
                let sub = words.join(" ");
                unknown.push(format!("{file} runs `mcv {sub}`, which mcv_bench::cli lacks"));
            }
        }
    }
    unknown
}

fn docsync() -> ExitCode {
    let root = repo_root();
    let crates = match workspace_crates(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("docsync: {e}");
            return ExitCode::from(2);
        }
    };
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = match std::fs::read_to_string(root.join(doc)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("docsync: cannot read {doc}: {e}");
                return ExitCode::from(2);
            }
        };
        for name in &crates {
            if !text.contains(name.as_str()) {
                missing.push(format!("{doc} never mentions workspace crate {name}"));
            }
        }
    }
    let read = |doc: &str| std::fs::read_to_string(root.join(doc));
    let script = match read("ci") {
        Ok(script) => script,
        Err(e) => {
            eprintln!("docsync: cannot read ci: {e}");
            return ExitCode::from(2);
        }
    };
    missing.extend(
        untested_crates(&script, &crates)
            .into_iter()
            .map(|name| format!("no `cargo test` invocation in ./ci runs workspace crate {name}")),
    );
    let mut docs = Vec::new();
    for doc in GATE_DOCS {
        let text = match read(doc) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("docsync: cannot read {doc}: {e}");
                return ExitCode::from(2);
            }
        };
        missing.extend(
            unknown_doc_gates(&text, &full_gates(&script))
                .into_iter()
                .map(|name| format!("{doc} selects gate {name:?}, which ./ci's FULL_GATES lacks")),
        );
        docs.push((doc, text));
    }
    match std::fs::read_dir(root.join("examples")) {
        Ok(dir) => {
            let examples: Vec<String> = dir
                .filter_map(|e| Some(e.ok()?.file_name().to_str()?.strip_suffix(".rs")?.to_owned()))
                .collect();
            missing.extend(unknown_doc_commands(&docs, &examples));
        }
        Err(e) => {
            eprintln!("docsync: cannot list examples/: {e}");
            return ExitCode::from(2);
        }
    }
    match (read("CHANGES.md"), read("EXPERIMENTS.md")) {
        (Ok(changes), Ok(experiments)) => missing.extend(
            perf_prs_without_trajectory_row(&changes, &experiments).into_iter().map(|n| {
                format!(
                    "CHANGES.md tags PR {n} [perf_opt] but EXPERIMENTS.md's \"Performance \
                     trajectory\" table has no row starting `| {n} (`"
                )
            }),
        ),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("docsync: cannot read CHANGES.md / EXPERIMENTS.md: {e}");
            return ExitCode::from(2);
        }
    }
    match crate_sources(&root) {
        Ok(files) => missing.extend(call_complaints(&files)),
        Err(e) => {
            eprintln!("docsync: {e}");
            return ExitCode::from(2);
        }
    }
    if missing.is_empty() {
        println!(
            "docsync OK: {} workspace crates covered by DESIGN.md, README.md and ./ci's tests; \
             documented gate selections name real gates and their commands real examples \
             and mcv subcommands; every [perf_opt] PR has its \
             trajectory row; only {WAIT_PRIMITIVE} parks on a timer; no crates/commit/src \
             code calls mcv_trace::emit; only {LINK_CORE} draws network randomness",
            crates.len()
        );
        ExitCode::SUCCESS
    } else {
        for m in &missing {
            eprintln!("docsync: {m}");
        }
        ExitCode::FAILURE
    }
}

/// One parsed gate-log line.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    name: String,
    pass: bool,
    secs: u64,
}

fn parse_gatelog(text: &str) -> Result<Vec<Gate>, String> {
    let mut gates = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(verdict), Some(secs)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed gate line {line:?}"));
        };
        let pass = match verdict {
            "pass" => true,
            "fail" => false,
            other => return Err(format!("gate {name}: verdict {other:?} is not pass|fail")),
        };
        let secs = secs.parse().map_err(|_| format!("gate {name}: bad seconds {secs:?}"))?;
        gates.push(Gate { name: name.to_owned(), pass, secs });
    }
    Ok(gates)
}

/// Gates whose verdict differs between `@r<round>` reruns of the same
/// base name — the flake detector's output.
fn divergent(gates: &[Gate]) -> Vec<String> {
    let mut by_base: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for g in gates {
        let base = g.name.split('@').next().unwrap_or(&g.name);
        let e = by_base.entry(base).or_insert((false, false));
        if g.pass {
            e.0 = true;
        } else {
            e.1 = true;
        }
    }
    by_base.iter().filter(|(_, (p, f))| *p && *f).map(|(b, _)| (*b).to_owned()).collect()
}

/// One gate's outcome in a previous report, parsed back from its
/// `gate.<name>.status` / `gate.<name>.secs` fact pair.
fn old_gates(report: &mcv_obs::RunReport) -> BTreeMap<String, (bool, u64)> {
    let mut out: BTreeMap<String, (bool, u64)> = BTreeMap::new();
    for (key, value) in &report.facts {
        let Some(rest) = key.strip_prefix("gate.") else { continue };
        if let Some(name) = rest.strip_suffix(".status") {
            out.entry(name.to_owned()).or_insert((true, 0)).0 = value == "pass";
        } else if let Some(name) = rest.strip_suffix(".secs") {
            out.entry(name.to_owned()).or_insert((true, 0)).1 = value.parse().unwrap_or(0);
        }
    }
    out
}

/// Renders the gate-level diff against a previous report: verdict
/// flips, wall-time deltas, and >2x slowdowns (flagged when the gate
/// also lost at least 2 s, so one-second rounding jitter on fast gates
/// never trips it). Added/removed gates are listed; unchanged fast
/// gates are summarized, not itemized.
fn diff_summary(old: &BTreeMap<String, (bool, u64)>, gates: &[Gate]) -> String {
    let mut lines = Vec::new();
    for g in gates {
        match old.get(&g.name) {
            None => lines.push(format!("    {:<40} new gate ({}s)", g.name, g.secs)),
            Some((old_pass, old_secs)) => {
                let verdict = |p: bool| if p { "pass" } else { "FAIL" };
                if *old_pass != g.pass {
                    lines.push(format!(
                        "    {:<40} VERDICT FLIP: {} -> {}",
                        g.name,
                        verdict(*old_pass),
                        verdict(g.pass)
                    ));
                }
                let regressed = g.secs > 2 * old_secs && g.secs.saturating_sub(*old_secs) >= 2;
                if regressed {
                    lines.push(format!(
                        "    {:<40} SLOWER >2x: {}s -> {}s",
                        g.name, old_secs, g.secs
                    ));
                } else if g.secs != *old_secs {
                    lines.push(format!(
                        "    {:<40} {}s -> {}s ({:+}s)",
                        g.name,
                        old_secs,
                        g.secs,
                        g.secs as i64 - *old_secs as i64
                    ));
                }
            }
        }
    }
    for name in old.keys() {
        if !gates.iter().any(|g| &g.name == name) {
            lines.push(format!("    {name:<40} removed"));
        }
    }
    if lines.is_empty() {
        lines.push("    no verdict flips, no wall-time changes".to_owned());
    }
    lines.join("\n")
}

fn ci_report(args: &cli::Args) -> ExitCode {
    let out_path: PathBuf = args.get("--out").unwrap_or_else(|| PathBuf::from("ci-report.json"));
    let flake = args.has("--flake");
    let diff_path: Option<PathBuf> = args.get("--diff");
    let log_path: PathBuf = args.get("GATELOG").expect("a required positional");
    let text = std::fs::read_to_string(&log_path).unwrap_or_else(|e| {
        cli::bad_argument(&format!("ci-report: cannot read {}: {e}", log_path.display()))
    });
    let gates =
        parse_gatelog(&text).unwrap_or_else(|e| cli::bad_argument(&format!("ci-report: {e}")));

    let passed = gates.iter().filter(|g| g.pass).count();
    let failed = gates.len() - passed;
    let total_secs: u64 = gates.iter().map(|g| g.secs).sum();
    println!("  {:<40} {:>7} {:>7}", "gate", "status", "wall");
    for g in &gates {
        println!("  {:<40} {:>7} {:>6}s", g.name, if g.pass { "pass" } else { "FAIL" }, g.secs);
    }
    println!("  {:<40} {:>7} {:>6}s", format!("total ({} gates)", gates.len()), "", total_secs);

    let flaky = if flake { divergent(&gates) } else { Vec::new() };
    for f in &flaky {
        println!("  FLAKY: {f} diverged between rounds");
    }

    if let Some(diff_path) = &diff_path {
        let old = std::fs::read_to_string(diff_path)
            .map_err(|e| e.to_string())
            .and_then(|t| mcv_obs::RunReport::from_json(&t).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                let path = diff_path.display();
                cli::bad_argument(&format!("ci-report: cannot read --diff {path}: {e}"))
            });
        println!("  diff vs {}:", diff_path.display());
        println!("{}", diff_summary(&old_gates(&old), &gates));
    }

    let mut report = mcv_obs::RunReport::new("ci")
        .fact("gates", gates.len())
        .fact("passed", passed)
        .fact("failed", failed)
        .fact("flaky", flaky.len());
    for g in &gates {
        report = report
            .fact(format!("gate.{}.status", g.name), if g.pass { "pass" } else { "fail" })
            .fact(format!("gate.{}.secs", g.name), g.secs);
    }
    for f in &flaky {
        report = report.fact(format!("flaky.{f}"), "diverged");
    }
    report.strip_wall();
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("ci-report: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("  report: {}", out_path.display());

    if failed > 0 || !flaky.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_crate_excluded_and_never_run_is_named() {
        let crates: Vec<String> = ["mcv-bench", "mcv-orphan", "mcv-txn"].map(String::from).into();
        let script = "\
            # cargo test -p mcv-orphan   (a comment runs nothing)\n\
            gate tests cargo test -q --workspace --exclude mcv-bench --exclude mcv-orphan\n\
            gate bench_tests cargo test -q -p mcv-bench\n\
            try_gate tests@r1 cargo test -q\n";
        assert_eq!(untested_crates(script, &crates), vec!["mcv-orphan".to_owned()]);
        let balanced = format!("{script}gate orphan cargo test --package mcv-orphan\n");
        assert!(untested_crates(&balanced, &crates).is_empty());
        // A bare `cargo test` runs only the root package.
        assert_eq!(untested_crates("cargo test -q\n", &crates), crates);
    }

    #[test]
    fn a_documented_gate_selection_naming_an_unknown_gate_is_named() {
        let script = "FULL_GATES=(fmt clippy\n  dist_smoke experiments)\nONLY=\"\"\n";
        let gates = full_gates(script);
        assert_eq!(gates, ["fmt", "clippy", "dist_smoke", "experiments"]);
        let doc = "\
            ./ci full --only dist_smoke,bench_gate   # run just the named gates\n\
            ./ci full --skip fmt --only experiments\n\
            also wraps (`./ci full --only\n\
            clippy,nope`: prose), and `./ci full` alone selects nothing.\n";
        assert_eq!(unknown_doc_gates(doc, &gates), ["bench_gate", "nope"]);
    }

    #[test]
    fn a_documented_command_naming_a_missing_example_or_subcommand_is_named_by_file() {
        let examples = ["quickstart".to_owned()];
        let docs = [
            ("README.md", "cargo run --release --example quickstart\n".to_owned()),
            (
                "DESIGN.md",
                "`cargo run --release --example chaos_hunt -- --smoke`, then\n\
                 cargo run --release -p mcv-bench --bin mcv -- chaos smoke --seed-base 1\n\
                 cargo run -p mcv-bench --bin mcv -- \\\n  repro exp.msg ch5\n\
                 (`--bin mcv -- engine stress`)\n"
                    .to_owned(),
            ),
        ];
        assert_eq!(
            unknown_doc_commands(&docs, &examples),
            [
                "DESIGN.md runs `--example chaos_hunt`, which examples/ lacks",
                "DESIGN.md runs `mcv engine stress`, which mcv_bench::cli lacks",
            ]
        );
    }

    #[test]
    fn a_perf_pr_without_a_trajectory_row_is_named() {
        let changes = "\
            # Changes\n\
            - PR 13 (ISSUE 13, [simplicity] one runtime): mentions [perf_opt] only in passing\n\
            - PR 14 (ISSUE 14, [perf_opt] binary log image): faster\n\
            - PR 16 (ISSUE 16, [perf_opt] item index): faster still\n";
        let experiments = "\
            ## Performance trajectory (one row per PR)\n\
            | PR | workload |\n|---|---|\n\
            | 14 (binary log image) | `engine-2pl-uniform` |\n\
            ## Another section\n\
            | 16 (a row outside the trajectory table does not count) |\n";
        assert_eq!(perf_prs_without_trajectory_row(changes, experiments), vec![16]);
        let with_row = experiments.replace("## Another", "| 16 (item index) | x |\n## Another");
        assert!(perf_prs_without_trajectory_row(changes, &with_row).is_empty());
        // No table at all: every tagged PR is missing.
        assert_eq!(perf_prs_without_trajectory_row(changes, ""), vec![14, 16]);
    }

    #[test]
    fn a_timed_park_outside_test_code_is_named() {
        let source = "\
            use std::sync::mpsc::RecvTimeoutError;\n\
            // std::thread::sleep(d) in a comment parks nothing\n\
            fn run() {\n\
            \x20   match rx.recv_timeout(wait) {}\n\
            \x20   std::thread::sleep(Duration::from_millis(1));\n\
            \x20   let (g, _) = cv.wait_timeout(g, d).unwrap();\n\
            \x20   let m = rx.recv();\n\
            }\n\
            #[cfg(test)]\n\
            mod tests {\n\
            \x20   fn t() { std::thread::sleep(d); }\n\
            }\n";
        assert_eq!(calls_outside_tests(source, &TIMED_PARKS), vec![4, 5, 6]);
        let clean = "fn run() { wait::sleep_until(deadline); rx.recv(); }\n";
        assert!(calls_outside_tests(clean, &TIMED_PARKS).is_empty());
    }

    #[test]
    fn a_timed_park_in_any_crate_but_the_exempt_ones_is_named_by_file_and_line() {
        let park = "fn f() {\n    std::thread::sleep(d);\n}\n";
        let files: Vec<(String, String)> = [
            ("crates/load/src/driver.rs", park),
            ("crates/dist/src/node.rs", "fn g() {}\n"),
            ("crates/engine/src/wait.rs", park),
            ("crates/bench/src/bin/xtask.rs", park),
        ]
        .map(|(p, t)| (p.to_owned(), t.to_owned()))
        .into();
        assert_eq!(
            call_complaints(&files),
            ["crates/load/src/driver.rs:2 parks on a timer; wait through \
              crates/engine/src/wait.rs instead"]
        );
        // The lint's own subject is clean at head, and it reads every
        // crate, nested directories included.
        let sources = crate_sources(&repo_root()).expect("crates readable");
        for expected in
            [WAIT_PRIMITIVE, "crates/load/src/driver.rs", "crates/bench/src/bin/xtask.rs"]
        {
            assert!(sources.iter().any(|(p, _)| p == expected), "{expected} not read");
        }
        assert_eq!(call_complaints(&sources), Vec::<String>::new());
    }

    #[test]
    fn a_direct_emit_in_protocol_code_is_named_by_file_and_line() {
        let emit = "fn f(ctx: &mut Ctx<Msg>) {\n    mcv_trace::emit(0, 0, kind);\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { mcv_trace::emit(0, 0, k); }\n}\n";
        let files: Vec<(String, String)> = [
            ("crates/commit/src/site.rs", emit),
            ("crates/commit/src/monitor.rs", "// mcv_trace::emit in a comment\n"),
            ("crates/sim/src/world.rs", emit),
        ]
        .map(|(p, t)| (p.to_owned(), t.to_owned()))
        .into();
        assert_eq!(
            call_complaints(&files),
            ["crates/commit/src/site.rs:2 calls mcv_trace::emit; report through Ctx::record \
              instead"]
        );
    }

    #[test]
    fn a_network_draw_outside_the_link_core_is_named_by_file_and_line() {
        let draw = "fn hop(rng: &mut StdRng) -> u64 {\n    rng.gen_range(1..=5)\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { rng.gen_bool(0.5); }\n}\n";
        let files: Vec<(String, String)> = [
            ("crates/dist/src/fabric.rs", draw),
            ("crates/sim/src/world.rs", "// rng.gen_bool in a comment\n"),
            ("crates/sim/src/net.rs", draw),
            ("crates/chaos/src/schedule.rs", draw),
        ]
        .map(|(p, t)| (p.to_owned(), t.to_owned()))
        .into();
        assert_eq!(
            call_complaints(&files),
            ["crates/dist/src/fabric.rs:2 draws network randomness; route through mcv_sim's \
              link core"]
        );
    }

    #[test]
    fn gatelog_round_trips() {
        let gates = parse_gatelog("fmt pass 1\ntests fail 42\n").expect("parses");
        assert_eq!(
            gates,
            vec![
                Gate { name: "fmt".into(), pass: true, secs: 1 },
                Gate { name: "tests".into(), pass: false, secs: 42 },
            ]
        );
        assert!(parse_gatelog("fmt maybe 1").is_err());
    }

    #[test]
    fn divergence_needs_both_verdicts_for_one_base_name() {
        let gates = parse_gatelog(
            "dist_smoke@r1 pass 3\ndist_smoke@r2 fail 3\nchaos_smoke@r1 fail 2\nchaos_smoke@r2 fail 2\n",
        )
        .expect("parses");
        assert_eq!(divergent(&gates), vec!["dist_smoke".to_owned()]);
    }

    #[test]
    fn diff_flags_flips_and_2x_regressions_only() {
        let old_report = mcv_obs::RunReport::new("ci")
            .fact("gate.tests.status", "pass")
            .fact("gate.tests.secs", 10u64)
            .fact("gate.dist_smoke.status", "pass")
            .fact("gate.dist_smoke.secs", 3u64)
            .fact("gate.docsync.status", "fail")
            .fact("gate.docsync.secs", 1u64)
            .fact("gate.gone.status", "pass")
            .fact("gate.gone.secs", 2u64);
        let old = old_gates(&old_report);
        assert_eq!(old["tests"], (true, 10));
        assert_eq!(old["docsync"], (false, 1));
        let gates = parse_gatelog(
            "tests fail 11\ndist_smoke pass 9\ndocsync pass 1\npipeline_smoke pass 4\n",
        )
        .expect("parses");
        let diff = diff_summary(&old, &gates);
        assert!(diff.contains("VERDICT FLIP: pass -> FAIL"), "{diff}");
        assert!(diff.contains("VERDICT FLIP: FAIL -> pass"), "{diff}");
        assert!(diff.contains("SLOWER >2x: 3s -> 9s"), "{diff}");
        assert!(diff.contains("new gate (4s)"), "{diff}");
        assert!(diff.contains("removed"), "{diff}");
        // 10s -> 11s is a delta, not a flagged regression.
        assert!(diff.contains("10s -> 11s (+1s)"), "{diff}");
        assert!(!diff.contains("SLOWER >2x: 10s"), "{diff}");
    }

    #[test]
    fn diff_of_identical_outcomes_is_quiet() {
        let old_report = mcv_obs::RunReport::new("ci")
            .fact("gate.fmt.status", "pass")
            .fact("gate.fmt.secs", 1u64);
        let gates = parse_gatelog("fmt pass 1\n").expect("parses");
        let diff = diff_summary(&old_gates(&old_report), &gates);
        assert!(diff.contains("no verdict flips"), "{diff}");
    }

    /// `xtask pairs <args>`, parsed and checked.
    fn parse_pairs(args: &str, root: &Path, workloads: &[String]) -> Result<PairsArgs, String> {
        let words: Vec<String> =
            format!("pairs {args}").split_whitespace().map(String::from).collect();
        PairsArgs::new(&cli::parse(XTASK, &words)?, root, workloads)
    }

    #[test]
    fn pairs_arguments_parse_and_are_checked() {
        let root = Path::new("/repo");
        let workloads = ["spec-verify".to_owned(), "w".to_owned()];
        let parse = |s: &str| parse_pairs(s, root, &workloads);
        let a =
            parse("HEAD~1 HEAD --workload spec-verify --seeds 301..310 --pairs 4").expect("parses");
        assert_eq!(a.revs, ["HEAD~1".to_owned(), "HEAD".to_owned()]);
        assert_eq!((a.seeds, a.seconds), (vec![301, 302, 303, 304], 12));
        assert_eq!(a.dir, root.join("target/pairs"));
        for bad in [
            "HEAD --workload w --seeds 1..2",
            "a b --seeds 1..2",
            "a b --workload w --seeds 3..1",
            "a b --workload w --seeds 1..2 --pairs 3",
            "a b --workload w --seeds 1..2 --pairs 0",
            "a b --workload w --seeds 1..2 --metric tput_tps",
            "a b --workload w --seeds",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn an_unknown_pairs_workload_is_rejected_with_the_valid_names() {
        let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
        let names = workload_names(&manifest);
        assert_eq!(names.len(), 6, "{names:?}");
        assert!(names.iter().any(|n| n == "spec-verify"), "{names:?}");
        let words = |w: &str| format!("a b --workload {w} --seeds 1..2");
        assert!(parse_pairs(&words("spec-verify"), Path::new("/repo"), &names).is_ok());
        let err = parse_pairs(&words("spec-verfy"), Path::new("/repo"), &names)
            .expect_err("a typo is rejected");
        assert!(err.contains("unknown workload \"spec-verfy\""), "{err}");
        for name in &names {
            assert!(err.contains(name.as_str()), "{err} does not list {name}");
        }
    }

    #[test]
    fn a_relative_pairs_dir_is_taken_from_the_repository_root() {
        let dir = |flag: &str| {
            let words = format!("a b --workload w --seeds 1..2 --dir {flag}");
            parse_pairs(&words, Path::new("/repo"), &["w".to_owned()]).expect("parses").dir
        };
        assert_eq!(dir("../trees"), Path::new("/repo/../trees"));
        assert_eq!(dir("/tmp/trees"), Path::new("/tmp/trees"));
    }

    #[test]
    fn pairs_reads_result_lines_and_renders_a_trajectory_row() {
        let line = r#"{"correct":true,"attempted":9,"failed":0,"metrics":{"tput_tps":{"value":55.5,"unit":"1/s"},"lat_p50_us":{"value":18113.3805,"unit":"us"}}}"#;
        assert_eq!(metric_value(line, "tput_tps"), Some(55.5));
        assert_eq!(metric_value(line, "lat_p50_us"), Some(18113.3805));
        assert_eq!(metric_value(line, "peak_rss_mb"), None);
        assert_eq!(metric_names(line), ["tput_tps", "lat_p50_us"]);
        assert!(metric_names(r#"{"correct":false,"metrics":{}}"#).is_empty());
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        let args = PairsArgs {
            revs: ["parent".into(), "change".into()],
            workload: "spec-verify".into(),
            seeds: vec![301, 302, 303],
            seconds: 12,
            dir: PathBuf::from("/repo/target/pairs"),
        };
        let (a, b) = ([3.0, 2.5, 3.5], [20.0, 2.0, 21.0]);
        assert_eq!(
            trajectory_row(&args, "tput_tps", &a, &b),
            "| change vs parent | `spec-verify` | `tput_tps` | 2.750 / 3.000 / 3.250 \
             | 11.0 / 20.0 / 20.5 | 6.67 | 2 / 3 | 301–303 |"
        );
        // Lower is better for anything but a rate.
        assert!(trajectory_row(&args, "lat_p50_us", &a, &b).contains("| 1 / 3 |"));
        assert_eq!(short(205_600.0), "205.6k");
        assert_eq!(short(0.0014138), "0.00141");
        assert_eq!(short(0.25), "0.250");
    }

    #[test]
    fn child_usage_is_read_from_the_kernel_and_turned_into_rates() {
        let before = ChildUsage::now();
        assert_eq!(ChildUsage::now().since(before), ChildUsage::default(), "no child ran");
        let status = Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 30000 ]; do i=$((i+1)); done"])
            .status()
            .expect("sh runs");
        assert!(status.success());
        let busy = ChildUsage::now().since(before);
        assert!(busy.cpu_us > 0, "a busy child was charged no CPU: {busy:?}");
        assert_eq!(before.since(ChildUsage::now()), ChildUsage::default(), "saturates");

        let line = r#"{"correct":true,"attempted":300,"failed":0,"metrics":{"tput_tps":{"value":5.0,"unit":"1/s"}}}"#;
        assert_eq!(attempted(line), Some(300.0));
        let usage = ChildUsage { cpu_us: 1_500, invol_switches: 40 };
        let r = Run::new(line.to_owned(), usage, std::time::Duration::from_millis(500));
        assert_eq!(
            (r.value("cpu_us_per_op"), r.value("invol_switches_per_s")),
            (Some(5.0), Some(80.0))
        );
        assert_eq!(r.value("tput_tps"), Some(5.0));
    }

    #[test]
    fn workspace_crates_include_the_known_ones() {
        let crates = workspace_crates(&repo_root()).expect("workspace parses");
        for expected in ["mcv-core", "mcv-dist", "mcv-bench"] {
            assert!(crates.iter().any(|c| c == expected), "{expected} missing from {crates:?}");
        }
    }
}
