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
//! or if a `CHANGES.md` entry tagged `[perf_opt]` has no row in
//! EXPERIMENTS.md's "Performance trajectory" table (a claimed gain
//! nobody can look up did not happen), or if non-test code of
//! `crates/dist` parks on a timer anywhere but in its wait primitive
//! (`wait.rs`): a timed park overshoots by more than the hops the
//! runtime times, and the floor that bought came back one call site at
//! a time once already.
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
//! this run's verdicts). When `baselines/BENCH_prof.json` exists, the
//! summary also renders its phase-attribution tables — where engine
//! and cross-shard commit latency went the last time `exp.prof` was
//! baselined.
//!
//! `pairs` is the measuring rule for a performance claim as one command:
//! it checks both revisions out as `git worktree`s under `--dir`
//! (default `target/pairs`; a relative path is taken from the repository
//! root), builds each one's benchmark into its own `CARGO_TARGET_DIR`,
//! then runs `benchmark/run.sh --workload <w>` on one seed per pair,
//! untraced, with the side that runs first alternating from pair to
//! pair. It prints every run as it finishes and ends with one row per
//! end-to-end metric in EXPERIMENTS.md's "Performance trajectory"
//! format: quartiles on each side, the ratio of medians and the pairs
//! `<rev-b>` won (a `*_tps` metric is better higher, every other lower).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("docsync") => docsync(),
        Some("ci-report") => ci_report(&args[1..]),
        Some("pairs") => match PairsArgs::parse(&args[1..], &repo_root()) {
            Ok(a) => pairs(&a),
            Err(e) => {
                eprintln!("pairs: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: xtask docsync | xtask ci-report <gatelog> [--out <file>] [--flake] \
                 [--diff <old-report.json>] | xtask pairs <rev-a> <rev-b> --workload <w> \
                 --seeds <a>..<b> [--pairs <n>] [--seconds <s>] [--dir <d>]"
            );
            ExitCode::from(2)
        }
    }
}

/// `xtask pairs` arguments.
#[derive(Debug, PartialEq)]
struct PairsArgs {
    revs: [String; 2],
    workload: String,
    seeds: Vec<u64>,
    seconds: u32,
    /// Where the worktrees go: `--dir` joined onto the repository root
    /// (so a relative path means the same from any working directory).
    dir: PathBuf,
}

impl PairsArgs {
    fn parse(args: &[String], root: &Path) -> Result<PairsArgs, String> {
        let mut revs = Vec::new();
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                flags.insert(flag, value);
            } else {
                revs.push(a.clone());
            }
        }
        let [a, b]: [String; 2] =
            revs.try_into().map_err(|_| "expected exactly two revisions".to_owned())?;
        let workload = flags.remove("workload").ok_or("--workload is required")?.to_owned();
        let (lo, hi) = flags
            .remove("seeds")
            .and_then(|s| s.split_once(".."))
            .and_then(|(lo, hi)| Some((lo.parse::<u64>().ok()?, hi.parse::<u64>().ok()?)))
            .filter(|(lo, hi)| lo <= hi)
            .ok_or("--seeds must read <a>..<b> (inclusive, a <= b)")?;
        let mut seeds: Vec<u64> = (lo..=hi).collect();
        if let Some(n) = flags.remove("pairs") {
            let n: usize = n.parse().map_err(|_| format!("--pairs {n:?} is not a count"))?;
            if n == 0 || n > seeds.len() {
                return Err(format!("--pairs {n} is not between 1 and {}", seeds.len()));
            }
            seeds.truncate(n);
        }
        let seconds = match flags.remove("seconds") {
            Some(s) => s.parse().map_err(|_| format!("--seconds {s:?} is not whole seconds"))?,
            None => 12,
        };
        let dir = root.join(flags.remove("dir").unwrap_or("target/pairs"));
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag --{flag}"));
        }
        Ok(PairsArgs { revs: [a, b], workload, seeds, seconds, dir })
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
    // lines[side][pair]: the benchmark's result line.
    let mut lines = [Vec::new(), Vec::new()];
    for (k, seed) in args.seeds.iter().enumerate() {
        for side in if k % 2 == 0 { [0, 1] } else { [1, 0] } {
            let (tree, target) = &sides[side];
            let seconds = args.seconds.to_string();
            let result = run(Command::new("bash")
                .arg("benchmark/run.sh")
                .args(["--workload", &args.workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0"])
                .current_dir(tree)
                .env("CARGO_TARGET_DIR", target));
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
            println!("pair {k} seed {seed} {}: {line}", args.revs[side]);
            lines[side].push(line);
        }
    }
    let values = |side: usize, metric: &str| -> Vec<f64> {
        lines[side].iter().filter_map(|l| metric_value(l, metric)).collect()
    };
    for metric in metric_names(&lines[0][0]) {
        let (a, b) = (values(0, metric), values(1, metric));
        if a.len() == args.seeds.len() && b.len() == args.seeds.len() {
            println!("{}", trajectory_row(args, metric, &a, &b));
        } else {
            eprintln!("pairs: {metric} is missing from some result lines; no row");
        }
    }
    let incorrect = lines.iter().flatten().filter(|l| !l.contains("\"correct\":true")).count();
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
/// first `#[cfg(test)]`) that park on a timer: `thread::sleep`,
/// `recv_timeout`, `wait_timeout`. Comment lines are skipped.
fn timed_parks(source: &str) -> Vec<usize> {
    source
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter(|(_, l)| {
            ["thread::sleep", "recv_timeout", "wait_timeout"].iter().any(|call| l.contains(call))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// `timed_parks` over every source file of `crates/dist` but the wait
/// primitive's own, as `file:line` complaints.
fn dist_timed_parks(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("crates/dist/src");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_owned();
        if !name.ends_with(".rs") || name == "wait.rs" {
            continue;
        }
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        found.extend(timed_parks(&source).into_iter().map(|line| {
            format!(
                "crates/dist/src/{name}:{line} parks on a timer; wait through \
                 crates/dist/src/wait.rs instead"
            )
        }));
    }
    found.sort();
    Ok(found)
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
    match std::fs::read_to_string(root.join("ci")) {
        Ok(script) => {
            missing.extend(untested_crates(&script, &crates).into_iter().map(|name| {
                format!("no `cargo test` invocation in ./ci runs workspace crate {name}")
            }))
        }
        Err(e) => {
            eprintln!("docsync: cannot read ci: {e}");
            return ExitCode::from(2);
        }
    }
    let read = |doc: &str| std::fs::read_to_string(root.join(doc));
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
    match dist_timed_parks(&root) {
        Ok(found) => missing.extend(found),
        Err(e) => {
            eprintln!("docsync: {e}");
            return ExitCode::from(2);
        }
    }
    if missing.is_empty() {
        println!(
            "docsync OK: {} workspace crates covered by DESIGN.md, README.md and ./ci's tests; \
             every [perf_opt] PR has its trajectory row; mcv-dist parks on timers only in wait.rs",
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

/// Renders the baselined `exp.prof` phase attribution (mean-latency
/// share per phase, engine and cross-shard columns) from
/// `baselines/BENCH_prof.json`, or `None` when no baseline exists.
/// The shares are wall gauges — informational context for the gate
/// table, not part of the diff-stable report facts.
fn phase_attribution_summary(root: &Path) -> Option<String> {
    let text = std::fs::read_to_string(root.join("baselines/BENCH_prof.json")).ok()?;
    let report = mcv_obs::RunReport::from_json(&text).ok()?;
    let share = |prefix: &str| -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = report
            .metrics
            .gauges
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(prefix).map(|p| (p.to_owned(), *v)))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite shares"));
        rows
    };
    let engine = share("wall.prof.engine.frac_mean.");
    let dist = share("wall.prof.dist.frac_mean.");
    if engine.is_empty() && dist.is_empty() {
        return None;
    }
    let mut out = String::from(
        "\n  phase attribution (baselines/BENCH_prof.json, % of mean commit latency):\n",
    );
    for (title, rows) in [("engine", &engine), ("cross-shard", &dist)] {
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("    {title:<12}"));
        for (phase, frac) in rows {
            out.push_str(&format!(" {phase} {:.0}%", 100.0 * frac));
        }
        out.push('\n');
    }
    Some(out)
}

fn ci_report(args: &[String]) -> ExitCode {
    let mut out_path = PathBuf::from("ci-report.json");
    let mut flake = false;
    let mut diff_path: Option<PathBuf> = None;
    let mut log_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => {
                    eprintln!("ci-report: --out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--flake" => flake = true,
            "--diff" => match it.next() {
                Some(p) => diff_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ci-report: --diff requires a previous ci-report.json path");
                    return ExitCode::from(2);
                }
            },
            other => log_path = Some(PathBuf::from(other)),
        }
    }
    let Some(log_path) = log_path else {
        eprintln!(
            "usage: xtask ci-report <gatelog> [--out <file>] [--flake] [--diff <old-report.json>]"
        );
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&log_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ci-report: cannot read {}: {e}", log_path.display());
            return ExitCode::from(2);
        }
    };
    let gates = match parse_gatelog(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ci-report: {e}");
            return ExitCode::from(2);
        }
    };

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
            .and_then(|t| mcv_obs::RunReport::from_json(&t).map_err(|e| e.to_string()));
        match old {
            Ok(old) => {
                println!("  diff vs {}:", diff_path.display());
                println!("{}", diff_summary(&old_gates(&old), &gates));
            }
            Err(e) => {
                eprintln!("ci-report: cannot read --diff {}: {e}", diff_path.display());
                return ExitCode::from(2);
            }
        }
    }

    if let Some(table) = phase_attribution_summary(&repo_root()) {
        println!("{table}");
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
        assert_eq!(timed_parks(source), vec![4, 5, 6]);
        assert!(timed_parks("fn run() { wait::sleep_until(deadline); rx.recv(); }\n").is_empty());
        // The lint's own subject is clean at head.
        assert_eq!(dist_timed_parks(&repo_root()), Ok(Vec::new()));
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

    #[test]
    fn phase_attribution_summary_reads_the_baseline() {
        let table = phase_attribution_summary(&repo_root()).expect("BENCH_prof.json is committed");
        assert!(table.contains("cross-shard"), "{table}");
        assert!(table.contains("transport_rtt"), "{table}");
        assert!(phase_attribution_summary(Path::new("/nonexistent")).is_none());
    }

    #[test]
    fn pairs_arguments_parse_and_are_checked() {
        let words = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let root = Path::new("/repo");
        let parse = |s: &str| PairsArgs::parse(&words(s), root);
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
    fn a_relative_pairs_dir_is_taken_from_the_repository_root() {
        let dir = |flag: &str| {
            let words = ["a", "b", "--workload", "w", "--seeds", "1..2", "--dir", flag];
            let words: Vec<String> = words.map(String::from).into();
            PairsArgs::parse(&words, Path::new("/repo")).expect("parses").dir
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
    fn workspace_crates_include_the_known_ones() {
        let crates = workspace_crates(&repo_root()).expect("workspace parses");
        for expected in ["mcv-core", "mcv-dist", "mcv-bench"] {
            assert!(crates.iter().any(|c| c == expected), "{expected} missing from {crates:?}");
        }
    }
}
