//! Cross-shard atomic transactions over real threads: drive the 3PC
//! FSMs across live per-shard engines through the faulty transport,
//! sweep seeded fault campaigns, and reproduce the naive-timeout
//! split-brain as a shrunk, replayable artifact.
//!
//! Modes:
//!
//! - `cargo run --release --example dist_stress` — hunt: a tolerated
//!   fault campaign over the hardened protocol (must stay green),
//!   then the naive Figure 3.2 timeout variant under the
//!   asymmetric-knowledge coordinator crash. Finds the cross-shard
//!   split-brain on live engines, shrinks it, writes the artifact and
//!   causal trace to `target/dist/`, and prints the replay command.
//! - `-- --smoke [--seed-base B]` — the CI gate: a bounded fixed-seed
//!   sweep that must be all-green for the hardened protocol and must
//!   stay red for the naive variant. Exits non-zero otherwise.
//! - `-- --campaign N [--seed-base B]` — sweep N seeds of tolerated
//!   faults (the acceptance run uses N >= 300).
//! - `-- --pipeline-smoke [--seed-base B]` — the pipelined CI gate:
//!   the same fixed-seed tolerated faults under the windowed, batched
//!   schedule plus a fault-free throughput sanity check (pipelined
//!   must beat one-at-a-time).
//! - `-- --pipeline-campaign N [--seed-base B]` — sweep N seeds of
//!   tolerated faults under the windowed, batched schedule
//!   (acceptance: N >= 300 all green alongside `--campaign`).
//! - `-- --replay <artifact.json>` — re-execute a written artifact
//!   and report whether it still violates its oracle.

use mcv::chaos::{Artifact, Campaign};
use mcv::dist::{run_pipeline, tolerated_campaign, DistConfig, PipelineConfig};
use std::process::ExitCode;

/// The two submission schedules the gates sweep, as
/// `(max_inflight, batch_window_us)`: unbatched (every plan at once over
/// the per-message transport — the campaigns run one transaction) and
/// pipelined (an 8-wide window over 600 us link batches).
const UNBATCHED: (usize, u64) = (1, 0);
const PIPELINED: (usize, u64) = (8, 600);

fn scheduled(dist: DistConfig, (max_inflight, batch_window_us): (usize, u64)) -> PipelineConfig {
    PipelineConfig { dist, max_inflight, batch_window_us, arrival_us: None }
}

/// Tolerated faults over the hardened protocol, under `schedule`.
fn hardened_campaign(schedule: (usize, u64)) -> Campaign<PipelineConfig> {
    tolerated_campaign(scheduled(DistConfig { n_txns: 1, ..DistConfig::default() }, schedule))
}

/// The deliberately unsafe configuration: naive Figure 3.2 timeouts
/// with the coordinator crashing after sending prepare to only the
/// first shard — shard 1 times out prepared (commit), the rest time
/// out waiting (abort).
fn naive_config() -> PipelineConfig {
    let dist = DistConfig {
        naive_timeouts: true,
        quorum_termination: false,
        crash_at: Some((0, mcv_commit::CrashPoint::AfterPartialPrepare)),
        n_shards: 2,
        n_txns: 1,
        ..DistConfig::default()
    };
    scheduled(dist, UNBATCHED)
}

fn naive_campaign() -> Campaign<PipelineConfig> {
    // An empty plan: the targeted crash alone exposes the bug, so the
    // hunt starts from a fault-free schedule and the shrinker only has
    // topology and transaction count to reduce.
    let mut c = tolerated_campaign(naive_config());
    c.plan.crashes = false;
    c.plan.partitions = false;
    c.plan.drop_windows = false;
    c.plan.torn_writes = false;
    c
}

fn hunt() -> ExitCode {
    println!("=== dist hunt: hardened 3PC over live shards, 40 seeds of tolerated faults ===\n");
    let summary = hardened_campaign(UNBATCHED).run_seeds(0, 40);
    println!("{}", summary.to_report("dist.hardened").summary());
    if !summary.all_green() {
        println!("hardened protocol regressed: {:?}", summary.failures);
        return ExitCode::FAILURE;
    }

    println!("\n=== naive Figure 3.2 timeouts + coordinator crash after partial prepare ===\n");
    let campaign = naive_campaign();
    let Some(v) = campaign.hunt(8) else {
        println!("no violation found — unexpected for the naive variant");
        return ExitCode::FAILURE;
    };
    println!(
        "seed {} violated {}: shrunk {} -> {} fault events in {} runs",
        v.seed,
        v.oracle,
        v.original_events,
        v.artifact.config.dist.schedule.len(),
        v.shrink_runs
    );
    println!("evidence: {}", v.artifact.detail);

    std::fs::create_dir_all("target/dist").expect("create target/dist");
    let path = v.artifact.write("target/dist").expect("write artifact");
    let trace_path = v.artifact.write_trace("target/dist", &v.trace).expect("write trace");
    println!("\nartifact: {}", path.display());
    println!("trace:    {} ({} causal events)", trace_path.display(), v.trace.len());
    println!("replay:   cargo run --release --example dist_stress -- --replay {}", path.display());
    ExitCode::SUCCESS
}

fn campaign(label: &str, c: &Campaign<PipelineConfig>, n: u64, seed_base: u64) -> ExitCode {
    println!("=== {label}: {n} seeds (base {seed_base}) of tolerated faults ===\n");
    let summary = c.run_seeds(seed_base, n);
    println!("{}", summary.to_report(label).summary());
    if summary.all_green() {
        println!("all green");
        ExitCode::SUCCESS
    } else {
        println!("failures: {:?}", summary.failures);
        ExitCode::FAILURE
    }
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifact = match Artifact::<PipelineConfig>::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("malformed artifact {path}: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    println!("replaying {} (oracle {})", artifact.id, artifact.violated);
    let out = artifact.replay();
    for o in &out.oracles {
        if !o.pass {
            println!("FAIL {}: {}", o.name, o.detail);
        }
    }
    let dir = std::path::Path::new(path).parent().unwrap_or(std::path::Path::new("."));
    match artifact.write_trace(dir, &out.trace) {
        Ok(p) => println!("causal trace: {} ({} events)", p.display(), out.trace.len()),
        Err(e) => eprintln!("could not write trace: {e}"),
    }
    if out.violates(&artifact.violated) || artifact.reproduces() {
        println!("reproduced");
        ExitCode::SUCCESS
    } else {
        println!("did NOT reproduce — threaded runs are not bit-deterministic; retry, or artifact and code have diverged");
        ExitCode::FAILURE
    }
}

fn smoke(seed_base: u64) -> ExitCode {
    // Fixed seeds, bounded work: suitable for every CI run.
    let green = hardened_campaign(UNBATCHED).run_seeds(seed_base, 12);
    if !green.all_green() {
        println!("dist smoke: hardened protocol regressed: {:?}", green.failures);
        return ExitCode::FAILURE;
    }
    let cfg = naive_config();
    let split = (0..3).any(|_| {
        let out = run_pipeline(&cfg);
        out.violates("atomicity") || out.violates("ac1_agreement")
    });
    if !split {
        println!("dist smoke: naive variant no longer splits — oracles may have gone blind");
        return ExitCode::FAILURE;
    }
    println!("dist smoke OK: hardened 12/12 green (base {seed_base}), naive variant splits");
    ExitCode::SUCCESS
}

fn pipeline_smoke(seed_base: u64) -> ExitCode {
    // The same fixed seeds, fault schedules and oracles as the dist
    // smoke, under the windowed, batched schedule.
    let green = hardened_campaign(PIPELINED).run_seeds(seed_base, 12);
    if !green.all_green() {
        println!("pipeline smoke: pipelined schedule regressed: {:?}", green.failures);
        return ExitCode::FAILURE;
    }
    // Fault-free throughput sanity: the pipelined schedule must
    // decisively beat one transaction at a time on the same workload
    // (the full measurement lives in exp.pipeline; this is the cheap
    // canary).
    let dist = DistConfig { n_shards: 3, n_txns: 24, seed: seed_base, ..DistConfig::default() };
    let serial = run_pipeline(&scheduled(DistConfig { n_txns: 4, ..dist.clone() }, (1, 0)));
    let pipe = run_pipeline(&scheduled(dist.clone(), (12, 600)));
    if pipe.violated().is_some() || pipe.stats.committed != dist.n_txns as u64 {
        println!("pipeline smoke: fault-free pipelined run failed: {:?}", pipe.violated());
        return ExitCode::FAILURE;
    }
    let serial_tput = serial.stats.committed as f64 / serial.stats.wall_ms.max(1) as f64;
    let pipe_tput = pipe.stats.committed as f64 / pipe.stats.wall_ms.max(1) as f64;
    if pipe_tput < serial_tput * 2.0 {
        println!(
            "pipeline smoke: pipelined tput ({:.1}/ms) did not clear 2x serial ({:.1}/ms)",
            pipe_tput, serial_tput
        );
        return ExitCode::FAILURE;
    }
    // Paced leg, printed and not gated: what one commit costs when it
    // arrives on time, and how late the network thread dispatched a due
    // head. A timer floor creeping back into the runtime's waits shows
    // in both (10 us hops: six of them are the whole protocol cost).
    let arrivals: Vec<u64> = (0..200).map(|i| i * 500).collect();
    let paced = PipelineConfig {
        dist: DistConfig {
            n_shards: 2,
            n_txns: arrivals.len(),
            seed: seed_base,
            tick_us: 10,
            delay_ticks: 1,
            timeout: 1_000_000,
            force_latency_us: 0,
            ..DistConfig::default()
        },
        max_inflight: 32,
        batch_window_us: 200,
        arrival_us: Some(arrivals.clone()),
    };
    let (out, seen) = mcv::obs::collect(|| run_pipeline(&paced));
    if out.violated().is_some() || out.stats.committed != arrivals.len() as u64 {
        println!("pipeline smoke: paced run failed: {:?}", out.violated());
        return ExitCode::FAILURE;
    }
    let mut latency_us: Vec<u64> = out
        .commit_log
        .iter()
        .map(|e| {
            let at = arrivals[(e.txn - mcv::dist::GLOBAL_TXN_BASE) as usize];
            (e.tick * paced.dist.tick_us).saturating_sub(at)
        })
        .collect();
    latency_us.sort_unstable();
    let late_us = seen.metrics.counter("dist.net.late_us") as f64
        / seen.metrics.counter("dist.net.dispatches").max(1) as f64;
    println!(
        "pipeline smoke OK: 12/12 green (base {seed_base}), tput {:.1}/ms vs serial {:.1}/ms; \
         paced p50 {} us, mean dispatch lateness {:.1} us",
        pipe_tput,
        serial_tput,
        latency_us[latency_us.len() / 2],
        late_us
    );
    ExitCode::SUCCESS
}

fn seed_base(args: &[String]) -> u64 {
    args.iter()
        .position(|a| a == "--seed-base")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => hunt(),
        Some("--smoke") => smoke(seed_base(&args)),
        Some("--pipeline-smoke") => pipeline_smoke(seed_base(&args)),
        Some(flag @ ("--campaign" | "--pipeline-campaign")) => {
            let (label, schedule) = if flag == "--campaign" {
                ("dist.campaign", UNBATCHED)
            } else {
                ("dist.pipeline.campaign", PIPELINED)
            };
            match args.get(1).and_then(|s| s.parse().ok()) {
                Some(n) => campaign(label, &hardened_campaign(schedule), n, seed_base(&args)),
                None => {
                    eprintln!("usage: dist_stress -- {flag} <n> [--seed-base <b>]");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--replay") => match args.get(1) {
            Some(path) => replay(path),
            None => {
                eprintln!("usage: dist_stress -- --replay <artifact.json>");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!(
                "unknown argument {other}; usage: dist_stress [--smoke | --campaign <n> | --pipeline-smoke | --pipeline-campaign <n> | --replay <file>] [--seed-base <b>]"
            );
            ExitCode::FAILURE
        }
    }
}
