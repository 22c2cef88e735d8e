//! Chaos campaign over the executable commit protocols: sweep random
//! but replayable fault schedules, check the atomic-commitment oracles,
//! and shrink any violation to a minimal counterexample.
//!
//! Three modes:
//!
//! - `cargo run --release --example chaos_hunt` — hunt: a 200-seed
//!   campaign against the naive Figure 3.2 timeout variant. Finds the
//!   split-brain, shrinks it, writes the repro artifact to
//!   `target/chaos/`, and prints the exact replay command.
//! - `cargo run --release --example chaos_hunt -- --replay <file>` —
//!   re-execute a written artifact and report whether it still
//!   violates its oracle (it must: runs are byte-deterministic).
//! - `cargo run --release --example chaos_hunt -- --smoke` — the CI
//!   gate: a bounded fixed-seed sweep that must be all-green for the
//!   election + quorum-termination protocol and must stay red for the
//!   naive variant. Exits non-zero otherwise.

use mcv::chaos::{Artifact, Campaign, ChaosConfig, FaultPlan, Target};
use std::process::ExitCode;

fn naive_campaign() -> Campaign<ChaosConfig> {
    let base = ChaosConfig { naive_timeouts: true, ..ChaosConfig::default() };
    let plan = FaultPlan::tolerated(base.n_procs(), 300);
    Campaign::new(base, plan)
}

fn hardened_campaign() -> Campaign<ChaosConfig> {
    let base = ChaosConfig { quorum_termination: true, ..ChaosConfig::default() };
    let plan = FaultPlan::tolerated(base.n_procs(), 300);
    Campaign::new(base, plan)
}

fn hunt() -> ExitCode {
    println!("=== Chaos hunt: naive Figure 3.2 timeouts, 200 seeds of tolerated faults ===\n");
    let campaign = naive_campaign();
    let summary = campaign.run_seeds(0, 200);
    println!(
        "{} runs, {} violating seeds: {:?}\n",
        summary.runs,
        summary.failures.len(),
        summary.failures.iter().take(8).collect::<Vec<_>>()
    );

    let Some(v) = campaign.hunt(200) else {
        println!("no violation found — unexpected for the naive variant");
        return ExitCode::FAILURE;
    };
    println!(
        "seed {} violated {}: shrunk {} -> {} fault events in {} runs",
        v.seed,
        v.oracle,
        v.original_events,
        v.artifact.config.schedule.len(),
        v.shrink_runs
    );
    println!("evidence: {}", v.artifact.detail);
    for ev in &v.artifact.config.schedule.events {
        println!("  {ev:?}");
    }

    std::fs::create_dir_all("target/chaos").expect("create target/chaos");
    let path = v.artifact.write("target/chaos").expect("write artifact");
    let trace_path = v.artifact.write_trace("target/chaos", &v.trace).expect("write trace");
    println!("\nartifact: {}", path.display());
    println!(
        "trace:    {} ({} events in the flight-recorder window)",
        trace_path.display(),
        v.trace.len()
    );
    if let Some(localized) = mcv::trace::explain_divergence(&v.trace) {
        println!("\nflight recorder localizes the divergence:\n{localized}");
    }
    println!("replay:   cargo run --release --example chaos_hunt -- --replay {}", path.display());

    println!("\n=== Control: election + quorum termination, same faults, 200 seeds ===\n");
    let control = hardened_campaign().run_seeds(0, 200);
    println!("{}", control.to_report("chaos.control").summary());
    if control.all_green() {
        println!("control is all-green: the split brain is the naive timeouts' fault");
        ExitCode::SUCCESS
    } else {
        println!("control failed: {:?}", control.failures);
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
    let artifact = match Artifact::<ChaosConfig>::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("malformed artifact {path}: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    println!("replaying {} (oracle {})", artifact.id, artifact.violated);
    let out = artifact.replay();
    print!("{}", out.fingerprint);
    for o in &out.oracles {
        if !o.pass {
            println!("FAIL {}: {}", o.name, o.detail);
        }
    }
    // The replay re-records the flight recorder; dump its window next
    // to the artifact so the causal evidence ships with the repro.
    let dir = std::path::Path::new(path).parent().unwrap_or(std::path::Path::new("."));
    match artifact.write_trace(dir, &out.trace) {
        Ok(p) => println!("flight recorder: {} ({} events)", p.display(), out.trace.len()),
        Err(e) => eprintln!("could not write flight-recorder dump: {e}"),
    }
    if let Some(localized) = mcv::trace::explain_divergence(&out.trace) {
        println!("\nflight recorder localizes the divergence:\n{localized}");
    }
    if out.violates(&artifact.violated) {
        println!("reproduced: the violation is deterministic");
        ExitCode::SUCCESS
    } else {
        println!("did NOT reproduce — artifact and code have diverged");
        ExitCode::FAILURE
    }
}

fn smoke(seed_base: u64) -> ExitCode {
    // Fixed seeds, bounded work: suitable for every CI run. The flake
    // detector passes distinct `--seed-base` values to draw disjoint
    // seed populations per round — that only applies to the hardened
    // sweep, whose all-green claim must hold for *every* population.
    let green = hardened_campaign().run_seeds(seed_base, 50);
    if !green.all_green() {
        println!("chaos smoke: hardened protocol regressed: {:?}", green.failures);
        return ExitCode::FAILURE;
    }
    // The oracles-have-teeth canary stays pinned at base 0: whether the
    // naive variant happens to split is a property of the seed
    // population (base 1000's 50 schedules contain no split-brain), so
    // re-seeding it would report protocol luck as CI flakiness.
    let red = naive_campaign().run_seeds(0, 50);
    if red.failures.iter().all(|(_, o)| o != "ac1_agreement") {
        println!("chaos smoke: naive variant no longer splits — oracles may have gone blind");
        return ExitCode::FAILURE;
    }
    println!(
        "chaos smoke OK: hardened 50/50 green (base {seed_base}), naive red on {} seeds",
        red.failures.len()
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
        Some("--replay") => match args.get(1) {
            Some(path) => replay(path),
            None => {
                eprintln!(
                    "usage: chaos_hunt [--smoke [--seed-base <b>] | --replay <artifact.json>]"
                );
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!(
                "unknown argument {other}; usage: chaos_hunt [--smoke [--seed-base <b>] | --replay <file>]"
            );
            ExitCode::FAILURE
        }
    }
}
