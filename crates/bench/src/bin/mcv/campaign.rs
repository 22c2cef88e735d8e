//! `mcv chaos …` and `mcv dist …`: seeded fault campaigns over the
//! commit protocols in the deterministic simulator (`Scenario`) and
//! on live per-shard engines (`PipelineConfig`). One hunt, one sweep and
//! one replay serve both `mcv_chaos::Target`s.

use mcv_bench::cli::Args;
use mcv_chaos::{replay_command, Artifact, Campaign, FaultPlan, Target};
use mcv_commit::Scenario;
use mcv_dist::{run_pipeline, tolerated_campaign, DistConfig, PipelineConfig};
use std::path::Path;

pub fn run(args: &Args) -> bool {
    let base = args.get("--seed-base").unwrap_or(0);
    let file = || args.get::<String>("FILE").expect("a required positional");
    let n = || args.get("N").expect("a required positional");
    match args.command {
        "chaos hunt" => hunt(&chaos_campaign(false), 200, &chaos_campaign(true), 200),
        "chaos smoke" => chaos_smoke(base),
        "chaos replay" => replay::<Scenario>(&file()),
        "dist hunt" => hunt(&hardened(UNBATCHED), 40, &naive(), 8),
        "dist smoke" => dist_smoke(base),
        "dist pipeline-smoke" => pipeline_smoke(base),
        "dist campaign" => sweep("dist.campaign", &hardened(UNBATCHED), base, n()),
        "dist pipeline-campaign" => {
            sweep("dist.pipeline.campaign", &hardened(PIPELINED), base, n())
        }
        "dist replay" => replay::<PipelineConfig>(&file()),
        other => unreachable!("`{other}` is not a campaign command"),
    }
}

/// Tolerated faults over the simulated 3PC: the naive Figure 3.2
/// timeouts, or election + quorum termination.
fn chaos_campaign(naive: bool) -> Campaign<Scenario> {
    let base =
        Scenario { naive_timeouts: naive, quorum_termination: !naive, ..Scenario::default() };
    let plan = FaultPlan::tolerated(base.n_procs(), 300);
    Campaign::new(base, plan)
}

/// The two submission schedules the dist gates sweep, as
/// `(max_inflight, batch_window_us)`: unbatched (every plan at once over
/// the per-message transport — the campaigns run one transaction) and
/// pipelined (an 8-wide window over 600 us link batches).
const UNBATCHED: (usize, u64) = (1, 0);
const PIPELINED: (usize, u64) = (8, 600);

fn scheduled(dist: DistConfig, (max_inflight, batch_window_us): (usize, u64)) -> PipelineConfig {
    PipelineConfig { dist, max_inflight, batch_window_us, arrival_us: None }
}

/// Tolerated faults over the hardened cross-shard protocol, under
/// `schedule`.
fn hardened(schedule: (usize, u64)) -> Campaign<PipelineConfig> {
    tolerated_campaign(scheduled(DistConfig { n_txns: 1, ..DistConfig::default() }, schedule))
}

/// The deliberately unsafe cross-shard configuration: naive Figure 3.2
/// timeouts with the coordinator crashing after sending prepare to only
/// the first shard — shard 1 times out prepared (commit), the rest time
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

/// An empty plan over the naive configuration: the targeted crash alone
/// exposes the bug, so the hunt starts from a fault-free schedule and
/// the shrinker only has topology and transaction count to reduce.
fn naive() -> Campaign<PipelineConfig> {
    let mut c = tolerated_campaign(naive_config());
    c.plan.crashes = false;
    c.plan.partitions = false;
    c.plan.drop_windows = false;
    c.plan.torn_writes = false;
    c
}

/// Sweeps `n` seeds from `base` and prints the per-oracle tallies;
/// true when every run passed every oracle.
fn sweep<T: Target>(label: &str, campaign: &Campaign<T>, base: u64, n: u64) -> bool {
    println!("=== {label}: {n} seeds (base {base}) of tolerated faults ===\n");
    let summary = campaign.run_seeds(base, n);
    println!("{}", summary.to_report(label).summary());
    if summary.all_green() {
        println!("all green");
    } else {
        println!("failures: {:?}", summary.failures);
    }
    summary.all_green()
}

/// Prints where the flight recorder localizes a divergence, if any.
fn explain(trace: &mcv_trace::CausalTrace) {
    if let Some(localized) = mcv_trace::explain_divergence(trace) {
        println!("\nflight recorder localizes the divergence:\n{localized}");
    }
}

/// The control sweep must stay green; the naive hunt must find, shrink
/// and write a counterexample.
fn hunt<T: Target>(control: &Campaign<T>, seeds: u64, naive: &Campaign<T>, hunt: u64) -> bool {
    if !sweep(&format!("{}.control", T::KIND), control, 0, seeds) {
        println!("the hardened protocol regressed");
        return false;
    }
    println!("\n=== naive Figure 3.2 timeouts: hunting over {hunt} seeds ===\n");
    let Some(v) = naive.hunt(hunt) else {
        println!("no violation found — unexpected for the naive variant");
        return false;
    };
    let schedule = v.artifact.config.schedule();
    println!(
        "seed {} violated {}: shrunk {} -> {} fault events in {} runs",
        v.seed,
        v.oracle,
        v.original_events,
        schedule.len(),
        v.shrink_runs
    );
    println!("evidence: {}", v.artifact.detail);
    schedule.events.iter().for_each(|ev| println!("  {ev:?}"));
    let dir = format!("target/{}", T::KIND);
    std::fs::create_dir_all(&dir).expect("create the artifact directory");
    let path = v.artifact.write(&dir).expect("write artifact");
    let trace_path = v.artifact.write_trace(&dir, &v.trace).expect("write trace");
    println!("\nartifact: {}", path.display());
    println!("trace:    {} ({} causal events)", trace_path.display(), v.trace.len());
    explain(&v.trace);
    println!("replay:   {}", replay_command(T::REPLAY_COMMAND, &path.display().to_string()));
    true
}

fn replay<T: Target>(path: &str) -> bool {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let artifact = match text.and_then(|t| {
        Artifact::<T>::from_json(&t).map_err(|e| format!("malformed artifact {path}: {e}"))
    }) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    println!("replaying {} (oracle {})", artifact.id, artifact.violated);
    let out = artifact.replay();
    for o in T::oracles(&out).iter().filter(|o| !o.pass) {
        println!("FAIL {}: {}", o.name, o.detail);
    }
    let violated = T::oracles(&out).iter().any(|o| o.name == artifact.violated && !o.pass);
    // The replay re-records the trace; dump it next to the artifact so
    // the causal evidence ships with the repro.
    let trace = T::trace(out);
    let dir = Path::new(path).parent().unwrap_or(Path::new("."));
    match artifact.write_trace(dir, &trace) {
        Ok(p) => println!("causal trace: {} ({} events)", p.display(), trace.len()),
        Err(e) => eprintln!("could not write the causal trace: {e}"),
    }
    explain(&trace);
    let reproduced = violated || artifact.reproduces();
    if reproduced {
        println!("reproduced");
    } else {
        println!("did NOT reproduce — artifact and code have diverged");
    }
    reproduced
}

fn chaos_smoke(seed_base: u64) -> bool {
    // Fixed seeds, bounded work: suitable for every CI run. The flake
    // detector passes distinct `--seed-base` values to draw disjoint
    // seed populations per round — that only applies to the hardened
    // sweep, whose all-green claim must hold for *every* population.
    let green = chaos_campaign(false).run_seeds(seed_base, 50);
    if !green.all_green() {
        println!("chaos smoke: hardened protocol regressed: {:?}", green.failures);
        return false;
    }
    // The oracles-have-teeth canary stays pinned at base 0: whether the
    // naive variant happens to split is a property of the seed
    // population (base 1000's 50 schedules contain no split-brain), so
    // re-seeding it would report protocol luck as CI flakiness.
    let red = chaos_campaign(true).run_seeds(0, 50);
    if red.failures.iter().all(|(_, o)| o != "ac1_agreement") {
        println!("chaos smoke: naive variant no longer splits — oracles may have gone blind");
        return false;
    }
    println!(
        "chaos smoke OK: hardened 50/50 green (base {seed_base}), naive red on {} seeds",
        red.failures.len()
    );
    true
}

fn dist_smoke(seed_base: u64) -> bool {
    // Fixed seeds, bounded work: suitable for every CI run.
    let green = hardened(UNBATCHED).run_seeds(seed_base, 12);
    if !green.all_green() {
        println!("dist smoke: hardened protocol regressed: {:?}", green.failures);
        return false;
    }
    let cfg = naive_config();
    let split = (0..3).any(|_| {
        let out = run_pipeline(&cfg);
        out.violates("atomicity") || out.violates("ac1_agreement")
    });
    if !split {
        println!("dist smoke: naive variant no longer splits — oracles may have gone blind");
        return false;
    }
    println!("dist smoke OK: hardened 12/12 green (base {seed_base}), naive variant splits");
    true
}

fn pipeline_smoke(seed_base: u64) -> bool {
    // The same fixed seeds, fault schedules and oracles as the dist
    // smoke, under the windowed, batched schedule.
    let green = hardened(PIPELINED).run_seeds(seed_base, 12);
    if !green.all_green() {
        println!("pipeline smoke: pipelined schedule regressed: {:?}", green.failures);
        return false;
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
        return false;
    }
    let serial_tput = serial.stats.committed as f64 / serial.stats.wall_ms.max(1) as f64;
    let pipe_tput = pipe.stats.committed as f64 / pipe.stats.wall_ms.max(1) as f64;
    if pipe_tput < serial_tput * 2.0 {
        println!(
            "pipeline smoke: pipelined tput ({:.1}/ms) did not clear 2x serial ({:.1}/ms)",
            pipe_tput, serial_tput
        );
        return false;
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
    let (out, seen) = mcv_obs::collect(|| run_pipeline(&paced));
    if out.violated().is_some() || out.stats.committed != arrivals.len() as u64 {
        println!("pipeline smoke: paced run failed: {:?}", out.violated());
        return false;
    }
    let mut latency_us: Vec<u64> = out
        .commit_log
        .iter()
        .map(|e| {
            let at = arrivals[(e.txn - mcv_dist::GLOBAL_TXN_BASE) as usize];
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
    true
}
