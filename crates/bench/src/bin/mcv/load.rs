//! `mcv load …`: open-loop load. Arrivals keep coming whether or not
//! the engine keeps up, so overload, shedding and crash-recovery
//! latency are measurable, and judged by the same oracles as every
//! other driver plus an admission ledger. Seed base: `--seed-base`, else
//! `--seed`, else 42.

use mcv_bench::cli::Args;
use mcv_load::{
    crash_campaign_template, run_dist_stream, run_load, run_slo_campaign, ArrivalProcess,
    DistStreamConfig, LoadConfig, LoadProfile, LoadReport, ShedPolicy, SloCampaignConfig,
};

pub fn run(args: &Args) -> bool {
    let base = args.get("--seed-base").or(args.get("--seed")).unwrap_or(42);
    match args.command {
        "load run" => judge(&run_load(&config(args, false))),
        "load smoke" => smoke(base),
        "load flash-crowd" => flash_crowd(args),
        "load crash-shard" => crash_shard(args, base),
        "load dist" => dist_stream(args.get("--seed").unwrap_or(42)),
        other => unreachable!("`{other}` is not a load command"),
    }
}

/// The run the flags describe; a 3x crowd over its middle half with
/// `crowd`.
fn config(args: &Args, crowd: bool) -> LoadConfig {
    let rate_tps = args.get::<u64>("--rate").unwrap_or(1_500) as f64;
    let duration_us = args.get::<u64>("--duration-ms").unwrap_or(250) * 1_000;
    let process = if crowd {
        let (start_us, end_us) = (duration_us / 4, 3 * duration_us / 4);
        ArrivalProcess::FlashCrowd {
            base_tps: rate_tps,
            peak_tps: 3.0 * rate_tps,
            start_us,
            end_us,
        }
    } else {
        ArrivalProcess::Poisson { rate_tps }
    };
    let cfg = LoadConfig {
        profile: LoadProfile {
            process,
            duration_us,
            sessions: args.get("--sessions").unwrap_or(1_000_000),
            session_theta: 0.8,
            seed: args.get("--seed").unwrap_or(42),
        },
        engines: args.get("--engines").unwrap_or(1).max(1),
        queue_cap: args.get("--queue-cap").unwrap_or(64).max(1),
        policy: if args.has("--drop") {
            ShedPolicy::Drop
        } else {
            ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 }
        },
        ..Default::default()
    };
    println!(
        "load: {:?} for {} ms over {} sessions, {} engine(s), queue cap {}, policy {:?}",
        cfg.profile.process,
        duration_us / 1_000,
        cfg.profile.sessions,
        cfg.engines,
        cfg.queue_cap,
        cfg.policy,
    );
    cfg
}

/// Prints the report, the admission-counter family and the pacer's
/// (with how late it dispatched, on average); true when the run kept
/// every oracle and resolved every arrival.
fn judge(report: &LoadReport) -> bool {
    println!("\n{}", report.summary());
    let m = &report.metrics;
    for (name, v) in m.family("engine.admit.").into_iter().chain(m.family("load.pacer.")) {
        println!("  {name:<28} {v}");
    }
    let late_us =
        m.counter("load.pacer.late_us") as f64 / m.counter("load.pacer.dispatches").max(1) as f64;
    println!("  {:<28} {late_us:.1} us", "mean pacer lateness");
    let conserved = report.committed + report.dropped + report.deadline_missed + report.crash_lost
        == report.arrivals;
    if !conserved {
        eprintln!("CONSERVATION VIOLATION: terminal states do not sum to arrivals");
    }
    if report.unresolved > 0 {
        eprintln!("{} arrivals left unresolved at the drain cap", report.unresolved);
    }
    if !report.oracles_ok() {
        eprintln!("ORACLE VIOLATION — see report above");
    }
    conserved && report.unresolved == 0 && report.oracles_ok()
}

fn flash_crowd(args: &Args) -> bool {
    let cfg = config(args, true);
    let report = run_load(&cfg);
    println!("\nwindowed p99 (window {} ms):", cfg.p99_window_us / 1_000);
    for (end_us, p99) in report.p99_curve(cfg.p99_window_us) {
        let bar = "#".repeat(((p99 / 2_000) as usize).min(60));
        println!("  t={:>4} ms  p99 {:>7} us  {bar}", end_us / 1_000, p99);
    }
    judge(&report)
}

fn crash_shard(args: &Args, seed_base: u64) -> bool {
    let mut base = crash_campaign_template();
    base.profile.sessions = args.get("--sessions").unwrap_or(1_000_000);
    let seeds = args.get("--seeds").unwrap_or(100).max(1);
    println!(
        "load: crash-shard campaign, {seeds} seeds from base {seed_base}, flash crowd {:?}, \
         crash {:?}",
        base.profile.process, base.crash,
    );
    let campaign = run_slo_campaign(&SloCampaignConfig { base, seeds, seed_base, slo_ms: 500 });
    println!("\n{}", campaign.summary());
    let ok = campaign.slo_fraction() >= 0.9
        && campaign.oracle_failures == 0
        && campaign.unresolved_runs == 0;
    if !ok {
        eprintln!("CAMPAIGN FAILED: need >= 90% within SLO, zero oracle failures/unresolved");
    }
    ok
}

fn dist_stream(seed: u64) -> bool {
    let mut cfg = DistStreamConfig::default();
    cfg.profile.seed = seed;
    println!(
        "load: cross-shard open-loop stream, {:?} for {} ms over {} shards",
        cfg.profile.process,
        cfg.profile.duration_us / 1_000,
        cfg.n_shards,
    );
    let report = run_dist_stream(&cfg);
    println!("\n{}", report.summary());
    let conserved = report.committed + report.aborted == report.arrivals;
    if !(report.oracles_ok() && conserved) {
        eprintln!("DIST STREAM FAILED: oracles {} conserved {conserved}", report.oracles_ok());
    }
    report.oracles_ok() && conserved
}

/// A 150 ms Poisson leg over 100 000 sessions.
fn leg(rate_tps: f64, seed: u64) -> LoadProfile {
    LoadProfile {
        process: ArrivalProcess::Poisson { rate_tps },
        duration_us: 150_000,
        sessions: 100_000,
        session_theta: 0.8,
        seed,
    }
}

/// The `./ci` gate: underload commits everything, overload sheds
/// without collapsing, a small crash campaign recovers within SLO, the
/// modeled device batches instead of stalling workers.
fn smoke(base_seed: u64) -> bool {
    let mut failed = false;

    // Leg 1 — underload: a healthy engine at a comfortable rate
    // commits every arrival within its deadline budget.
    println!("--- smoke leg 1: underload ---");
    let under = run_load(&LoadConfig { profile: leg(1_000.0, base_seed), ..Default::default() });
    if !(judge(&under) && under.committed == under.arrivals) {
        eprintln!("underload leg FAILED: every arrival must commit");
        failed = true;
    }

    // Leg 2 — overload: a throttled engine (no group commit, 2 ms
    // force) at far past capacity must shed at admission, keep
    // committing, and keep every oracle green.
    println!("\n--- smoke leg 2: overload sheds ---");
    let over = run_load(&LoadConfig {
        profile: leg(8_000.0, base_seed + 1),
        engine: mcv_engine::EngineConfig {
            group_commit: false,
            force_latency_us: 2_000,
            ..Default::default()
        },
        queue_cap: 16,
        ..Default::default()
    });
    if !(judge(&over) && over.shed > 0 && over.committed > 0) {
        eprintln!("overload leg FAILED: must shed and keep committing");
        failed = true;
    }

    // Leg 3 — crash under load: a 3-seed flash-crowd campaign with a
    // mid-crowd shard crash; recovery within the SLO window.
    println!("\n--- smoke leg 3: crash recovery ---");
    let mut tmpl = crash_campaign_template();
    tmpl.profile.sessions = 100_000;
    let campaign = run_slo_campaign(&SloCampaignConfig {
        base: tmpl,
        seeds: 3,
        seed_base: base_seed + 100,
        slo_ms: 500,
    });
    println!("{}", campaign.summary());
    if campaign.recovered_within_slo < 2
        || campaign.oracle_failures > 0
        || campaign.unresolved_runs > 0
    {
        eprintln!("crash leg FAILED: need >= 2/3 within SLO and clean oracles");
        failed = true;
    }

    // Leg 4 — the device is a batching window, not a per-worker
    // stall: group commit over a 300 us device, offered about twice
    // what four workers that each wait out the force themselves commit
    // (they shed the other half).
    println!("\n--- smoke leg 4: workers do not wait for the device ---");
    let batched = run_load(&LoadConfig {
        profile: leg(12_000.0, base_seed + 2),
        engine: mcv_engine::EngineConfig { force_latency_us: 300, ..Default::default() },
        items_per_engine: 10_000,
        policy: ShedPolicy::Drop,
        ..Default::default()
    });
    let forces = batched.metrics.counter("engine.wal.forces");
    let commits = batched.metrics.counter("engine.wal.commits");
    println!(
        "  {forces} forces for {commits} commit records, {} acknowledged by the log writer",
        batched.metrics.counter("engine.wal.deferred_acks")
    );
    if !(judge(&batched) && 10 * batched.committed >= 9 * batched.arrivals && 2 * forces < commits)
    {
        eprintln!(
            "device leg FAILED: need >= 90% of arrivals committed at < 0.5 forces per commit"
        );
        failed = true;
    }

    if failed {
        eprintln!("\nload smoke FAILED");
    } else {
        println!(
            "\nload smoke OK: underload commits, overload sheds, crash recovers, \
             the device batches"
        );
    }
    !failed
}
