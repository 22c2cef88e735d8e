//! Open-loop load stress: arrivals keep coming whether or not the
//! engine keeps up, so overload, shedding, and crash-recovery latency
//! are measurable — and judged by the same oracles as every other
//! driver in the repo.
//!
//! ```text
//! cargo run --release --example load_stress                  # one Poisson run
//! cargo run --release --example load_stress -- \
//!     --rate 4000 --duration-ms 300 --queue-cap 16           # tuned overload
//! cargo run --release --example load_stress -- --smoke       # CI gate
//! cargo run --release --example load_stress -- --flash-crowd # 3x crowd + curve
//! cargo run --release --example load_stress -- \
//!     --crash-shard --seeds 100 --seed-base 0                # recovery-SLO campaign
//! cargo run --release --example load_stress -- --dist        # cross-shard stream
//! ```
//!
//! Flags: `--rate TPS` (offered Poisson rate), `--duration-ms N`,
//! `--sessions N` (zipfian user population), `--engines N`,
//! `--queue-cap N` (admission queue bound), `--drop` (shed by dropping
//! instead of retry-after), `--seeds N` (campaign size),
//! `--seed N`, `--seed-base N` (campaign seed origin, defaults to
//! `--seed` — `./ci flake` shifts whole campaigns to disjoint bases).
//!
//! `--smoke` is the `./ci` gate: an underload run (everything commits
//! in deadline), an overload run against a throttled engine (sheds at
//! admission, goodput survives, oracles green), a 3-seed
//! crash-during-flash-crowd campaign (recovery within the SLO window),
//! and a group-commit run over a 300 us device at 12 000 txn/s (at
//! least 90% commits at under half a force per commit: workers must
//! not sit out the device).
//!
//! `--flash-crowd` runs one 3x flash crowd and prints the windowed-p99
//! time series, the visible signature of the crowd arriving and the
//! shedding holding the line.
//!
//! `--crash-shard` is the full campaign behind `exp.slo`: N seeded
//! flash-crowd runs, each crashing engine 1 mid-crowd and recovering
//! it from its frozen WAL image; passes when ≥ 90% of runs are back
//! under the p99 target within the SLO window and no run trips an
//! oracle.

use mcv::load::{
    crash_campaign_template, run_dist_stream, run_load, run_slo_campaign, ArrivalProcess,
    DistStreamConfig, LoadConfig, LoadProfile, ShedPolicy, SloCampaignConfig,
};
use std::process::ExitCode;

#[derive(Clone)]
struct Args {
    rate_tps: f64,
    duration_ms: u64,
    sessions: usize,
    engines: usize,
    queue_cap: usize,
    drop: bool,
    seeds: u64,
    seed: u64,
    seed_base: Option<u64>,
    smoke: bool,
    flash_crowd: bool,
    crash_shard: bool,
    dist: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            rate_tps: 1_500.0,
            duration_ms: 250,
            sessions: 1_000_000,
            engines: 1,
            queue_cap: 64,
            drop: false,
            seeds: 100,
            seed: 42,
            seed_base: None,
            smoke: false,
            flash_crowd: false,
            crash_shard: false,
            dist: false,
        }
    }
}

impl Args {
    /// Campaign seed origin: `--seed-base` when given, else `--seed`.
    fn base(&self) -> u64 {
        self.seed_base.unwrap_or(self.seed)
    }

    fn config(&self) -> LoadConfig {
        LoadConfig {
            profile: LoadProfile {
                process: ArrivalProcess::Poisson { rate_tps: self.rate_tps },
                duration_us: self.duration_ms * 1_000,
                sessions: self.sessions,
                session_theta: 0.8,
                seed: self.seed,
            },
            engines: self.engines,
            queue_cap: self.queue_cap,
            policy: if self.drop {
                ShedPolicy::Drop
            } else {
                ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 }
            },
            ..Default::default()
        }
    }
}

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let next_num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rate" => args.rate_tps = next_num(&mut it, "--rate")? as f64,
            "--duration-ms" => args.duration_ms = next_num(&mut it, "--duration-ms")?,
            "--sessions" => args.sessions = next_num(&mut it, "--sessions")? as usize,
            "--engines" => args.engines = next_num(&mut it, "--engines")?.max(1) as usize,
            "--queue-cap" => args.queue_cap = next_num(&mut it, "--queue-cap")?.max(1) as usize,
            "--seeds" => args.seeds = next_num(&mut it, "--seeds")?.max(1),
            "--seed" => args.seed = next_num(&mut it, "--seed")?,
            "--seed-base" => args.seed_base = Some(next_num(&mut it, "--seed-base")?),
            "--drop" => args.drop = true,
            "--smoke" => args.smoke = true,
            "--flash-crowd" => args.flash_crowd = true,
            "--crash-shard" => args.crash_shard = true,
            "--dist" => args.dist = true,
            "--help" | "-h" => {
                return Err("usage: load_stress [--rate TPS] [--duration-ms N] [--sessions N] \
                            [--engines N] [--queue-cap N] [--drop] [--seeds N] [--seed N] \
                            [--seed-base N] [--smoke] [--flash-crowd] [--crash-shard] [--dist]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(args)
}

/// Prints the report, the admission-counter family and the pacer's
/// (with how late it dispatched, on average); true when the run kept
/// every oracle and resolved every arrival.
fn judge(report: &mcv::load::LoadReport) -> bool {
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

fn run_once(args: &Args) -> ExitCode {
    let cfg = args.config();
    println!(
        "load_stress: {:.0} txn/s offered for {} ms over {} sessions, {} engine(s), \
         queue cap {}, policy {:?}",
        args.rate_tps, args.duration_ms, args.sessions, args.engines, args.queue_cap, cfg.policy,
    );
    let report = run_load(&cfg);
    if judge(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn flash_crowd(args: &Args) -> ExitCode {
    let mut cfg = args.config();
    let d = cfg.profile.duration_us;
    cfg.profile.process = ArrivalProcess::FlashCrowd {
        base_tps: args.rate_tps,
        peak_tps: 3.0 * args.rate_tps,
        start_us: d / 4,
        end_us: 3 * d / 4,
    };
    println!(
        "load_stress: flash crowd {:.0} -> {:.0} txn/s in [{}, {}] ms of a {} ms run",
        args.rate_tps,
        3.0 * args.rate_tps,
        d / 4_000,
        3 * d / 4_000,
        args.duration_ms,
    );
    let report = run_load(&cfg);
    println!("\nwindowed p99 (window {} ms):", cfg.p99_window_us / 1_000);
    for (end_us, p99) in report.p99_curve(cfg.p99_window_us) {
        let bar = "#".repeat(((p99 / 2_000) as usize).min(60));
        println!("  t={:>4} ms  p99 {:>7} us  {bar}", end_us / 1_000, p99);
    }
    if judge(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn crash_shard(args: &Args) -> ExitCode {
    let mut base = crash_campaign_template();
    base.profile.sessions = args.sessions;
    println!(
        "load_stress: crash-shard campaign, {} seeds from base {}, flash crowd \
         {:?}, crash {:?}",
        args.seeds,
        args.base(),
        base.profile.process,
        base.crash,
    );
    let campaign = run_slo_campaign(&SloCampaignConfig {
        base,
        seeds: args.seeds,
        seed_base: args.base(),
        slo_ms: 500,
    });
    println!("\n{}", campaign.summary());
    let ok = campaign.slo_fraction() >= 0.9
        && campaign.oracle_failures == 0
        && campaign.unresolved_runs == 0;
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("CAMPAIGN FAILED: need >= 90% within SLO, zero oracle failures/unresolved");
        ExitCode::FAILURE
    }
}

fn dist_stream(args: &Args) -> ExitCode {
    let mut cfg = DistStreamConfig::default();
    cfg.profile.seed = args.seed;
    println!(
        "load_stress: cross-shard open-loop stream, {:?} for {} ms over {} shards",
        cfg.profile.process,
        cfg.profile.duration_us / 1_000,
        cfg.n_shards,
    );
    let report = run_dist_stream(&cfg);
    println!("\n{}", report.summary());
    let conserved = report.committed + report.aborted == report.arrivals;
    if report.oracles_ok() && conserved {
        ExitCode::SUCCESS
    } else {
        eprintln!("DIST STREAM FAILED: oracles {} conserved {conserved}", report.oracles_ok());
        ExitCode::FAILURE
    }
}

/// The `./ci` gate: underload commits everything, overload sheds
/// without collapsing, a small crash campaign recovers within SLO, the
/// modeled device batches instead of stalling workers.
fn smoke(base_seed: u64) -> ExitCode {
    let mut failed = false;

    // Leg 1 — underload: a healthy engine at a comfortable rate
    // commits every arrival within its deadline budget.
    println!("--- smoke leg 1: underload ---");
    let under = run_load(&LoadConfig {
        profile: LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 1_000.0 },
            duration_us: 150_000,
            sessions: 100_000,
            session_theta: 0.8,
            seed: base_seed,
        },
        ..Default::default()
    });
    let under_ok = judge(&under) && under.committed == under.arrivals;
    if !under_ok {
        eprintln!("underload leg FAILED: every arrival must commit");
        failed = true;
    }

    // Leg 2 — overload: a throttled engine (no group commit, 2 ms
    // force) at far past capacity must shed at admission, keep
    // committing, and keep every oracle green.
    println!("\n--- smoke leg 2: overload sheds ---");
    let over = run_load(&LoadConfig {
        profile: LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 8_000.0 },
            duration_us: 150_000,
            sessions: 100_000,
            session_theta: 0.8,
            seed: base_seed + 1,
        },
        engine: mcv::engine::EngineConfig {
            group_commit: false,
            force_latency_us: 2_000,
            ..Default::default()
        },
        queue_cap: 16,
        ..Default::default()
    });
    let over_ok = judge(&over) && over.shed > 0 && over.committed > 0;
    if !over_ok {
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
        profile: LoadProfile {
            process: ArrivalProcess::Poisson { rate_tps: 12_000.0 },
            duration_us: 150_000,
            sessions: 100_000,
            session_theta: 0.8,
            seed: base_seed + 2,
        },
        engine: mcv::engine::EngineConfig { force_latency_us: 300, ..Default::default() },
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
    let batched_ok =
        judge(&batched) && 10 * batched.committed >= 9 * batched.arrivals && 2 * forces < commits;
    if !batched_ok {
        eprintln!(
            "device leg FAILED: need >= 90% of arrivals committed at < 0.5 forces per commit"
        );
        failed = true;
    }

    if failed {
        eprintln!("\nload smoke FAILED");
        ExitCode::FAILURE
    } else {
        println!(
            "\nload smoke OK: underload commits, overload sheds, crash recovers, \
             the device batches"
        );
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        smoke(args.base())
    } else if args.crash_shard {
        crash_shard(&args)
    } else if args.flash_crowd {
        flash_crowd(&args)
    } else if args.dist {
        dist_stream(&args)
    } else {
        run_once(&args)
    }
}
