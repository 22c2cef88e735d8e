//! `mcv prof …`: the three `mcv-prof` surfaces — the ring profiler on
//! an engine run, the critical-path analyzer on cross-shard traces and
//! the telemetry stream of an open-loop run — each judged by its own
//! invariant. Seed base: `--seed-base`, else `--seed`, else 7.

use mcv_bench::cli::Args;
use mcv_bench::{attribution_dist, group_commit_driver, telemetry_load};
use mcv_prof::{
    attribute_commits, strip_wall_all, telemetry_jsonl, with_profiler, AttributionTable, Profiler,
    Timeline,
};

pub fn run(args: &Args) -> bool {
    let seed = args.get("--seed").unwrap_or(7);
    match args.command {
        "prof run" => verbose(seed),
        "prof smoke" => {
            smoke(args.get("--seed-base").unwrap_or(seed), args.get("--seeds").unwrap_or(5))
        }
        other => unreachable!("`{other}` is not a prof command"),
    }
}

/// Runs one instrumented cross-shard round and judges the per-seed
/// structural invariants (oracles, path count, exact tiling, >= 90%
/// attribution); returns the commit-path timelines for the merged
/// campaign table.
fn judge_dist(seed: u64) -> (bool, AttributionTable, Vec<Timeline>) {
    let o = mcv_dist::run_pipeline(&attribution_dist(seed));
    let (table, paths) = attribute_commits(&o.trace);
    let mut ok = o.violated().is_none();
    if !ok {
        eprintln!("seed {seed}: oracle violated: {:?}", o.violated());
    }
    if paths.len() != 8 {
        eprintln!("seed {seed}: {} commit paths for 8 fault-free txns", paths.len());
        ok = false;
    }
    for p in &paths {
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        if sum != p.total_ns {
            eprintln!(
                "seed {seed}: txn {} segments sum {} != span {} — decomposition gapped",
                p.txn, sum, p.total_ns
            );
            ok = false;
        }
    }
    if table.attributed_frac < 0.9 {
        eprintln!(
            "seed {seed}: only {:.0}% of mean commit latency attributed (>= 90% required)",
            100.0 * table.attributed_frac
        );
        ok = false;
    }
    (ok, table, paths.iter().map(|p| p.timeline()).collect())
}

/// One open-loop load run with telemetry windows, returning the
/// scheduled arrivals, the windowed arrivals, and the wall-stripped
/// JSONL stream.
fn telemetry_run(seed: u64) -> (u64, u64, String) {
    let report = mcv_load::run_load(&telemetry_load(seed));
    let windowed: u64 = report.telemetry.iter().map(|w| w.arrivals).sum();
    let mut stripped = report.telemetry.clone();
    strip_wall_all(&mut stripped);
    (report.arrivals, windowed, telemetry_jsonl(&stripped))
}

/// The `./ci` gate: harvest exactness, a critical-path campaign and
/// telemetry determinism.
fn smoke(base: u64, seeds: u64) -> bool {
    let mut failed = false;

    // Leg 1 — harvest exactness on an instrumented engine run.
    println!("--- smoke leg 1: harvest exactness (seed {base}) ---");
    let mut engine = group_commit_driver(300);
    engine.engine.shards = 8;
    let engine = mcv_engine::DriverConfig { txns: 800, items: 1_024, seed: base, ..engine };
    let profiler = Profiler::new();
    let result = with_profiler(&profiler, || mcv_engine::run_driver(&engine));
    let samples = profiler.harvest();
    let table = AttributionTable::from_samples(&samples);
    println!(
        "  {} commits, {} timelines, {} dropped; attributed {:.0}%",
        result.committed,
        samples.timelines.len(),
        samples.dropped,
        100.0 * table.attributed_frac
    );
    let partition = (table.attributed_frac + table.unattributed_frac - 1.0).abs() < 1e-9;
    if samples.timelines.len() as u64 != result.committed || samples.dropped != 0 || !partition {
        eprintln!("harvest leg FAILED: one timeline per commit, none dropped, fractions sum to 1");
        failed = true;
    }

    // Leg 2 — critical-path campaign over disjoint seeds. Dominance
    // is judged on the merged table: per-seed tables have only 8
    // transactions, so one descheduled worker can inflate a single
    // run's execute share past the 800 us forces.
    let seeds = seeds.max(1);
    println!("\n--- smoke leg 2: critical paths, {seeds} seeds from {base} ---");
    let mut campaign = Vec::new();
    for seed in base..base + seeds {
        let (ok, table, timelines) = judge_dist(seed);
        println!(
            "  seed {seed}: {} paths, attributed {:.0}%, top {:?}{}",
            timelines.len(),
            100.0 * table.attributed_frac,
            table.top_phases(2),
            if ok { "" } else { "  <-- FAILED" }
        );
        if !ok {
            eprintln!("{}", table.render());
            failed = true;
        }
        campaign.extend(timelines);
    }
    // Re-anchor each commit under a campaign-unique id; duplicate txn
    // ids across seeds would otherwise merge into one oversized entry.
    for (i, t) in campaign.iter_mut().enumerate() {
        t.txn = i as u64 + 1;
    }
    let merged =
        AttributionTable::from_samples(&mcv_prof::ProfSamples { timelines: campaign, dropped: 0 });
    let top2 = merged.top_phases(2);
    println!(
        "  campaign: {} commits merged, attributed {:.0}%, top {top2:?}",
        merged.anchored_txns,
        100.0 * merged.attributed_frac
    );
    if !(top2.contains(&"transport_rtt") && top2.contains(&"wal_force")) {
        eprintln!("campaign top phases {top2:?}, expected transport_rtt + wal_force");
        eprintln!("{}", merged.render());
        failed = true;
    }

    // Leg 3 — telemetry covers every arrival, deterministically.
    println!("\n--- smoke leg 3: telemetry determinism (seed {base}) ---");
    let (scheduled_a, windowed_a, jsonl_a) = telemetry_run(base);
    let (scheduled_b, windowed_b, jsonl_b) = telemetry_run(base);
    println!(
        "  run A: {windowed_a}/{scheduled_a} arrivals windowed; run B: \
         {windowed_b}/{scheduled_b}; stripped streams identical: {}",
        jsonl_a == jsonl_b
    );
    if windowed_a != scheduled_a || windowed_b != scheduled_b {
        eprintln!("telemetry leg FAILED: windows must account for every scheduled arrival");
        failed = true;
    }
    if jsonl_a != jsonl_b {
        eprintln!("telemetry leg FAILED: same-seed stripped JSONL diverged");
        eprintln!("--- run A ---\n{jsonl_a}--- run B ---\n{jsonl_b}");
        failed = true;
    }

    if failed {
        eprintln!("\nprof smoke FAILED");
    } else {
        println!("\nprof smoke OK: harvest exact, paths tile and attribute, telemetry replays");
    }
    !failed
}

/// One verbose cross-shard attribution with the slowest commit's
/// critical path rendered in full.
fn verbose(seed: u64) -> bool {
    let o = mcv_dist::run_pipeline(&attribution_dist(seed));
    let (table, paths) = attribute_commits(&o.trace);
    println!(
        "prof run: cross-shard attribution, seed {seed}, {} commit paths, oracles {}\n",
        paths.len(),
        o.violated().is_none()
    );
    println!("{}", table.render());
    if let Some(slowest) = paths.iter().max_by_key(|p| p.total_ns) {
        println!("slowest commit:\n{}", slowest.render());
    }
    o.violated().is_none()
}
