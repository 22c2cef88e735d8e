//! `load-open-device`: open-loop Poisson arrivals paced into one
//! group-commit engine with the modeled device on (300 us per force).
//! A nominal leg (1 500 txn/s, a quarter of capacity) gives latency from
//! each transaction's due arrival; an overload leg (12 000 txn/s, about
//! twice capacity) gives committed and in-deadline throughput under
//! shedding. Throughput at the nominal rate would only restate the
//! rate, so it is not reported.

use std::time::Instant;

use crate::metrics::{GOODPUT, LAT_P50, PEAK_RSS, SETUP, TPUT};
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::{SpanBuf, Tracer};
use crate::stats::{median, percentile_sorted};
use crate::sut::{self, LoadRun};
use crate::workloads::LOAD;
use crate::{per_op_ns, probe_median, repeat_for, scaled, size_factor, Args};

/// Share of the budget spent on the nominal leg.
const NOMINAL_SHARE: f64 = 0.6;

/// Both legs: the program's own oracles green and every arrival
/// accounted for by the conservation ledger.
fn gate(run: &LoadRun, leg: &str, res: &mut RunResult) {
    res.check(run.oracles_ok, || format!("{leg}: engine oracles failed"));
    res.check(run.unresolved == 0, || format!("{leg}: {} arrivals unresolved", run.unresolved));
}

fn secs(run: &LoadRun) -> f64 {
    run.duration_us as f64 / 1e6
}

fn nominal(schedule: &sut::ArrivalSchedule) -> LoadRun {
    sut::run_load(&LOAD, schedule, LOAD.nominal_queue_cap, LOAD.nominal_deadline_us)
}

fn overload(schedule: &sut::ArrivalSchedule) -> LoadRun {
    sut::run_load(&LOAD, schedule, LOAD.queue_cap, LOAD.deadline_us)
}

/// Due-arrival-to-commit latency, ascending, microseconds. An arrival
/// that was shed, dropped or abandoned sits far above any deadline
/// instead of being left out of the sample.
fn latency(run: &LoadRun) -> Vec<u64> {
    let mut lat = run.latency_us.clone();
    lat.resize(run.arrivals as usize, LOAD.nominal_deadline_us * 10);
    lat.sort_unstable();
    lat
}

pub fn untraced(args: &Args, res: &mut RunResult) {
    let rep_us = (LOAD.rep_us as f64 * size_factor(args.seconds)) as u64;

    // Set-up is schedule generation for both legs; the engine and pool
    // are built inside each run.
    let mut schedules = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let nominal = sut::load_schedule(&LOAD, LOAD.nominal_tps, rep_us, args.seed);
        let overload = sut::load_schedule(&LOAD, LOAD.overload_tps, rep_us, args.seed);
        res.sample(SETUP, t0.elapsed().as_secs_f64());
        schedules = Some((nominal, overload));
    }
    let (nominal_schedule, overload_schedule) = schedules.expect("set-up ran");
    let warmup = sut::load_schedule(&LOAD, LOAD.nominal_tps, rep_us / 4, args.seed);
    gate(&nominal(&warmup), "warm-up", res);

    // The budget counts whole calls: after the schedule ends each run
    // drains, tears down and evaluates its oracles.
    let mut p99_us = Vec::new();
    let nominal_reps = repeat_for(args.seconds * NOMINAL_SHARE, || {
        let t0 = Instant::now();
        let run = nominal(&nominal_schedule);
        gate(&run, "nominal", res);
        let lat = latency(&run);
        res.sample(LAT_P50, percentile_sorted(&lat, 0.50) as f64);
        p99_us.push(percentile_sorted(&lat, 0.99) as f64);
        res.attempted += run.arrivals;
        res.failed += run.arrivals - run.goodput;
        t0.elapsed()
    });
    let overload_reps = repeat_for(args.seconds * (1.0 - NOMINAL_SHARE), || {
        let t0 = Instant::now();
        let run = overload(&overload_schedule);
        gate(&run, "overload", res);
        res.sample(TPUT, run.committed as f64 / secs(&run));
        res.sample(GOODPUT, run.goodput as f64 / secs(&run));
        t0.elapsed()
    });
    res.notes.push(format!(
        "nominal leg {nominal_reps} x {} arrivals at {} txn/s; overload leg {overload_reps} x {} arrivals at {} txn/s; open loop, group commit at {} us per force, {} ms deadline under overload; nominal p99 {:.0} us (median over repetitions, not gated)",
        sut::schedule_len(&nominal_schedule),
        LOAD.nominal_tps,
        sut::schedule_len(&overload_schedule),
        LOAD.overload_tps,
        LOAD.force_latency_us,
        LOAD.deadline_us / 1_000,
        median(&p99_us),
    ));
    res.sample(PEAK_RSS, peak_rss_mb());
}

pub fn traced(args: &Args, res: &mut RunResult) {
    let factor = size_factor(args.seconds);
    let rep_us = (LOAD.rep_us as f64 * factor) as u64;
    let nominal_schedule = sut::load_schedule(&LOAD, LOAD.nominal_tps, rep_us, args.seed);
    let overload_schedule = sut::load_schedule(&LOAD, LOAD.overload_tps, rep_us, args.seed);
    let warmup = sut::load_schedule(&LOAD, LOAD.nominal_tps, rep_us / 4, args.seed);
    gate(&nominal(&warmup), "warm-up", res);
    let mut tr = SpanBuf::start(Instant::now(), 16);

    let run = tr.leaf("load.run_load", 0, || nominal(&nominal_schedule));
    gate(&run, "nominal", res);
    res.layer("load.nominal_lat_p99_us", percentile_sorted(&latency(&run), 0.99) as f64);
    res.layer("load.nominal_forces_per_commit", run.wal_forces as f64 / run.wal_commits as f64);
    res.attempted = run.arrivals;
    res.failed = run.arrivals - run.goodput;
    res.layer("bench.fail_frac", res.failed as f64 / res.attempted as f64);

    // Untraced and traced overload runs alternate; one span around a
    // call cannot cost anything measurable, so the ratio of the medians
    // shows how far apart identical runs land.
    let (mut plain_commits, mut traced_commits, mut last) = (Vec::new(), Vec::new(), None);
    for i in 1..=3 {
        let plain = overload(&overload_schedule);
        gate(&plain, "overload", res);
        plain_commits.push(plain.committed as f64);
        let over = tr.leaf("load.run_load", i, || overload(&overload_schedule));
        gate(&over, "overload", res);
        traced_commits.push(over.committed as f64);
        last = Some(over);
    }
    res.layer("bench.span_overhead_frac", 1.0 - median(&traced_commits) / median(&plain_commits));
    let over = last.expect("three overload pairs ran");
    res.layer("load.shed_frac", over.shed as f64 / over.arrivals as f64);
    res.layer("load.deadline_missed_frac", over.deadline_missed as f64 / over.arrivals as f64);
    // Of admitted transactions: the shed ones are in load.shed_frac.
    let mut admitted = over.latency_us.clone();
    admitted.sort_unstable();
    res.layer("load.overload_lat_p50_us", percentile_sorted(&admitted, 0.50) as f64);
    res.notes.push(format!(
        "nominal {} arrivals, {} committed; overload {} arrivals, {} in deadline, {} shed",
        run.arrivals, run.committed, over.arrivals, over.goodput, over.shed
    ));

    let arrivals = sut::schedule_len(&overload_schedule);
    res.layer(
        "load.schedule_gen_ns_per_arrival",
        probe_median(|| {
            let t0 = Instant::now();
            let s = sut::load_schedule(&LOAD, LOAD.overload_tps, rep_us, args.seed);
            per_op_ns(t0.elapsed(), sut::schedule_len(&s))
        }),
    );
    res.layer(
        "load.simulate_ns_per_arrival",
        probe_median(|| per_op_ns(sut::load_simulate(&LOAD, &overload_schedule), arrivals)),
    );
    let jobs = scaled(50_000, factor);
    res.layer("engine.pool_handoff_ns", probe_median(|| per_op_ns(sut::pool_handoff(jobs), jobs)));
    res.layer(
        "engine.pool_try_submit_ns",
        probe_median(|| per_op_ns(sut::pool_try_submit(jobs), jobs)),
    );

    res.write_spans(&args.out_dir, &[tr.finish()], usize::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_arrival_offsets() {
        let bytes =
            |seed| sut::schedule_bytes(&sut::load_schedule(&LOAD, LOAD.nominal_tps, 200_000, seed));
        assert_eq!(bytes(42), bytes(42));
        assert_ne!(bytes(42), bytes(43));
    }

    #[test]
    fn unresolved_arrivals_stay_in_the_latency_sample() {
        let run = LoadRun {
            arrivals: 5,
            committed: 3,
            goodput: 3,
            shed: 2,
            deadline_missed: 0,
            unresolved: 0,
            oracles_ok: true,
            latency_us: vec![900, 300, 600],
            wal_commits: 3,
            wal_forces: 2,
            duration_us: 1_000_000,
        };
        let lat = latency(&run);
        let missing = LOAD.nominal_deadline_us * 10;
        assert_eq!(lat, [300, 600, 900, missing, missing]);
        assert!(percentile_sorted(&lat, 0.99) > LOAD.nominal_deadline_us);
    }
}
