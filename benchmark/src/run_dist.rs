//! `dist-pipeline`: the multi-shot pipelined commit runtime with the
//! network at 10 us per hop and the device at zero. A saturation leg
//! gives throughput, a paced open-loop leg gives latency from each
//! transaction's due arrival.

use std::time::Instant;

use crate::metrics::{GOODPUT, LAT_P50, PEAK_RSS, SETUP, TPUT};
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::{SpanBuf, Tracer};
use crate::stats::{median, percentile_sorted};
use crate::sut::{self, PipelineRun};
use crate::workloads::DIST;
use crate::{per_op_ns, probe_median, repeat_for, scaled, size_factor, Args};

/// The eight cross-shard oracles every repetition must pass.
const ORACLES: usize = 8;
/// Share of the budget spent on the saturation leg.
const SATURATION_SHARE: f64 = 0.55;

/// Every repetition: all oracles green, a dense commit log, and every
/// transaction committed (the run is fault-free).
fn gate(run: &PipelineRun, leg: &str, res: &mut RunResult) {
    res.check(run.violated.is_none(), || {
        format!("{leg}: oracle {} failed", run.violated.as_deref().unwrap_or("?"))
    });
    res.check(run.oracles == ORACLES, || format!("{leg}: {} oracles evaluated", run.oracles));
    res.check(run.log_dense, || format!("{leg}: coordinator commit log is not dense"));
    res.attempted += run.txns;
    res.failed += run.txns - run.committed;
}

/// Paced-leg latency, ascending, microseconds; a transaction that did
/// not commit sits far above the limit instead of being dropped.
fn paced_latency(run: &PipelineRun) -> Vec<u64> {
    let mut lat: Vec<u64> =
        run.latency_us.iter().map(|l| l.unwrap_or(DIST.limit_us * 10)).collect();
    lat.sort_unstable();
    lat
}

pub fn untraced(args: &Args, res: &mut RunResult) {
    let factor = size_factor(args.seconds);
    let sat_txns = scaled(DIST.saturation_txns, factor);
    let paced_txns = scaled(DIST.paced_txns, factor);

    // Set-up: generate the paced schedule, bring a pipeline up, push a
    // short stream through it and tear it down. Five times, because
    // one bring-up is over in a tenth of a second.
    let mut arrivals = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        arrivals = DIST.paced_arrivals(paced_txns);
        let run = sut::pipeline(&DIST, scaled(DIST.warmup_txns, factor), args.seed, None);
        res.sample(SETUP, t0.elapsed().as_secs_f64());
        res.check(run.violated.is_none() && run.committed == run.txns, || {
            "set-up run did not commit cleanly".into()
        });
    }

    let sat_reps = repeat_for(args.seconds * SATURATION_SHARE, || {
        let run = sut::pipeline(&DIST, sat_txns, args.seed, None);
        gate(&run, "saturation", res);
        res.sample(TPUT, run.committed as f64 * 1e3 / run.settle_ms as f64);
        run.call
    });
    let mut p99_us = Vec::new();
    let paced_reps = repeat_for(args.seconds * (1.0 - SATURATION_SHARE), || {
        let run = sut::pipeline(&DIST, paced_txns, args.seed, Some(&arrivals));
        gate(&run, "paced", res);
        let lat = paced_latency(&run);
        res.sample(LAT_P50, percentile_sorted(&lat, 0.50) as f64);
        p99_us.push(percentile_sorted(&lat, 0.99) as f64);
        let good = lat.partition_point(|&us| us <= DIST.limit_us);
        res.sample(GOODPUT, good as f64 * 1e3 / run.settle_ms as f64);
        run.call
    });
    res.notes.push(format!(
        "saturation leg {sat_reps} x {sat_txns} txns; paced leg {paced_reps} x {paced_txns} txns at {} txn/s ({paced_txns} latency samples each); no force latency, {} us hops; paced p99 {:.0} us (median over repetitions, not gated)",
        1_000_000 / DIST.paced_gap_us,
        DIST.tick_us * DIST.delay_ticks,
        median(&p99_us),
    ));
    res.sample(PEAK_RSS, peak_rss_mb());
}

pub fn traced(args: &Args, res: &mut RunResult) {
    let factor = size_factor(args.seconds);
    let sat_txns = scaled(DIST.saturation_txns, factor);
    let paced_txns = scaled(DIST.paced_txns, factor);
    let arrivals = DIST.paced_arrivals(paced_txns);
    let mut tr = SpanBuf::start(Instant::now(), 16);

    sut::pipeline(&DIST, scaled(DIST.warmup_txns, factor), args.seed, None);

    // Untraced and traced saturation runs alternate; one span around a
    // call cannot cost anything measurable, so the ratio of the medians
    // shows how far apart identical runs land.
    let tput = |r: &PipelineRun| r.committed as f64 * 1e3 / r.settle_ms as f64;
    let (mut plain_tput, mut traced_tput, mut last) = (Vec::new(), Vec::new(), None);
    for i in 0..3 {
        let plain = sut::pipeline(&DIST, sat_txns, args.seed, None);
        gate(&plain, "saturation", res);
        plain_tput.push(tput(&plain));
        let sat =
            tr.leaf("dist.run_pipeline", i, || sut::pipeline(&DIST, sat_txns, args.seed, None));
        gate(&sat, "saturation", res);
        traced_tput.push(tput(&sat));
        last = Some(sat);
    }
    res.layer("bench.span_overhead_frac", 1.0 - median(&traced_tput) / median(&plain_tput));
    let sat = last.expect("three saturation pairs ran");
    res.layer("dist.settle_ms", sat.settle_ms as f64);
    let ktxn = sat.txns as f64 / 1e3;
    res.layer(
        "dist.verify_ms_per_ktxn",
        (sat.call.as_secs_f64() * 1e3 - sat.settle_ms as f64) / ktxn,
    );
    res.layer("dist.sends_per_txn", sat.sends as f64 / sat.txns as f64);
    res.layer("dist.trace_events_per_txn", sat.trace_events as f64 / sat.txns as f64);
    res.layer("dist.wal_forces_per_commit", sat.wal_forces as f64 / sat.wal_commits as f64);
    let (ok, audit) = sut::trace_check(&sat.trace);
    res.check(ok, || "happens-before audit of the saturation trace failed".into());
    res.layer("trace.check_ns_per_event", per_op_ns(audit, sat.trace_events as usize));
    drop(sat);

    let paced = tr.leaf("dist.run_pipeline", 3, || {
        sut::pipeline(&DIST, paced_txns, args.seed, Some(&arrivals))
    });
    gate(&paced, "paced", res);
    res.layer("dist.lat_paced_p99_us", percentile_sorted(&paced_latency(&paced), 0.99) as f64);
    drop(paced);

    let stream_txns = scaled(DIST.stream_txns, factor);
    let stream =
        tr.leaf("dist.run_pipeline", 4, || sut::pipeline(&DIST, stream_txns, args.seed, None));
    gate(&stream, "stream", res);
    res.layer("dist.stream_8k_tps", tput(&stream));
    res.notes.push(format!(
        "{sat_txns}-txn saturation settle {} ms, call {:.0} ms; {stream_txns}-txn stream settle {} ms, call {:.0} ms",
        res.per_layer["dist.settle_ms"],
        res.per_layer["dist.settle_ms"] + res.per_layer["dist.verify_ms_per_ktxn"] * ktxn,
        stream.settle_ms,
        stream.call.as_secs_f64() * 1e3,
    ));
    drop(stream);
    res.layer("bench.fail_frac", res.failed as f64 / res.attempted as f64);

    let msgs = scaled(200_000, factor);
    res.layer(
        "dist.fabric_route_ns",
        probe_median(|| per_op_ns(sut::fabric_route(&DIST, msgs), msgs)),
    );
    let scenarios = scaled(2_000, factor);
    let mut messages = 0;
    res.layer(
        "commit.scenario_3pc_us",
        probe_median(|| {
            let (elapsed, m) = sut::scenario_3pc(scenarios);
            messages = m;
            per_op_ns(elapsed, scenarios) / 1e3
        }),
    );
    res.layer("commit.scenario_msgs", messages as f64);
    let events = scaled(1_000_000, factor);
    res.layer(
        "trace.record_ns",
        probe_median(|| per_op_ns(sut::trace_record(false, events), events)),
    );
    res.layer(
        "trace.record_ring_ns",
        probe_median(|| per_op_ns(sut::trace_record(true, events), events)),
    );

    res.write_spans(&args.out_dir, &[tr.finish()], usize::MAX);
}
