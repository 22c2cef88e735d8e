//! `spec-verify`: the paper's own artifact. One unit of work is one
//! full replay of the Chapter 5 scripts — parse, colimit, translate,
//! prove `Serialize`, `CSM` and `RBR`.

use std::time::Instant;

use crate::metrics::{GOODPUT, LAT_P50, PEAK_RSS, SETUP, TPUT};
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::{NoTrace, SpanBuf, Tracer};
use crate::stats::{median, percentile_sorted};
use crate::sut::{self, EXPECTED_VERDICTS, GOALS};
use crate::workloads::SPEC_LIMIT_US;
use crate::{per_op_ns, repeat_for, Args};

/// Replays whose latencies make one repetition's percentile sample.
const REPLAYS_PER_REP: usize = 3;
/// `SpecLibrary::load` calls behind one set-up sample.
const LOADS_PER_SETUP: usize = 50;

/// One replay; returns its latency in nanoseconds and counts goals
/// whose verdict differs from the seed's into `failed`.
fn replay(res: &mut RunResult) -> u64 {
    let t0 = Instant::now();
    let verdicts = sut::replay_chapter5();
    let ns = t0.elapsed().as_nanos() as u64;
    res.attempted += GOALS.len() as u64;
    for (g, goal) in GOALS.iter().enumerate() {
        let got = verdicts.get(g).copied().flatten();
        if got != Some(EXPECTED_VERDICTS[g]) {
            res.failed += 1;
            res.violations.push(format!(
                "goal {goal}: (proved, vacuous) = {got:?}, expected {:?}",
                EXPECTED_VERDICTS[g]
            ));
        }
    }
    ns
}

pub fn untraced(args: &Args, res: &mut RunResult) {
    // The inputs are the thesis' scripts: the seed changes nothing here.
    for _ in 0..5 {
        res.sample(
            SETUP,
            sut::library_load(LOADS_PER_SETUP).as_secs_f64() / LOADS_PER_SETUP as f64,
        );
    }
    replay(res);
    (res.attempted, res.failed) = (0, 0);

    // A repetition is a few replays, so that a burst of interference
    // spoils a minority of repetitions and the median stays clean.
    let reps = repeat_for(args.seconds, || {
        let t0 = Instant::now();
        let mut lat: Vec<u64> = (0..REPLAYS_PER_REP).map(|_| replay(res)).collect();
        let wall = t0.elapsed();
        lat.sort_unstable();
        res.sample(TPUT, REPLAYS_PER_REP as f64 / wall.as_secs_f64());
        res.sample(LAT_P50, percentile_sorted(&lat, 0.50) as f64 / 1e3);
        let good = lat.partition_point(|&ns| ns <= SPEC_LIMIT_US * 1_000);
        res.sample(GOODPUT, good as f64 / wall.as_secs_f64());
        wall
    });
    res.notes.push(format!("{reps} repetitions x {REPLAYS_PER_REP} replays"));
    res.sample(PEAK_RSS, peak_rss_mb());
}

pub fn traced(args: &Args, res: &mut RunResult) {
    let rounds = ((args.seconds / 3.0) as usize).clamp(2, 4);
    replay(res);
    (res.attempted, res.failed) = (0, 0);

    let whole: Vec<f64> = (0..rounds).map(|_| replay(res) as f64).collect();
    res.layer("blocks.replay_ms", median(&whole) / 1e6);
    res.layer("bench.fail_frac", res.failed as f64 / res.attempted as f64);

    // The same replay taken apart at the script interpreter's seam,
    // alternately with spans off and on.
    let mut tr = SpanBuf::start(Instant::now(), 64);
    let (mut plain_ns, mut traced_ns, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t0 = Instant::now();
        sut::replay_parts(&mut NoTrace);
        plain_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        parts.push(sut::replay_parts(&mut tr));
        traced_ns.push(t0.elapsed().as_nanos() as f64);
    }
    res.layer("bench.span_overhead_frac", 1.0 - median(&plain_ns) / median(&traced_ns));
    const PROVE: [&str; 3] =
        ["logic.prove_ms.serialize", "logic.prove_ms.csm", "logic.prove_ms.rbr"];
    for (g, name) in PROVE.into_iter().enumerate() {
        let ms: Vec<f64> = parts.iter().map(|p| p.prove[g].as_secs_f64() * 1e3).collect();
        res.layer(name, median(&ms));
    }
    let clauses = sut::clauses_generated();
    res.check(clauses == sut::clauses_generated(), || {
        "prover clause count differs between replays".into()
    });
    res.layer("logic.clauses_generated", clauses as f64);
    let compose_ms: Vec<f64> =
        parts.iter().map(|p| p.compose.iter().map(|d| d.as_secs_f64() * 1e3).sum()).collect();
    res.notes.push(format!(
        "{rounds} whole replays, {rounds} split with spans, {rounds} split without; parse + colimit + translate {:.1} ms per replay",
        median(&compose_ms)
    ));

    res.layer("core.colimit_us", per_op_ns(sut::colimit_rcov(20), 20) / 1e3);
    res.layer(
        "blocks.library_load_us",
        per_op_ns(sut::library_load(LOADS_PER_SETUP), LOADS_PER_SETUP) / 1e3,
    );

    res.write_spans(&args.out_dir, &[tr.finish()], usize::MAX);
}
