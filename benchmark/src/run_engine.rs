//! The three engine workloads: a closed-loop client pulling
//! pre-generated specs from a list, against a fresh engine per
//! repetition. End to end there is one client: two clients on this
//! engine settle into one of two lock-convoy regimes a factor of three
//! apart, which no bound can gate. The traced run also drives the same
//! specs from two clients and reports what contention costs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::metrics::{GOODPUT, LAT_P50, PEAK_RSS, SETUP, TPUT};
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::{self_times, NoTrace, Span, SpanBuf, Tracer};
use crate::stats::{mean, median, percentile_sorted};
use crate::sut::{self, EngineCounts, EngineParams};
use crate::workloads::{
    EngineWorkload, TxnSpec, CLIENTS, CONTENDED_CLIENTS, ENGINE_2PL_UNIFORM, ENGINE_SI_ZIPF,
};
use crate::{per_op_ns, probe_median, repeat_for, scaled, size_factor, Args};

/// Transactions of the sampled correctness repetition.
const SAMPLED_TXNS: usize = 1_000;
/// Span rows written per client thread.
const SPAN_ROWS: usize = 100_000;

/// One closed-loop repetition.
struct Rep {
    wall: Duration,
    committed: u64,
    failed: u64,
    /// Transactions begun, retries included.
    begun: u64,
    /// Per-spec latency, ascending, nanoseconds. A failed spec is in
    /// here above the latency limit, never dropped.
    lat_ns: Vec<u64>,
    spans: Vec<Vec<Span>>,
}

impl Rep {
    fn tput(&self) -> f64 {
        self.committed as f64 / self.wall.as_secs_f64()
    }

    fn goodput(&self, limit_us: u64) -> f64 {
        let good = self.lat_ns.partition_point(|&ns| ns <= limit_us * 1_000);
        good as f64 / self.wall.as_secs_f64()
    }

    fn lat_us(&self, q: f64) -> f64 {
        percentile_sorted(&self.lat_ns, q) as f64 / 1_000.0
    }
}

fn run_rep<T: Tracer + Send>(
    engine: &sut::Engine,
    specs: &[TxnSpec],
    keys: &[String],
    clients: usize,
    limit_us: u64,
) -> Rep {
    let cursor = AtomicUsize::new(0);
    let gate = Barrier::new(clients + 1);
    // A spec without retries records 11 spans; clients split the list.
    let span_cap = specs.len() * 12 / clients;
    let (t0, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::with_capacity(specs.len());
                    let (mut failed, mut begun) = (0u64, 0u64);
                    gate.wait();
                    let mut tr = T::start(Instant::now(), span_cap);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let t = Instant::now();
                        tr.enter("txn", i as u64);
                        let ex = sut::exec_spec(engine, spec, i as u64, keys, &mut tr);
                        tr.exit();
                        let ns = t.elapsed().as_nanos() as u64;
                        begun += u64::from(ex.tries);
                        if ex.committed {
                            lat.push(ns);
                        } else {
                            failed += 1;
                            lat.push(ns.max(limit_us * 1_000 + 1));
                        }
                    }
                    (lat, failed, begun, tr.finish())
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        let out: Vec<_> = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (t0, out)
    });
    let wall = t0.elapsed();
    let mut rep = Rep {
        wall,
        committed: 0,
        failed: 0,
        begun: 0,
        lat_ns: Vec::with_capacity(specs.len()),
        spans: Vec::new(),
    };
    for (lat, failed, begun, spans) in per_client {
        rep.committed += lat.len() as u64 - failed;
        rep.failed += failed;
        rep.begun += begun;
        rep.lat_ns.extend(lat);
        rep.spans.push(spans);
    }
    rep.lat_ns.sort_unstable();
    rep
}

fn params(w: &EngineWorkload) -> EngineParams {
    EngineParams {
        snapshot_isolation: w.snapshot_isolation,
        group_commit: false,
        sampled: false,
        instrumented: false,
    }
}

/// Builds and preloads an engine; the elapsed time is one set-up sample.
fn fresh(p: EngineParams, keys: &[String]) -> (sut::Engine, Duration) {
    let t0 = Instant::now();
    let engine = sut::zero_device_engine(p);
    sut::preload(&engine, keys);
    (engine, t0.elapsed())
}

/// Recovery equivalence on `engine`, then one short fully-sampled
/// repetition from two concurrent clients through the
/// conflict-serializability oracle (2PL only: the oracle is
/// single-version).
fn correctness(
    w: &EngineWorkload,
    engine: &sut::Engine,
    specs: &[TxnSpec],
    keys: &[String],
    res: &mut RunResult,
) {
    let image = sut::durable_image(engine);
    let (matches, _) = sut::recovery_matches(engine, &image);
    res.check(matches, || "replaying the durable log does not rebuild the engine state".into());
    if w.snapshot_isolation {
        return;
    }
    // No preload: every transaction of this engine is in the sample,
    // and the oracle's cost grows faster than the history.
    let engine = sut::zero_device_engine(EngineParams { sampled: true, ..params(w) });
    let n = SAMPLED_TXNS.min(specs.len());
    let rep = run_rep::<NoTrace>(&engine, &specs[..n], keys, CONTENDED_CLIENTS, w.limit_us);
    let (serializable, sampled) = sut::sampled_serializable(&engine);
    res.check(serializable, || "sampled history is not conflict-serializable".into());
    res.check(sampled as u64 >= rep.committed, || {
        format!("oracle saw {sampled} transactions, {} committed", rep.committed)
    });
    res.notes.push(format!("serializability oracle: {sampled} sampled transactions"));
}

pub fn untraced(w: &EngineWorkload, args: &Args, res: &mut RunResult) {
    let n = scaled(w.rep_txns, size_factor(args.seconds));
    let t_in = Instant::now();
    let specs = w.specs(args.seed, n);
    let keys = w.keys();
    let input = t_in.elapsed();

    let (engine, _) = fresh(params(w), &keys);
    run_rep::<NoTrace>(&engine, &specs[..n / 2], &keys, CLIENTS, w.limit_us);
    drop(engine);

    // The budget counts measured time only; building and preloading a
    // fresh engine before each repetition is one set-up sample.
    let mut last = None;
    let mut p99_us = Vec::new();
    let reps = repeat_for(args.seconds, || {
        let (engine, setup) = fresh(params(w), &keys);
        let rep = run_rep::<NoTrace>(&engine, &specs, &keys, CLIENTS, w.limit_us);
        res.sample(TPUT, rep.tput());
        res.sample(LAT_P50, rep.lat_us(0.50));
        p99_us.push(rep.lat_us(0.99));
        res.sample(GOODPUT, rep.goodput(w.limit_us));
        res.sample(SETUP, (input + setup).as_secs_f64());
        res.attempted += n as u64;
        res.failed += rep.failed;
        last = Some(engine);
        rep.wall
    });
    res.notes.push(format!(
        "{reps} repetitions x {n} transactions ({n} latency samples each), {CLIENTS} closed-loop client; per-commit force at 0 us; p99 {:.1} us (median over repetitions, not gated)",
        median(&p99_us)
    ));
    let last = last.expect("at least two repetitions ran");
    correctness(w, &last, &specs, &keys, res);
    drop(last);
    res.sample(PEAK_RSS, peak_rss_mb());
}

/// A repetition with the engine's counters read on either side of it.
struct CountedRep {
    rep: Rep,
    counts: EngineCounts,
    wal_bytes: usize,
}

fn counted_rep<T: Tracer + Send>(
    w: &EngineWorkload,
    specs: &[TxnSpec],
    keys: &[String],
    clients: usize,
) -> (CountedRep, sut::Engine) {
    let (engine, _) = fresh(params(w), keys);
    let before = sut::engine_counts(&engine);
    let bytes_before = sut::durable_image(&engine).len();
    let rep = run_rep::<T>(&engine, specs, keys, clients, w.limit_us);
    let counts = sut::engine_counts(&engine).since(&before);
    let wal_bytes = sut::durable_image(&engine).len() - bytes_before;
    (CountedRep { rep, counts, wal_bytes }, engine)
}

pub fn traced(w: &EngineWorkload, args: &Args, res: &mut RunResult) {
    let factor = size_factor(args.seconds);
    let n = scaled(w.rep_txns, factor);
    let specs = w.specs(args.seed, n);
    let keys = w.keys();

    let (engine, _) = fresh(params(w), &keys);
    run_rep::<NoTrace>(&engine, &specs[..n / 2], &keys, CLIENTS, w.limit_us);
    drop(engine);

    let plain = |p: EngineParams| {
        let (engine, _) = fresh(p, &keys);
        run_rep::<NoTrace>(&engine, &specs, &keys, CLIENTS, w.limit_us)
    };

    // The end-to-end configuration, untraced and traced alternately so
    // both see the same machine state.
    let mut untraced_tput = Vec::new();
    let mut traced_reps = Vec::new();
    let mut last_engine = None;
    let pairs = ((args.seconds / 3.0) as usize).clamp(2, 4);
    for _ in 0..pairs {
        let rep = plain(params(w));
        untraced_tput.push(rep.tput());
        res.attempted += n as u64;
        res.failed += rep.failed;
        let (counted, engine) = counted_rep::<SpanBuf>(w, &specs, &keys, CLIENTS);
        res.attempted += n as u64;
        res.failed += counted.rep.failed;
        traced_reps.push(counted);
        last_engine = Some(engine);
    }
    let base_tput = median(&untraced_tput);
    let traced_tput = median(&traced_reps.iter().map(|r| r.rep.tput()).collect::<Vec<_>>());
    res.layer("bench.span_overhead_frac", 1.0 - traced_tput / base_tput);
    op_metrics(&traced_reps, &COMMIT_PATH_OPS, res);
    log_metrics(&traced_reps, res);

    // The same specs from two clients at once: what contention costs.
    // Full-length repetitions: two clients start fast and fall into a
    // lock convoy after a random while, so a short repetition would
    // mostly see the regime that does not last.
    let contended: Vec<CountedRep> =
        (0..3).map(|_| counted_rep::<NoTrace>(w, &specs, &keys, CONTENDED_CLIENTS).0).collect();
    let contended_tput = median(&contended.iter().map(|r| r.rep.tput()).collect::<Vec<_>>());
    res.layer("engine.scale_2over1", contended_tput / base_tput);
    res.layer(
        "engine.lat_p99_us",
        median(&contended.iter().map(|r| r.rep.lat_us(0.99)).collect::<Vec<_>>()),
    );
    contention_metrics(&contended, res);
    let (victims, _) = counted_rep::<SpanBuf>(w, &specs[..n / 4], &keys, CONTENDED_CLIENTS);
    op_metrics(std::slice::from_ref(&victims), &ABORT_OPS, res);
    for r in contended.iter().chain([&victims]) {
        res.attempted += r.rep.committed + r.rep.failed;
        res.failed += r.rep.failed;
    }
    res.layer("bench.fail_frac", res.failed as f64 / res.attempted as f64);
    res.notes.push(format!(
        "{pairs} untraced and {pairs} traced repetitions x {n} transactions from {CLIENTS} client: untraced {base_tput:.0} txn/s, traced {traced_tput:.0}; {CONTENDED_CLIENTS} clients: {contended_tput:.0} txn/s"
    ));

    let engine = last_engine.expect("traced repetitions ran");
    if w.name == ENGINE_2PL_UNIFORM {
        // Ratios against the untraced baseline: median of three
        // repetitions of the variant.
        let variant_tput = |p: EngineParams| median(&[0; 3].map(|_| plain(p).tput()));
        let gc = variant_tput(EngineParams { group_commit: true, ..params(w) });
        res.layer("engine.gc_handoff_ratio", gc / base_tput);
        let on = variant_tput(EngineParams { instrumented: true, ..params(w) });
        res.layer("trace.engine_on_ratio", on / base_tput);
        txn_probes(&engine, &keys, factor, res);
    }
    if w.name == ENGINE_SI_ZIPF {
        mvcc_probes(&keys, factor, res);
    }

    correctness(w, &engine, &specs, &keys, res);
    let last = traced_reps.pop().expect("traced repetitions ran");
    res.write_spans(&args.out_dir, &last.rep.spans, SPAN_ROWS);
}

/// Self times per span name over all client threads of `reps`.
fn merged_self_times(reps: &[CountedRep]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut merged: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for thread in reps.iter().flat_map(|r| &r.rep.spans) {
        for (name, mut ns) in self_times(thread) {
            merged.entry(name).or_default().append(&mut ns);
        }
    }
    merged
}

/// Mean, p99 and calls per committed transaction of the listed engine
/// calls from the spans of `reps`. Leaf spans have no children, so
/// self time is the span.
fn op_metrics(reps: &[CountedRep], ops: &[[&'static str; 4]], res: &mut RunResult) {
    let committed = total(reps, |r| r.rep.committed);
    let mut by_name = merged_self_times(reps);
    for &[span, mean_name, p99_name, calls_name] in ops {
        let mut ns = by_name.remove(span).unwrap_or_default();
        ns.sort_unstable();
        res.layer(mean_name, mean(&ns));
        res.layer(p99_name, if ns.is_empty() { 0.0 } else { percentile_sorted(&ns, 0.99) as f64 });
        res.layer(calls_name, ns.len() as f64 / committed);
    }
    // The `txn` parent's self time is the client loop's own cost.
    if let Some(ns) = by_name.get("txn") {
        res.notes.push(format!(
            "client loop self time {:.0} ns per spec at {} client(s) (spec fetch, retry logic, span bookkeeping)",
            mean(ns),
            reps[0].rep.spans.len()
        ));
    }
}

/// The calls every committed transaction makes, from the traced
/// end-to-end repetitions.
const COMMIT_PATH_OPS: [[&str; 4]; 4] = [
    ["engine.begin", "engine.begin_ns", "engine.begin_p99_ns", "engine.begin_calls_per_txn"],
    ["engine.read", "engine.read_ns", "engine.read_p99_ns", "engine.read_calls_per_txn"],
    ["engine.write", "engine.write_ns", "engine.write_p99_ns", "engine.write_calls_per_txn"],
    ["engine.commit", "engine.commit_ns", "engine.commit_p99_ns", "engine.commit_calls_per_txn"],
];
/// From a traced two-client repetition: one client alone is never a
/// deadlock or certification victim.
const ABORT_OPS: [[&str; 4]; 1] =
    [["engine.abort", "engine.abort_ns", "engine.abort_p99_ns", "engine.abort_calls_per_txn"]];

fn total(reps: &[CountedRep], f: fn(&CountedRep) -> u64) -> f64 {
    reps.iter().map(f).sum::<u64>() as f64
}

/// Log and lock-table work per committed transaction, from the traced
/// end-to-end repetitions (one client: these counts repeat exactly).
fn log_metrics(reps: &[CountedRep], res: &mut RunResult) {
    let committed = total(reps, |r| r.rep.committed);
    res.layer(
        "engine.read_lock_acq_per_txn",
        total(reps, |r| r.counts.read_lock_acquisitions) / committed,
    );
    res.layer("engine.wal_records_per_txn", total(reps, |r| r.counts.wal_records) / committed);
    res.layer(
        "engine.wal_forces_per_commit",
        total(reps, |r| r.counts.wal_forces) / total(reps, |r| r.counts.wal_commits),
    );
    res.layer("engine.wal_bytes_per_txn", total(reps, |r| r.wal_bytes as u64) / committed);
    let installed = total(reps, |r| r.counts.versions_installed);
    if installed > 0.0 {
        res.layer("mvcc.versions_installed_per_txn", installed / committed);
        res.layer("mvcc.gc_collected_frac", total(reps, |r| r.counts.gc_collected) / installed);
    }
    let engine_committed = total(reps, |r| r.counts.committed);
    res.check(engine_committed == committed, || {
        format!("engine counted {engine_committed} commits, clients saw {committed}")
    });
    res.check(
        reps.iter().all(|r| r.counts.snapshot_reads == 0 || r.counts.read_lock_acquisitions == 0),
        || "snapshot reads took shared locks".into(),
    );
}

/// Conflicts, victims and wasted work per committed transaction, from
/// the two-client repetitions.
fn contention_metrics(reps: &[CountedRep], res: &mut RunResult) {
    let committed = total(reps, |r| r.rep.committed);
    let begun = total(reps, |r| r.rep.begun);
    res.layer(
        "engine.lock_conflicts_per_txn",
        total(reps, |r| r.counts.lock_conflicts) / committed,
    );
    res.layer("engine.deadlocks_per_ktxn", 1e3 * total(reps, |r| r.counts.deadlocks) / committed);
    res.layer(
        "engine.cert_aborts_per_ktxn",
        1e3 * total(reps, |r| r.counts.cert_aborts) / committed,
    );
    res.layer("engine.retry_frac", (begun - committed) / begun);
}

/// Probes on the model primitives the engine layers over, and on the
/// recorders that stay off end to end (`engine-2pl-uniform`).
fn txn_probes(engine: &sut::Engine, keys: &[String], factor: f64, res: &mut RunResult) {
    let n = scaled(200_000, factor);
    let mut bytes = 0;
    let mut force = Vec::new();
    let append = probe_median(|| {
        let (a, f, b) = sut::wal_append_force(keys, n);
        bytes = b;
        force.push(per_op_ns(f, n));
        per_op_ns(a, n)
    });
    res.layer("txn.wal_append_ns", append);
    res.layer("txn.wal_force_ns_per_rec", median(&force));
    res.layer("txn.wal_bytes_per_update", bytes as f64 / n as f64);

    let image = sut::durable_image(engine);
    let records = sut::engine_counts(engine).wal_records;
    let (matches, replay) = sut::recovery_matches(engine, &image);
    res.check(matches, || "replaying the durable log does not rebuild the engine state".into());
    res.layer("txn.wal_recover_ns_per_rec", replay.as_nanos() as f64 / records as f64);

    let rounds = scaled(20_000, factor);
    res.layer(
        "txn.lock_acquire_release_ns",
        probe_median(|| per_op_ns(sut::lock_acquire_release(keys, rounds), rounds)),
    );
    let draws = scaled(2_000_000, factor);
    res.layer("txn.zipf_next_ns", probe_median(|| per_op_ns(sut::zipf_next(draws), draws)));
    let recs = scaled(1_000_000, factor);
    res.layer("prof.record_ns", probe_median(|| per_op_ns(sut::prof_record(recs), recs)));
    res.layer("obs.hist_record_ns", probe_median(|| per_op_ns(sut::hist_record(recs), recs)));
}

/// Probes on a bare `MvccStore` over the workload's keys (`engine-si-zipf`).
fn mvcc_probes(keys: &[String], factor: f64, res: &mut RunResult) {
    let n = scaled(1_000_000, factor);
    res.layer(
        "mvcc.snapshot_open_close_ns",
        probe_median(|| per_op_ns(sut::mvcc_snapshot_open_close(keys, n), n)),
    );
    res.layer("mvcc.read_at_ns", probe_median(|| per_op_ns(sut::mvcc_read_at(keys, 1, n), n)));
    res.layer("mvcc.read_at_deep_ns", probe_median(|| per_op_ns(sut::mvcc_read_at(keys, 8, n), n)));
    let commits = scaled(300_000, factor);
    let mut gc_ns = Vec::new();
    let install = probe_median(|| {
        let (install, gc, collected) = sut::mvcc_install_gc(keys, commits);
        gc_ns.push(gc.as_nanos() as f64 / collected as f64);
        per_op_ns(install, commits)
    });
    res.layer("mvcc.install_ns", install);
    res.layer("mvcc.gc_ns_per_version", median(&gc_ns));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ENGINE_WORKLOADS, MAX_TRIES, OPS_PER_TXN};

    /// Every workload commits every spec on a small run, both traced and
    /// untraced, and the spans cover exactly the calls made.
    #[test]
    fn small_repetitions_commit_everything() {
        for w in &ENGINE_WORKLOADS {
            let small = EngineWorkload { items: 500, ..*w };
            let specs = small.specs(42, 400);
            let keys = small.keys();
            let (engine, _) = fresh(params(&small), &keys);
            let rep = run_rep::<NoTrace>(&engine, &specs, &keys, CONTENDED_CLIENTS, small.limit_us);
            assert_eq!((rep.committed, rep.failed), (400, 0), "{}", w.name);
            assert_eq!(rep.lat_ns.len(), 400);
            assert!(rep.begun >= 400 && rep.begun <= 400 * u64::from(MAX_TRIES));
            assert!(rep.spans.iter().all(Vec::is_empty));

            let (engine, _) = fresh(params(&small), &keys);
            let rep = run_rep::<SpanBuf>(&engine, &specs, &keys, CONTENDED_CLIENTS, small.limit_us);
            assert_eq!(rep.committed, 400, "{}", w.name);
            let spans: Vec<&Span> = rep.spans.iter().flatten().collect();
            let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
            assert_eq!(count("txn"), 400);
            assert_eq!(count("engine.begin"), rep.begun);
            assert_eq!(count("engine.commit") + count("engine.abort"), rep.begun);
            assert!(count("engine.read") + count("engine.write") >= (400 * OPS_PER_TXN) as u64);
        }
    }
}
