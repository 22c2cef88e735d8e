//! The one isolation checker's cost per committed transaction:
//! `mcv_chaos::detect_anomalies` (trace events to dependency graph, then
//! the ReadCommitted, SnapshotIsolation and Serializable checks) on the
//! traces of snapshot-isolation runs of about 1 k and 20 k committed
//! transactions. Flat per transaction is the claim: the graph has a
//! bounded number of edges per transaction and each check is one Kahn
//! pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_bench::group_commit_driver;
use mcv_chaos::detect_anomalies;
use mcv_engine::{run_driver, IsolationLevel};
use std::sync::Arc;

fn bench_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation/detect");
    group.sample_size(10);
    for txns in [1_000u64, 20_000] {
        let mut cfg = group_commit_driver(0);
        (cfg.engine.isolation, cfg.txns, cfg.items) =
            (IsolationLevel::SnapshotIsolation, txns, txns as usize);
        let rec = mcv_trace::Recorder::unbounded();
        let flight = Arc::clone(&rec);
        mcv_trace::with_recorder(rec, || run_driver(&cfg));
        let trace = flight.snapshot();
        let report = detect_anomalies(&trace);
        println!(
            "isolation/detect/{txns}: {} committed txns, {} events, {:.2} edges per txn",
            report.txns,
            trace.len(),
            report.edges as f64 / report.txns as f64
        );
        group.bench_with_input(BenchmarkId::from_parameter(txns), &trace, |b, trace| {
            b.iter(|| detect_anomalies(trace))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detect);
criterion_main!(benches);
