//! 2PC vs 3PC cost: end-to-end scenario latency and message counts
//! across cohort counts and failure scenarios (the exp.nb / exp.msg
//! experiments under Criterion's statistics), and the cost of
//! exploring every execution of the sites at `repro fig3.2`'s bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_commit::{run_scenario, CrashPoint, Protocol, Scenario};

fn bench_failure_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit/failure-free");
    for n in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("2pc", n), &n, |b, &n| {
            b.iter(|| {
                let r = run_scenario(&Scenario {
                    protocol: Protocol::TwoPhase,
                    n_cohorts: n,
                    ..Scenario::default()
                });
                assert_eq!(r.outcome, Some(true));
            })
        });
        group.bench_with_input(BenchmarkId::new("3pc", n), &n, |b, &n| {
            b.iter(|| {
                let r = run_scenario(&Scenario { n_cohorts: n, ..Scenario::default() });
                assert_eq!(r.outcome, Some(true));
            })
        });
    }
    group.finish();
}

fn bench_coordinator_failure(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit/coordinator-crash");
    group.sample_size(20);
    for n in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("3pc-termination", n), &n, |b, &n| {
            b.iter(|| {
                let r = run_scenario(&Scenario {
                    n_cohorts: n,
                    coordinator_crash: Some(CrashPoint::AfterPrepare),
                    recovery_at: Some(5_000),
                    ..Scenario::default()
                });
                assert!(r.uniform && r.nonblocking);
            })
        });
    }
    group.finish();
}

fn bench_model_checker(c: &mut Criterion) {
    use mcv_chaos::{explore, FaultBudget};
    let mut group = c.benchmark_group("commit/model-check");
    group.sample_size(10);
    // `repro fig3.2`'s synchronous termination row: hops of one tick
    // against a ten-tick timeout, the coordinator crashing anywhere.
    for cohorts in [1usize, 2] {
        let sc = Scenario { n_cohorts: cohorts, timeout: 10, ..Scenario::default() };
        let budget = FaultBudget { crash: vec![0], partition: Vec::new(), delta: 1 };
        group.bench_with_input(BenchmarkId::new("termination", cohorts), &cohorts, |b, _| {
            b.iter(|| assert!(explore(&sc, &budget).violation.is_none()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_failure_free, bench_coordinator_failure, bench_model_checker);
criterion_main!(benches);
