//! Lock manager throughput under varying contention: the executable
//! 2PL block's cost profile. `LockManager` drives the same `LockTable`
//! the engine's shards hold, so `locks/round8` is also the cost of the
//! engine's uncontended lock path minus its shard mutex.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_txn::{LockManager, LockMode, TxnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(items: usize, ops: usize, seed: u64) -> Vec<(TxnId, String, LockMode)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            (
                TxnId(rng.gen_range(1..=8)),
                format!("X{}", rng.gen_range(0..items)),
                if rng.gen_bool(0.3) { LockMode::Exclusive } else { LockMode::Shared },
            )
        })
        .collect()
}

fn bench_acquire_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks");
    for items in [1usize, 4, 64] {
        let ops = workload(items, 500, 42);
        group.bench_with_input(
            BenchmarkId::new("contention", format!("{items}-items")),
            &ops,
            |b, ops| {
                b.iter(|| {
                    let mut lm = LockManager::new();
                    for (txn, item, mode) in ops {
                        if let Ok(mcv_txn::LockOutcome::WouldDeadlock { .. }) =
                            lm.acquire(*txn, item.clone(), *mode)
                        {
                            lm.release_all(*txn);
                        }
                    }
                    for t in 1..=8u64 {
                        lm.release_all(TxnId(t));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_deadlock_detection(c: &mut Criterion) {
    // A maximal waits-for cycle: each txn holds one item and wants the
    // next; the final request must traverse the full cycle.
    let mut group = c.benchmark_group("locks/deadlock-cycle");
    for n in [4u64, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut lm = LockManager::new();
                for t in 0..n {
                    assert_eq!(
                        lm.acquire(TxnId(t), format!("X{t}"), LockMode::Exclusive).expect("fresh"),
                        mcv_txn::LockOutcome::Granted
                    );
                }
                for t in 0..n - 1 {
                    let _ = lm.acquire(TxnId(t), format!("X{}", t + 1), LockMode::Exclusive);
                }
                // The closing edge must detect the cycle.
                let out = lm.acquire(TxnId(n - 1), "X0", LockMode::Exclusive).expect("fresh");
                assert!(matches!(out, mcv_txn::LockOutcome::WouldDeadlock { .. }));
            })
        });
    }
    group.finish();
}

/// One uncontended transaction — four shared and four exclusive
/// acquisitions, then `release_all` — on a manager that has already
/// seen 64 or 100 000 distinct items. The rounds cycle over the same 64
/// keys at both sizes, so the two figures differ only if release cost
/// depends on the table's history (it must not: idle entries are
/// dropped).
fn bench_round8(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks/round8");
    for seen in [64usize, 100_000] {
        let keys: Vec<String> = (0..seen).map(|i| format!("X{i}")).collect();
        group.bench_with_input(BenchmarkId::new("items-seen", seen), &keys, |b, keys| {
            let mut lm = LockManager::new();
            let mut next = 0u64;
            for chunk in keys.chunks(8) {
                next += 1;
                for key in chunk {
                    lm.acquire(TxnId(next), key, LockMode::Shared).expect("growing phase");
                }
                lm.release_all(TxnId(next));
            }
            let mut round = 0usize;
            b.iter(|| {
                next += 1;
                let txn = TxnId(next);
                for j in 0..8 {
                    let mode = if j % 2 == 0 { LockMode::Shared } else { LockMode::Exclusive };
                    let key = &keys[(round * 8 + j) % 64];
                    black_box(lm.acquire(txn, key, mode).expect("growing phase"));
                }
                round += 1;
                black_box(lm.release_all(txn))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_acquire_release, bench_deadlock_detection, bench_round8);
criterion_main!(benches);
