//! The commit path's code cost with the modeled device at zero: the
//! log codec, the log buffer, one engine transaction end to end, and
//! the deferred-acknowledgement commit.
//!
//! The vendored criterion times each call of the routine on its own,
//! so every routine here is a batch of 1000 units (records, force
//! rounds, transactions): the printed microseconds per iteration read
//! directly as nanoseconds per unit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_engine::{Engine, EngineConfig};
use mcv_txn::{ForcedWal, LogRecord, TxnId, Wal};

const BATCH: usize = 1000;

fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("item{i:06}")).collect()
}

fn bench_codec(c: &mut Criterion) {
    let keys = keys(BATCH);
    let mut wal = Wal::new();
    for (i, key) in keys.iter().enumerate() {
        wal.log_update(TxnId(i as u64 / 4 + 1), key.as_str(), i as i64, i as i64 + 1);
    }
    let image = wal.to_bytes();
    let mut group = c.benchmark_group("wal");
    group.bench_function("encode/1000-updates", |b| b.iter(|| wal.to_bytes()));
    group.bench_function("decode/1000-updates", |b| {
        b.iter(|| {
            let decoded = Wal::from_bytes_lossy(&image);
            assert_eq!(decoded.len(), BATCH);
            decoded
        })
    });
    group.finish();
}

/// `BATCH` commit rounds on one log buffer: `records - 1` updates, the
/// commit record, one force.
fn bench_append_force(c: &mut Criterion) {
    let keys = keys(64);
    let mut group = c.benchmark_group("wal/append+force");
    for records in [1usize, 5, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{records}-records-x1000")),
            &records,
            |b, &records| {
                b.iter(|| {
                    let mut log = ForcedWal::new();
                    for round in 0..BATCH as u64 {
                        let txn = TxnId(round + 1);
                        for (i, key) in keys[..records - 1].iter().enumerate() {
                            log.append_update(txn, key, i as i64, round as i64);
                        }
                        log.append(LogRecord::Commit { txn });
                        assert_eq!(log.force(), records);
                    }
                    log
                })
            },
        );
    }
    group.finish();
}

/// One client running 4-read/4-write transactions over 1 000 or
/// 100 000 preloaded items: 16 shards, a force per commit, no device
/// latency, no sampling. Finding an item is a hash probe, so what the
/// two sizes differ by is cache misses, not a walk whose depth grows
/// with the table.
fn bench_engine_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/txn-8op");
    for items in [1_000usize, 100_000] {
        let keys = keys(items);
        let engine = Engine::new(EngineConfig {
            shards: 16,
            group_commit: false,
            force_latency_us: 0,
            group_window_us: 0,
            sample_every: 0,
            ..EngineConfig::default()
        });
        for chunk in keys.chunks(256) {
            let mut t = engine.begin();
            for key in chunk {
                t.write(key, 0).expect("preload write");
            }
            t.commit().expect("preload commit");
        }
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("items", items), &keys, |b, keys| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let mut t = engine.begin();
                    for op in 0..8 {
                        // A stride coprime to the table size: every item
                        // distinct within a transaction, no RNG on the
                        // clock.
                        next = (next + 7919) % keys.len();
                        if op % 2 == 0 {
                            t.read(&keys[next]).expect("uncontended read");
                        } else {
                            t.write(&keys[next], op).expect("uncontended write");
                        }
                    }
                    t.commit().expect("commit");
                }
            })
        });
    }
    group.finish();
}

/// `BATCH` one-write transactions committed eight at a time through
/// `commit_then`: eight staged commits, then one wait for the eighth
/// acknowledgement (the log writer runs them in order). Group commit
/// with the device at zero, so what is timed is the staging, the
/// hand-over to the log writer and the acknowledgements it runs.
fn bench_commit_then(c: &mut Criterion) {
    let keys = keys(1_000);
    let engine = Engine::new(EngineConfig {
        shards: 16,
        group_commit: true,
        force_latency_us: 0,
        group_window_us: 0,
        sample_every: 0,
        ..EngineConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let mut next = 0usize;
    c.bench_function("engine/commit_then-8", |b| {
        b.iter(|| {
            for _ in 0..BATCH / 8 {
                for staged in 0..8 {
                    next = (next + 7919) % keys.len();
                    let mut t = engine.begin();
                    t.write(&keys[next], staged).expect("uncontended write");
                    let tx = (staged == 7).then(|| tx.clone());
                    t.commit_then(move |r| {
                        r.expect("commit");
                        if let Some(tx) = tx {
                            tx.send(()).expect("bench is listening");
                        }
                    });
                }
                rx.recv().expect("eighth acknowledgement");
            }
        })
    });
}

criterion_group!(benches, bench_codec, bench_append_force, bench_engine_txn, bench_commit_then);
criterion_main!(benches);
