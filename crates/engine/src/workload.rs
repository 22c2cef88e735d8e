//! Closed-loop workload drivers over the engine.
//!
//! A driver admits a fixed number of transactions through the bounded
//! [`Pool`](crate::Pool), retries deadlock victims with fresh (younger)
//! transaction ids, records per-transaction latency, and — after the
//! run quiesces — checks the three oracles the thesis cares about:
//! conflict-serializability of the sampled history, the bank-transfer
//! sum invariant, and recovery equivalence (the durable log replays to
//! exactly the engine's quiesced state).

use crate::engine::{latency_histogram, Engine, EngineConfig, EngineError, Txn};
use crate::pool::Pool;
use mcv_obs::{Histogram, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How items are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Uniform over all items.
    Uniform,
    /// Zipfian with skew `theta` (YCSB convention, `0 < theta < 1`;
    /// 0.99 is the YCSB default "hotspot" skew).
    Zipfian {
        /// Skew parameter.
        theta: f64,
    },
}

/// What each transaction does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// `ops_per_txn` point operations, each a write with probability
    /// `write_pct`/100, items drawn by `mix`.
    ReadWrite {
        /// Item-selection distribution.
        mix: Mix,
        /// Percentage of operations that write.
        write_pct: u8,
        /// Operations per transaction.
        ops_per_txn: usize,
    },
    /// Transfer a random amount between two distinct accounts (read
    /// both, write both). The sum of all balances is invariant under
    /// every committed prefix — the driver's built-in consistency
    /// oracle.
    BankTransfer,
    /// The write-skew shape: each transaction picks one of `pairs`
    /// disjoint item pairs, reads *both* items, and writes exactly one
    /// (rng-chosen) side. Two concurrent transactions on the same pair
    /// writing opposite sides have disjoint write sets — invisible to
    /// first-committer-wins, so SnapshotIsolation commits both (write
    /// skew), while SSI's read-set validation and 2PL's shared locks
    /// refuse.
    WriteSkew {
        /// Number of disjoint item pairs (items `2p` and `2p+1` form
        /// pair `p`; the driver needs `items >= 2 * pairs`).
        pairs: usize,
    },
}

/// Parameters of one driver run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Engine parameters.
    pub engine: EngineConfig,
    /// Worker threads (concurrent clients).
    pub clients: usize,
    /// Transactions to admit (committed count; deadlock retries do not
    /// consume admissions).
    pub txns: u64,
    /// Number of distinct items (accounts for [`WorkloadKind::BankTransfer`]).
    pub items: usize,
    /// The per-transaction behavior.
    pub workload: WorkloadKind,
    /// Root seed; each admission derives its own generator from it.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            engine: EngineConfig::default(),
            clients: 4,
            txns: 1_000,
            items: 1_024,
            workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 },
            seed: 42,
        }
    }
}

/// Everything a driver run produced.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Transactions committed.
    pub committed: u64,
    /// Deadlock-victim retries performed.
    pub retries: u64,
    /// Wall-clock duration of the admission-to-quiesce window, ns.
    pub elapsed_ns: u64,
    /// Wall-clock duration of the oracles run after it, ns.
    pub oracle_ns: u64,
    /// Per-transaction commit latency, µs.
    pub latency_us: Histogram,
    /// Engine + driver metrics (`engine.*` counters, `wall.*` extras).
    pub metrics: MetricsSnapshot,
    /// Verdict of the conflict-serializability oracle on the sampled
    /// committed history.
    pub serializable: bool,
    /// Transactions / operations in the sample the oracle saw.
    pub sampled_txns: usize,
    /// Operations in the sample.
    pub sampled_ops: usize,
    /// `Some(true)` when the bank-sum invariant held on the recovered
    /// state (`None` for non-bank workloads).
    pub bank_invariant_ok: Option<bool>,
    /// Whether replaying the durable log reproduces the engine's
    /// quiesced volatile state exactly.
    pub recovered_matches: bool,
    /// Commit records appended.
    pub commits: u64,
    /// Log-device operations performed.
    pub forces: u64,
}

impl DriverReport {
    /// Committed transactions per wall-clock second.
    pub fn throughput_tps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.committed as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Whether every oracle passed.
    pub fn oracles_ok(&self) -> bool {
        self.serializable && self.recovered_matches && self.bank_invariant_ok.unwrap_or(true)
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let fpc = if self.commits == 0 { 0.0 } else { self.forces as f64 / self.commits as f64 };
        let mut s = format!(
            "committed      {}\nretries        {}\nthroughput     {:.0} txn/s\n\
             latency p50    {} us\nlatency p95    {} us\nlatency p99    {} us\n\
             wal forces     {} ({:.3} per commit)\ndeadlocks      {}\n\
             serializable   {} ({} txns / {} ops sampled)\nrecovery match {}",
            self.committed,
            self.retries,
            self.throughput_tps(),
            self.latency_us.percentile(50.0),
            self.latency_us.percentile(95.0),
            self.latency_us.percentile(99.0),
            self.forces,
            fpc,
            self.metrics.counter("engine.locks.deadlocks"),
            self.serializable,
            self.sampled_txns,
            self.sampled_ops,
            self.recovered_matches,
        );
        if let Some(ok) = self.bank_invariant_ok {
            s.push_str(&format!("\nbank invariant {ok}"));
        }
        s
    }
}

// The skewed key generator lives in `mcv_txn::keys` so bench and
// engine share one definition; re-exported to keep this crate's public
// path stable.
pub use mcv_txn::{KeyPicker, Zipfian};

struct DriverShared {
    latency: Mutex<Histogram>,
    retries: AtomicU64,
}

/// Initial balance per bank account.
pub const BANK_INITIAL_BALANCE: i64 = 100;

/// The name of item `i`, the one keyspace both drivers use.
pub fn item_name(i: usize) -> String {
    format!("item{i:05}")
}

/// Writes `entries` into `engine`, 256 writes per transaction (one
/// huge transaction would hold every lock; chunks keep the WAL's
/// checkpointless replay honest).
pub fn bulk_load<K: AsRef<str>>(engine: &Engine, entries: impl IntoIterator<Item = (K, i64)>) {
    let mut entries = entries.into_iter().peekable();
    while entries.peek().is_some() {
        let mut t = engine.begin();
        for (k, v) in entries.by_ref().take(256) {
            t.write(k.as_ref(), v).expect("bulk write");
        }
        t.commit().expect("bulk commit");
    }
}

/// Funds accounts `0..items` with [`BANK_INITIAL_BALANCE`] each.
pub fn fund_accounts(engine: &Engine, items: usize) {
    bulk_load(engine, (0..items).map(|i| (item_name(i), BANK_INITIAL_BALANCE)));
}

/// Runs one closed-loop workload to completion and evaluates the
/// oracles. Deterministic in its transaction *specs* (seeded per
/// admission); interleavings and therefore counters are
/// scheduling-dependent.
pub fn run_driver(cfg: &DriverConfig) -> DriverReport {
    assert!(cfg.items >= 2, "driver needs at least two items");
    let engine = Engine::new(cfg.engine.clone());

    let bank = matches!(cfg.workload, WorkloadKind::BankTransfer);
    if bank {
        fund_accounts(&engine, cfg.items);
    }

    // Setup transactions (account funding) are not admissions; the
    // report counts workload commits only.
    let setup_commits = engine.metrics_snapshot().counter("engine.txn.committed");

    let shared = Arc::new(DriverShared {
        latency: Mutex::new(latency_histogram()),
        retries: AtomicU64::new(0),
    });
    // Built once per run: a zipfian picker is an O(items) zeta sum.
    let picker = Arc::new(match cfg.workload {
        WorkloadKind::ReadWrite { mix: Mix::Zipfian { theta }, .. } => {
            KeyPicker::zipfian(cfg.items, theta)
        }
        _ => KeyPicker::uniform(cfg.items),
    });
    let pool = Pool::new(cfg.clients, cfg.clients * 2);
    let start = Instant::now();
    for i in 0..cfg.txns {
        let engine = engine.clone();
        let shared = Arc::clone(&shared);
        let picker = Arc::clone(&picker);
        let spec_seed = cfg.seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let workload = cfg.workload;
        let items = cfg.items;
        pool.submit(move || {
            let t0 = Instant::now();
            run_one(&engine, &shared, workload, &picker, items, spec_seed);
            let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
            shared.latency.lock().expect("latency mutex").record(us);
        });
    }
    pool.join();
    let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let oracle_start = Instant::now();
    let Oracles { serializable, sampled_txns, sampled_ops, recovered_matches, bank_invariant_ok } =
        Oracles::check(&engine, bank.then_some(cfg.items));
    let oracle_ns = oracle_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let mut metrics = engine.metrics_snapshot();
    let retries = shared.retries.load(Ordering::Relaxed);
    metrics.counters.insert("engine.txn.retries".to_owned(), retries);
    let latency = shared.latency.lock().expect("latency mutex").clone();
    metrics.histograms.insert("wall.engine.latency_us".to_owned(), latency.clone());
    let commits = metrics.counter("engine.wal.commits");
    let forces = metrics.counter("engine.wal.forces");
    let committed = metrics.counter("engine.txn.committed") - setup_commits;
    let mut report = DriverReport {
        committed,
        retries,
        elapsed_ns,
        oracle_ns,
        latency_us: latency,
        metrics,
        serializable,
        sampled_txns,
        sampled_ops,
        bank_invariant_ok,
        recovered_matches,
        commits,
        forces,
    };
    report.metrics.gauges.insert("wall.engine.tput_tps".to_owned(), report.throughput_tps());
    report
}

/// Executes one transaction spec, retrying deadlock victims with a
/// fresh transaction until it commits.
fn run_one(
    engine: &Engine,
    shared: &DriverShared,
    workload: WorkloadKind,
    picker: &KeyPicker,
    items: usize,
    seed: u64,
) {
    loop {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut t = engine.begin();
        let executed = match workload {
            WorkloadKind::ReadWrite { write_pct, ops_per_txn, .. } => {
                read_write(&mut t, rng, write_pct, ops_per_txn, |rng| picker.next(rng))
            }
            WorkloadKind::BankTransfer => {
                transfer(&mut t, rng, items, |rng| rng.gen_range(0..items))
            }
            WorkloadKind::WriteSkew { pairs } => {
                assert!(pairs > 0 && items >= 2 * pairs, "write-skew needs items >= 2*pairs");
                let p = rng.gen_range(0..pairs);
                let (left, right) = (item_name(2 * p), item_name(2 * p + 1));
                (|| {
                    let a = t.read(&left)?;
                    let b = t.read(&right)?;
                    // Write exactly one side, derived from both reads —
                    // the classic "on-call doctors" shape where the
                    // constraint spans the pair but each writer touches
                    // half of it.
                    let target = if rng.gen_bool(0.5) { &left } else { &right };
                    t.write(target, a + b + 1)
                })()
            }
        };
        let result = match executed {
            Ok(()) => t.commit(),
            Err(e) => {
                t.abort();
                Err(e)
            }
        };
        match result {
            Ok(()) => return,
            Err(EngineError::Deadlock { .. } | EngineError::Certification { .. }) => {
                shared.retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("driver transaction failed: {e}"),
        }
    }
}

/// The operations (not the commit) of a read-write transaction: `ops`
/// point operations on items drawn by `key`, each a write of a random
/// value with probability `write_pct`/100, else a read.
pub fn read_write(
    t: &mut Txn,
    rng: &mut StdRng,
    write_pct: u8,
    ops: usize,
    mut key: impl FnMut(&mut StdRng) -> usize,
) -> Result<(), EngineError> {
    for _ in 0..ops {
        let name = item_name(key(rng));
        if rng.gen_range(0..100u8) < write_pct {
            t.write(&name, rng.gen_range(0..1_000_000i64))?;
        } else {
            t.read(&name)?;
        }
    }
    Ok(())
}

/// The operations (not the commit) of a bank transfer: read two
/// accounts drawn by `key` (the second moved on by one, mod `items`, if
/// they collide) and move 1..=10 between them.
pub fn transfer(
    t: &mut Txn,
    rng: &mut StdRng,
    items: usize,
    mut key: impl FnMut(&mut StdRng) -> usize,
) -> Result<(), EngineError> {
    let a = key(rng);
    let mut b = key(rng);
    if b == a {
        b = (a + 1) % items;
    }
    let amount = rng.gen_range(1..=10i64);
    let (na, nb) = (item_name(a), item_name(b));
    let va = t.read(&na)?;
    let vb = t.read(&nb)?;
    t.write(&na, va - amount)?;
    t.write(&nb, vb + amount)
}

/// What the oracles found on one quiesced engine.
#[derive(Debug, Clone, Copy)]
pub struct Oracles {
    /// The sampled committed history is conflict-serializable.
    pub serializable: bool,
    /// Transactions in the sample.
    pub sampled_txns: usize,
    /// Operations in the sample.
    pub sampled_ops: usize,
    /// Replaying the durable log reproduces the volatile state exactly.
    pub recovered_matches: bool,
    /// The recovered bank balances sum to what was funded.
    pub bank_invariant_ok: Option<bool>,
}

impl Oracles {
    /// Runs every oracle on a quiesced `engine` whose accounts
    /// `0..bank` were funded by [`fund_accounts`], if any.
    pub fn check(engine: &Engine, bank: Option<usize>) -> Oracles {
        // The sample is dropped before the log is replayed: they are the
        // two largest copies of the run, and need not be held at once.
        let (serializable, sampled_txns, sampled_ops) = {
            let history = engine.sampled_history();
            (history.is_conflict_serializable(), history.transactions().len(), history.len())
        };
        let recovered = mcv_txn::Wal::recover_bytes(&engine.durable_image());
        let bank_invariant_ok = bank.map(|n| {
            let total: i64 =
                (0..n).map(|i| recovered.get(&item_name(i)).copied().unwrap_or(0)).sum();
            total == BANK_INITIAL_BALANCE * n as i64
        });
        let recovered_matches = recovered == engine.state();
        Oracles { serializable, sampled_txns, sampled_ops, recovered_matches, bank_invariant_ok }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::engine::EngineConfig;
    use mcv_mvcc::IsolationLevel;

    fn mvcc_cfg(isolation: IsolationLevel, workload: WorkloadKind, seed: u64) -> DriverConfig {
        DriverConfig {
            engine: EngineConfig { isolation, group_commit: true, ..Default::default() },
            clients: 4,
            txns: 200,
            items: 64,
            workload,
            seed,
        }
    }

    #[test]
    fn snapshot_isolation_run_takes_zero_read_locks() {
        let workload = WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 30, ops_per_txn: 6 };
        let report = run_driver(&mvcc_cfg(IsolationLevel::SnapshotIsolation, workload, 9));
        assert_eq!(report.committed, 200);
        assert!(report.recovered_matches, "MVCC commits must replay from the WAL");
        assert_eq!(report.metrics.counter("engine.locks.read_acquisitions"), 0);
        assert!(report.metrics.counter("engine.mvcc.snapshot_reads") > 0);
        assert!(report.metrics.counter("engine.mvcc.snapshots") > 0);
    }

    #[test]
    fn read_committed_run_replays_from_wal() {
        let workload = WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 4 };
        let report = run_driver(&mvcc_cfg(IsolationLevel::ReadCommitted, workload, 10));
        assert_eq!(report.committed, 200);
        assert!(report.recovered_matches);
        assert_eq!(report.metrics.counter("engine.locks.read_acquisitions"), 0);
    }

    #[test]
    fn ssi_bank_run_keeps_the_invariant() {
        let cfg = DriverConfig {
            engine: EngineConfig {
                isolation: IsolationLevel::SerializableSsi,
                group_commit: true,
                ..Default::default()
            },
            clients: 4,
            txns: 150,
            items: 16,
            workload: WorkloadKind::BankTransfer,
            seed: 11,
        };
        let report = run_driver(&cfg);
        assert_eq!(report.bank_invariant_ok, Some(true));
        assert!(report.recovered_matches);
    }

    #[test]
    fn write_skew_workload_commits_under_every_level() {
        for isolation in [
            IsolationLevel::Serializable2pl,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::SerializableSsi,
        ] {
            let cfg = DriverConfig {
                engine: EngineConfig { isolation, group_commit: false, ..Default::default() },
                clients: 3,
                txns: 60,
                items: 8,
                workload: WorkloadKind::WriteSkew { pairs: 4 },
                seed: 12,
            };
            let report = run_driver(&cfg);
            assert_eq!(report.committed, 60, "under {isolation}");
            assert!(report.recovered_matches, "under {isolation}");
        }
    }

    #[test]
    fn uniform_read_write_run_passes_oracles() {
        let cfg = DriverConfig {
            engine: EngineConfig { group_commit: true, ..Default::default() },
            clients: 4,
            txns: 200,
            items: 64,
            workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 6 },
            seed: 1,
        };
        let report = run_driver(&cfg);
        assert_eq!(report.committed, 200);
        assert!(report.serializable, "history must be conflict-serializable");
        assert!(report.recovered_matches, "recovery must reproduce quiesced state");
        assert!(report.commits >= 200);
    }

    #[test]
    fn bank_transfer_run_preserves_total_balance() {
        let cfg = DriverConfig {
            engine: EngineConfig { group_commit: true, ..Default::default() },
            clients: 4,
            txns: 150,
            items: 16,
            workload: WorkloadKind::BankTransfer,
            seed: 3,
        };
        let report = run_driver(&cfg);
        assert_eq!(report.bank_invariant_ok, Some(true));
        assert!(report.serializable);
        assert!(report.recovered_matches);
    }

    #[test]
    fn zipfian_contended_run_stays_serializable() {
        let cfg = DriverConfig {
            engine: EngineConfig { shards: 4, group_commit: true, ..Default::default() },
            clients: 4,
            txns: 150,
            items: 8,
            workload: WorkloadKind::ReadWrite {
                mix: Mix::Zipfian { theta: 0.9 },
                write_pct: 60,
                ops_per_txn: 4,
            },
            seed: 5,
        };
        let report = run_driver(&cfg);
        assert_eq!(report.committed, 150);
        assert!(report.serializable);
    }
}
