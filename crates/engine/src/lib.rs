//! # mcv-engine
//!
//! A real concurrent transaction-processing engine over the [`mcv_txn`]
//! primitives — the repo's executable answer to "does the modular
//! theory survive actual threads?". Where [`mcv_txn::SiteDb`] models
//! one site single-threadedly and `mcv-sim` interleaves deterministic
//! steps, this crate runs genuinely parallel transactions and then
//! feeds what happened back into the thesis' own oracles.
//!
//! - [`Engine`] / [`Txn`] — sharded strict-2PL data store with
//!   blocking lock acquisition, cross-shard deadlock detection
//!   (lock table, waits-for graph and youngest-victim policy are
//!   [`mcv_txn`]'s, shared with [`mcv_txn::LockManager`]), and
//!   undo/redo write-ahead logging;
//! - group-commit WAL — a dedicated log-writer thread batches commit
//!   forces so concurrent commits share device operations
//!   (`engine.wal.forces < engine.wal.commits`), and runs the
//!   acknowledgement of a commit left with it ([`Txn::commit_then`])
//!   after the force that covers it, so no caller has to wait;
//! - [`Pool`] — bounded worker pool with blocking backpressure
//!   (`submit`) and a non-blocking admission path (`try_submit`) that
//!   sheds with a typed [`Shed`] error when the queue is full;
//! - [`run_driver`] — closed-loop workload drivers (uniform/zipfian
//!   read-write mixes, bank transfers, write-skew pairs) that record
//!   latency and throughput through [`mcv_obs`] and check every run
//!   against the serializability, recovery-equivalence, and bank-sum
//!   oracles;
//! - [`IsolationLevel`] — the 2PL path above, or the `mcv-mvcc`
//!   version-chain paths (ReadCommitted / SnapshotIsolation /
//!   SerializableSsi) where reads bypass the lock table entirely.
//!
//! # Examples
//!
//! ```
//! use mcv_engine::{run_driver, DriverConfig, Mix, WorkloadKind};
//! let report = run_driver(&DriverConfig {
//!     clients: 2,
//!     txns: 50,
//!     items: 32,
//!     workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 4 },
//!     ..Default::default()
//! });
//! assert_eq!(report.committed, 50);
//! assert!(report.serializable && report.recovered_matches);
//! ```

#![warn(missing_docs)]

mod deadlock;
#[allow(clippy::module_inception)]
mod engine;
mod gcwal;
mod pool;
mod shard;
mod workload;

pub use engine::{latency_histogram, Engine, EngineConfig, EngineError, StagedCommit, Txn};
pub use mcv_mvcc::IsolationLevel;
pub use pool::{Pool, Shed};
pub use workload::{
    run_driver, DriverConfig, DriverReport, KeyPicker, Mix, WorkloadKind, Zipfian,
    BANK_INITIAL_BALANCE,
};
