//! # mcv-txn
//!
//! The transaction-processing substrate under the thesis' 3PC case
//! study: every local building block the commit protocol assumes,
//! implemented executably and tested against the very axioms the
//! formal specs in `mcv-blocks` state.
//!
//! - [`Wal`] — undo/redo write-ahead logging (`Storevalues`, SP6);
//! - [`LockTable`] + [`WaitsFor`] — strict two-phase locking
//!   (`Readlock`/`Writelock`, SP7/SP8) and its deadlock detection, the
//!   one implementation under both [`LockManager`] (single-threaded
//!   driver) and `mcv-engine`'s shards;
//! - [`ItemMap`] — the one hashed item index under the lock table,
//!   `mcv-engine`'s shard data and `mcv-mvcc`'s version chains, keyed
//!   by [`ItemKey`] (names up to 22 bytes inline);
//! - [`CheckpointStore`] — tentative/permanent checkpoints (SP9);
//! - [`History`] and [`ConflictGraph`] — the one isolation checker:
//!   conflict-serializability (global property 1), and ReadCommitted,
//!   SnapshotIsolation and Serializable on multi-version executions;
//! - [`SiteDb`] — the crash-faithful site database integrating all of
//!   the above with rollback recovery (SP10).
//!
//! # Examples
//!
//! ```
//! use mcv_txn::{SiteDb, TxnId};
//! let mut db = SiteDb::new();
//! db.begin(TxnId(1));
//! db.write(TxnId(1), "account_a", -100)?;
//! db.write(TxnId(1), "account_b", 100)?;
//! db.commit(TxnId(1))?;
//! db.crash();
//! db.recover();
//! assert_eq!(db.value("account_b"), Some(100));
//! # Ok::<(), mcv_txn::DbError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod db;
mod ids;
mod keys;
mod locks;
mod schedule;
mod wal;

pub use checkpoint::{CheckpointStore, Snapshot};
pub use db::{DbError, SiteDb};
pub use ids::{Item, TxnId, TxnStatus, Value};
pub use keys::{KeyPicker, Zipfian};
pub use locks::{
    shard_of, youngest_victim, ItemHasher, ItemKey, ItemMap, LockError, LockManager, LockMode,
    LockOutcome, LockTable, TryAcquire, WaitsFor,
};
pub use schedule::{ConflictGraph, Dep, Dependency, History, Isolation, Op, OpKind};
pub use wal::{ForcedWal, LogRecord, Wal};
