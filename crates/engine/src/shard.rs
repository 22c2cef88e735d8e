//! Per-shard state: a slice of the database plus its lock table.
//!
//! Items are partitioned across shards by [`mcv_txn::shard_of`]; each
//! shard is protected by one mutex, so lock-table operations on
//! different shards never contend. The lock table itself is
//! [`mcv_txn::LockTable`], the same one the single-threaded
//! [`mcv_txn::LockManager`] drives.

use mcv_txn::{ItemMap, LockTable, Value};
use std::sync::Mutex;

/// One shard: data items plus their lock entries, under one mutex.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
}

#[derive(Debug, Default)]
pub(crate) struct ShardState {
    /// An item nobody has stored is absent, here as in a recovered
    /// log; it reads as 0.
    pub(crate) data: ItemMap<Value>,
    pub(crate) locks: LockTable,
}

impl ShardState {
    /// The current value of `item` (0 if never written, matching the
    /// recovery semantics of an absent WAL entry).
    pub(crate) fn value(&self, item: &str) -> Value {
        self.data.get(item).copied().unwrap_or(0)
    }

    /// Puts a before-image back: the old value, or absence for an item
    /// the rolled-back transaction created.
    pub(crate) fn restore(&mut self, item: &str, before: Option<Value>) {
        match before {
            // The exclusive lock is still held: the slot is still there.
            Some(value) => *self.data.get_mut(item).expect("overwritten item is stored") = value,
            None => {
                self.data.remove(item);
            }
        }
    }
}
