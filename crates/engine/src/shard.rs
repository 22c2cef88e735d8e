//! Per-shard state: a slice of the database plus its lock table.
//!
//! Items are partitioned across shards by [`mcv_txn::shard_of`]; each
//! shard is protected by one mutex, so lock-table operations on
//! different shards never contend. The lock table itself is
//! [`mcv_txn::LockTable`], the same one the single-threaded
//! [`mcv_txn::LockManager`] drives.

use mcv_txn::{Item, LockTable, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One shard: data items plus their lock entries, under one mutex.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
}

#[derive(Debug, Default)]
pub(crate) struct ShardState {
    data: BTreeMap<Item, Value>,
    pub(crate) locks: LockTable,
}

impl ShardState {
    /// The current value of `item` (0 if never written, matching the
    /// recovery semantics of an absent WAL entry).
    pub(crate) fn value(&self, item: &str) -> Value {
        self.data.get(item).copied().unwrap_or(0)
    }

    /// Overwrites `item`, returning the previous value. Allocates a
    /// key only for an item the shard has never stored.
    pub(crate) fn set(&mut self, item: &str, value: Value) -> Value {
        match self.data.get_mut(item) {
            Some(slot) => std::mem::replace(slot, value),
            None => {
                self.data.insert(item.to_owned(), value);
                0
            }
        }
    }

    /// All items of this shard (for state comparison after quiesce).
    pub(crate) fn data(&self) -> &BTreeMap<Item, Value> {
        &self.data
    }
}
