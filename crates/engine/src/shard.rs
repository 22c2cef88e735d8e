//! Per-shard state: a slice of the database plus its lock table.
//!
//! Items are partitioned across shards by [`mcv_txn::shard_of`]; each
//! shard is protected by one mutex, so lock-table operations on
//! different shards never contend. The lock table implements strict
//! 2PL with FIFO wait queues: a request is granted only when it is
//! compatible with the current holders *and* no earlier waiter is
//! still queued (no barging), which prevents writer starvation.

use mcv_txn::{Item, LockMode, TxnId, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// Lock state of one item.
#[derive(Debug, Default)]
struct LockEntry {
    sharers: BTreeSet<TxnId>,
    exclusive: Option<TxnId>,
    waiting: VecDeque<(TxnId, LockMode)>,
}

impl LockEntry {
    fn is_idle(&self) -> bool {
        self.sharers.is_empty() && self.exclusive.is_none() && self.waiting.is_empty()
    }

    /// Records `txn` as a holder in `mode` (the caller checked
    /// compatibility).
    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if self.exclusive != Some(txn) {
                    self.sharers.insert(txn);
                }
            }
            LockMode::Exclusive => {
                self.sharers.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }
}

/// Outcome of a non-blocking acquisition attempt.
pub(crate) enum TryAcquire {
    /// The lock is held; proceed.
    Granted,
    /// Conflict. The requester was enqueued (once); the payload is the
    /// conservative waits-for edge set: current holders plus waiters
    /// queued ahead of the requester.
    Blocked(Vec<TxnId>),
}

/// One shard: data items plus their lock entries, under one mutex.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
}

#[derive(Debug, Default)]
pub(crate) struct ShardState {
    data: BTreeMap<Item, Value>,
    locks: BTreeMap<Item, LockEntry>,
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

    /// Tries to take `item` in `mode` for `txn`; enqueues on conflict.
    ///
    /// Re-entrant: a holder re-requesting a mode it already satisfies
    /// is granted immediately. An upgrade (shared → exclusive) is
    /// granted when `txn` is the sole sharer.
    pub(crate) fn try_or_enqueue(&mut self, txn: TxnId, item: &str, mode: LockMode) -> TryAcquire {
        // Entries are dropped when idle, so a miss means nobody holds
        // or awaits `item`: grant outright, and allocate the key only
        // here.
        let Some(entry) = self.locks.get_mut(item) else {
            let mut entry = LockEntry::default();
            entry.grant(txn, mode);
            self.locks.insert(item.to_owned(), entry);
            return TryAcquire::Granted;
        };
        let compatible = match mode {
            LockMode::Shared => entry.exclusive.is_none() || entry.exclusive == Some(txn),
            LockMode::Exclusive => {
                (entry.exclusive.is_none() || entry.exclusive == Some(txn))
                    && entry.sharers.iter().all(|s| *s == txn)
            }
        };
        let my_pos = entry.waiting.iter().position(|(t, _)| *t == txn);
        let ahead: Vec<TxnId> = entry
            .waiting
            .iter()
            .take(my_pos.unwrap_or(entry.waiting.len()))
            .map(|(t, _)| *t)
            .collect();
        if compatible && ahead.is_empty() {
            if let Some(p) = my_pos {
                entry.waiting.remove(p);
            }
            entry.grant(txn, mode);
            return TryAcquire::Granted;
        }
        match my_pos {
            Some(p) => entry.waiting[p].1 = mode,
            None => entry.waiting.push_back((txn, mode)),
        }
        let mut blockers: BTreeSet<TxnId> = ahead.into_iter().collect();
        blockers.extend(entry.sharers.iter().copied());
        if let Some(x) = entry.exclusive {
            blockers.insert(x);
        }
        blockers.remove(&txn);
        TryAcquire::Blocked(blockers.into_iter().collect())
    }

    /// Removes `txn`'s pending request on `item` (deadlock-victim
    /// cleanup); holders are untouched.
    pub(crate) fn dequeue(&mut self, txn: TxnId, item: &str) {
        if let Some(entry) = self.locks.get_mut(item) {
            entry.waiting.retain(|(t, _)| *t != txn);
            if entry.is_idle() {
                self.locks.remove(item);
            }
        }
    }

    /// Releases every lock and pending request of `txn` in this shard
    /// (strict 2PL: called only at commit/abort). Returns whether any
    /// entry `txn` was involved in still has waiters — callers only
    /// need the global wakeup path when it does. When `released` is
    /// given, the items `txn` actually *held* (not merely queued on)
    /// are appended to it, so the caller can trace the releases.
    pub(crate) fn release_all(&mut self, txn: TxnId, mut released: Option<&mut Vec<Item>>) -> bool {
        let mut had_waiters = false;
        self.locks.retain(|item, entry| {
            let held = entry.sharers.remove(&txn) | (entry.exclusive == Some(txn));
            let involved = held | entry.waiting.iter().any(|(t, _)| *t == txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
            entry.waiting.retain(|(t, _)| *t != txn);
            if involved && !entry.waiting.is_empty() {
                had_waiters = true;
            }
            if held {
                if let Some(out) = released.as_deref_mut() {
                    out.push(item.clone());
                }
            }
            !entry.is_idle()
        });
        had_waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: LockMode = LockMode::Shared;
    const X: LockMode = LockMode::Exclusive;

    fn granted(r: TryAcquire) -> bool {
        matches!(r, TryAcquire::Granted)
    }

    fn blockers(r: TryAcquire) -> Vec<TxnId> {
        match r {
            TryAcquire::Granted => panic!("expected Blocked"),
            TryAcquire::Blocked(b) => b,
        }
    }

    #[test]
    fn shared_locks_coexist_exclusive_blocks() {
        let mut s = ShardState::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", S)));
        assert!(granted(s.try_or_enqueue(TxnId(2), "X", S)));
        let b = blockers(s.try_or_enqueue(TxnId(3), "X", X));
        assert_eq!(b, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn fifo_queue_prevents_barging() {
        let mut s = ShardState::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        let _ = s.try_or_enqueue(TxnId(2), "X", X);
        // T3's shared request is compatible with nothing held once T1
        // releases, but T2 is queued ahead — T3 must see T2 as a blocker.
        let b = blockers(s.try_or_enqueue(TxnId(3), "X", S));
        assert!(b.contains(&TxnId(2)));
        s.release_all(TxnId(1), None);
        // Head of queue gets through now.
        assert!(granted(s.try_or_enqueue(TxnId(2), "X", X)));
    }

    #[test]
    fn upgrade_granted_for_sole_sharer() {
        let mut s = ShardState::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", S)));
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        // And it is a real exclusive now.
        assert!(!granted(s.try_or_enqueue(TxnId(2), "X", S)));
    }

    #[test]
    fn release_all_clears_holds_and_queue_entries() {
        let mut s = ShardState::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        let _ = s.try_or_enqueue(TxnId(2), "X", S);
        s.release_all(TxnId(1), None);
        s.release_all(TxnId(2), None);
        assert!(s.locks.is_empty());
    }

    #[test]
    fn dequeue_removes_only_the_waiter() {
        let mut s = ShardState::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        let _ = s.try_or_enqueue(TxnId(2), "X", X);
        s.dequeue(TxnId(2), "X");
        s.release_all(TxnId(1), None);
        assert!(s.locks.is_empty());
    }
}
