//! The global waits-for graph and cross-shard deadlock detection.
//!
//! Shards detect conflicts locally; cycles can span shards, so the
//! waits-for edges live in one process-wide structure. The edge set is
//! conservative — a blocked requester points at every current holder
//! *and* every earlier waiter of the item — which can doom a
//! transaction slightly early but never misses a real deadlock.
//!
//! The edges and the cycle search are [`mcv_txn::WaitsFor`] and victim
//! selection is [`mcv_txn::youngest_victim`], both shared with the
//! single-threaded [`mcv_txn::LockManager`], so the two abort the same
//! transaction for the same cycle (documented policy: youngest, i.e.
//! largest `TxnId`). What this module adds is what threads need: the
//! doom set, the epoch and the condvar.

use mcv_txn::{TxnId, WaitsFor};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Waits-for graph plus the wakeup machinery for blocked requesters.
///
/// Lock-ordering discipline: threads never hold a shard mutex and this
/// mutex at the same time (acquire paths take them strictly in
/// sequence), so the two layers cannot deadlock against each other.
#[derive(Debug, Default)]
pub(crate) struct WaitGraph {
    pub(crate) m: Mutex<GraphInner>,
    pub(crate) cv: Condvar,
    /// Lock-free mirror of [`GraphInner::epoch`], so the uncontended
    /// acquire fast path can snapshot the epoch without touching the
    /// global mutex. Updated under `m` by [`WaitGraph::bump_epoch`]; a
    /// stale read only causes one spurious retry, never a lost wakeup.
    epoch_mirror: AtomicU64,
}

impl WaitGraph {
    /// Advances the epoch (mutex held via `g`) and mirrors it.
    pub(crate) fn bump_epoch(&self, g: &mut GraphInner) {
        g.epoch += 1;
        self.epoch_mirror.store(g.epoch, Ordering::Release);
    }

    /// Mutex-free epoch snapshot for the fast path.
    pub(crate) fn epoch_hint(&self) -> u64 {
        self.epoch_mirror.load(Ordering::Acquire)
    }
}

#[derive(Debug, Default)]
pub(crate) struct GraphInner {
    /// The edges and the cycle search, shared with the model.
    waits: WaitsFor,
    /// Transactions chosen as deadlock victims that have not yet
    /// noticed; they abort at their next scheduling point.
    doomed: BTreeSet<TxnId>,
    /// Bumped on every lock release / victim selection; waiters re-run
    /// their acquisition attempt when it moves (prevents lost wakeups:
    /// the epoch is read *before* the try-acquire).
    pub(crate) epoch: u64,
    /// Cycles resolved (monotone counter for metrics).
    pub(crate) deadlocks: u64,
}

impl GraphInner {
    /// Replaces the out-edges of `t`.
    pub(crate) fn set_edges(&mut self, t: TxnId, blockers: impl IntoIterator<Item = TxnId>) {
        self.waits.set_edges(t, blockers);
    }

    /// Drops the out-edges of `t` (it is no longer waiting).
    pub(crate) fn clear_waiting(&mut self, t: TxnId) {
        self.waits.clear_waiting(t);
    }

    /// Removes every trace of `t`: out-edges, in-edges, doom flag.
    /// Called when `t` commits or aborts.
    pub(crate) fn forget(&mut self, t: TxnId) {
        self.waits.forget(t);
        self.doomed.remove(&t);
    }

    /// Whether `t` has been selected as a deadlock victim.
    pub(crate) fn is_doomed(&self, t: TxnId) -> bool {
        self.doomed.contains(&t)
    }

    /// Marks `t` for abort at its next scheduling point.
    pub(crate) fn doom(&mut self, t: TxnId) {
        self.doomed.insert(t);
    }

    /// If `t` is doomed, acknowledges it — the flag and `t`'s
    /// out-edges go — and returns true: the caller must abort `t`.
    pub(crate) fn take_doom(&mut self, t: TxnId) -> bool {
        let doomed = self.doomed.remove(&t);
        if doomed {
            self.waits.clear_waiting(t);
        }
        doomed
    }

    /// A waits-for cycle through `start`, if one exists.
    pub(crate) fn cycle_from(&self, start: TxnId) -> Option<Vec<TxnId>> {
        self.waits.cycle_from(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_two_party_cycle() {
        let mut g = GraphInner::default();
        g.set_edges(TxnId(1), [TxnId(2)]);
        g.set_edges(TxnId(2), [TxnId(1)]);
        let cycle = g.cycle_from(TxnId(1)).expect("cycle");
        assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
        assert_eq!(mcv_txn::youngest_victim(&cycle), TxnId(2));
    }

    #[test]
    fn finds_cross_shard_three_party_cycle() {
        let mut g = GraphInner::default();
        g.set_edges(TxnId(1), [TxnId(2)]);
        g.set_edges(TxnId(2), [TxnId(3)]);
        g.set_edges(TxnId(3), [TxnId(1)]);
        assert!(g.cycle_from(TxnId(2)).is_some());
    }

    #[test]
    fn no_cycle_on_chains() {
        let mut g = GraphInner::default();
        g.set_edges(TxnId(1), [TxnId(2)]);
        g.set_edges(TxnId(2), [TxnId(3)]);
        assert!(g.cycle_from(TxnId(1)).is_none());
        g.forget(TxnId(2));
        assert!(g.cycle_from(TxnId(1)).is_none());
    }

    #[test]
    fn forget_removes_in_edges_too() {
        let mut g = GraphInner::default();
        g.set_edges(TxnId(1), [TxnId(2)]);
        g.set_edges(TxnId(2), [TxnId(1)]);
        g.forget(TxnId(1));
        assert!(g.cycle_from(TxnId(2)).is_none());
    }
}
