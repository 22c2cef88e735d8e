//! [`LocalStore`] adapters: what a commit-protocol [`Site`] drives at
//! each node of the distributed topology.
//!
//! - [`EngineStore`] wires a shard's `Site` to a live [`mcv_engine::Engine`]:
//!   the FSM's begin/write/commit/abort land on real 2PL locks and the
//!   shard's group-commit WAL. Commits are staged and made durable at
//!   [`LocalStore::flush`], which the node loop calls before any send
//!   leaves, so a global commit is only acknowledged after the shard's
//!   log force (cited in the causal trace).
//! - [`CoordStore`] is the coordinator's stand-in: node 0 owns no data
//!   shard, so its local work is vacuous.
//!
//! [`Site`]: mcv_commit::Site

use mcv_commit::LocalStore;
use mcv_engine::{Engine, StagedCommit, Txn};
use mcv_txn::{TxnId, Value};
use std::collections::BTreeMap;

/// A [`LocalStore`] over one shard's live engine.
///
/// Crash modeling: the thesis assumes each site's recovery manager
/// redo-logs work as it is performed, so a prepared transaction's
/// writes survive a crash in stable storage. The adapter models that
/// by *retaining* open [`Txn`] handles across [`LocalStore::crash`] —
/// the volatile protocol state at the `Site` is wiped (votes, timers,
/// FSM positions), while the shard's prepared work stays restorable,
/// exactly as a redo log would leave it. A decision applied after
/// recovery then lands via [`LocalStore::resolve`] on the retained
/// handle.
#[derive(Debug)]
pub struct EngineStore {
    engine: Engine,
    open: BTreeMap<TxnId, Txn>,
    /// Writes the engine refused (deadlock victim): the site must vote
    /// no and the handle must not be committed later.
    poisoned: BTreeMap<TxnId, bool>,
    /// Commits staged since the last flush (record appended, locks
    /// held, durability deferred): [`LocalStore::flush`] forces them in
    /// one batch — one force per commit when deliveries arrive singly,
    /// one per delivery batch when the transport batches.
    staged: Vec<StagedCommit>,
}

impl EngineStore {
    /// Wraps a shard engine.
    pub fn new(engine: Engine) -> Self {
        EngineStore { engine, open: BTreeMap::new(), poisoned: BTreeMap::new(), staged: Vec::new() }
    }

    /// The wrapped engine (cheap clone of the shared handle).
    pub fn engine(&self) -> Engine {
        self.engine.clone()
    }
}

impl LocalStore for EngineStore {
    fn begin(&mut self, txn: TxnId) {
        // Global ids live in their own range (see `GLOBAL_TXN_BASE`),
        // disjoint from the engine's local allocator.
        self.open.entry(txn).or_insert_with(|| self.engine.begin_at(txn));
    }

    fn write(&mut self, txn: TxnId, item: &str, value: Value) -> Result<(), ()> {
        let Some(t) = self.open.get_mut(&txn) else { return Err(()) };
        match t.write(item, value) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.poisoned.insert(txn, true);
                Err(())
            }
        }
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), ()> {
        if self.poisoned.contains_key(&txn) {
            return Err(());
        }
        let Some(t) = self.open.remove(&txn) else { return Err(()) };
        self.staged.push(t.commit_stage().map_err(|_| ())?);
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), ()> {
        let Some(t) = self.open.remove(&txn) else { return Err(()) };
        t.abort();
        Ok(())
    }

    fn resolve(&mut self, txn: TxnId, commit: bool) {
        // Settle an in-doubt transaction after recovery; unknown ids
        // (a broadcast decision for work this shard never saw) are a
        // no-op.
        if let Some(t) = self.open.remove(&txn) {
            if commit && !self.poisoned.contains_key(&txn) {
                if let Ok(staged) = t.commit_stage() {
                    self.staged.push(staged);
                }
            } else {
                t.abort();
            }
        }
    }

    fn crash(&mut self) {
        // Volatile protocol state dies at the Site; the handles stay —
        // they stand in for the redo-logged prepared state the thesis
        // assumes stable storage preserves.
    }

    fn recover(&mut self) {}

    fn flush(&mut self) {
        if !self.staged.is_empty() {
            self.engine.finish_commits(std::mem::take(&mut self.staged));
        }
    }
}

/// The coordinator's vacuous local store: node 0 owns no shard.
#[derive(Debug, Default)]
pub struct CoordStore;

impl LocalStore for CoordStore {
    fn begin(&mut self, _txn: TxnId) {}

    fn write(&mut self, _txn: TxnId, _item: &str, _value: Value) -> Result<(), ()> {
        Ok(())
    }

    fn commit(&mut self, _txn: TxnId) -> Result<(), ()> {
        Ok(())
    }

    fn abort(&mut self, _txn: TxnId) -> Result<(), ()> {
        Ok(())
    }

    fn resolve(&mut self, _txn: TxnId, _commit: bool) {}

    fn crash(&mut self) {}

    fn recover(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_engine::EngineConfig;

    #[test]
    fn engine_store_commit_applies_and_is_durable() {
        let engine = Engine::new(EngineConfig { force_latency_us: 0, ..Default::default() });
        let mut s = EngineStore::new(engine.clone());
        let t = TxnId(1_000_000);
        s.begin(t);
        s.write(t, "X", 7).unwrap();
        s.commit(t).unwrap();
        s.flush();
        assert_eq!(engine.value("X"), 7);
        assert!(engine.committed_ids().contains(&t));
    }

    #[test]
    fn engine_store_retains_handles_across_crash_and_resolves() {
        let engine = Engine::new(EngineConfig { force_latency_us: 0, ..Default::default() });
        let mut s = EngineStore::new(engine.clone());
        let t = TxnId(1_000_001);
        s.begin(t);
        s.write(t, "Y", 3).unwrap();
        s.crash();
        s.recover();
        // The prepared work survived; a post-recovery decision lands.
        s.resolve(t, true);
        s.flush();
        assert_eq!(engine.value("Y"), 3);
    }

    #[test]
    fn engine_store_abort_rolls_back() {
        let engine = Engine::new(EngineConfig { force_latency_us: 0, ..Default::default() });
        let mut s = EngineStore::new(engine.clone());
        let t = TxnId(1_000_002);
        s.begin(t);
        s.write(t, "Z", 9).unwrap();
        s.abort(t).unwrap();
        assert_eq!(engine.value("Z"), 0);
        assert!(!engine.committed_ids().contains(&t));
    }

    #[test]
    fn store_defers_durability_until_flush() {
        let engine = Engine::new(EngineConfig { force_latency_us: 0, ..Default::default() });
        let mut s = EngineStore::new(engine.clone());
        for (i, item) in ["A", "B", "C"].iter().enumerate() {
            let t = TxnId(1_000_010 + i as u64);
            s.begin(t);
            s.write(t, item, 5).unwrap();
            s.commit(t).unwrap();
        }
        // Commit records are staged, not yet on the device.
        let before = mcv_txn::Wal::from_bytes_lossy(&engine.durable_image());
        assert!(before.committed().is_empty(), "staged commits must not be durable yet");
        s.flush();
        let after = mcv_txn::Wal::from_bytes_lossy(&engine.durable_image());
        assert_eq!(after.committed().len(), 3, "one flush forces the whole batch");
        assert_eq!(engine.value("A"), 5);
    }

    #[test]
    fn unknown_txn_resolve_is_a_noop() {
        let engine = Engine::new(EngineConfig { force_latency_us: 0, ..Default::default() });
        let mut s = EngineStore::new(engine);
        s.resolve(TxnId(42), true);
        assert!(s.commit(TxnId(42)).is_err());
    }
}
