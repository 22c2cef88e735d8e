//! Checkpointing (the thesis' *Checkpointing Protocol* building block).
//!
//! Requirements from Section 3.5.1: *two checkpoints need to be stored
//! at any time, one called the permanent checkpoint which cannot be
//! undone and other called the tentative checkpoint which can be
//! changed to a permanent one later*, taken periodically with period
//! Π > β + δ.

use crate::ids::{Item, Value};
use std::collections::BTreeMap;

/// A checkpointed database image.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Monotone checkpoint sequence number.
    pub seq: u64,
    /// The checkpointed state.
    pub state: BTreeMap<Item, Value>,
}

/// Storage for the tentative/permanent checkpoint pair.
///
/// # Examples
///
/// ```
/// use mcv_txn::CheckpointStore;
/// use std::collections::BTreeMap;
/// let mut cs = CheckpointStore::new();
/// let mut state = BTreeMap::new();
/// state.insert("X".to_string(), 5);
/// cs.take_tentative(state.clone());
/// assert!(cs.permanent().is_none());
/// cs.promote();
/// assert_eq!(cs.permanent().unwrap().state, state);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CheckpointStore {
    seq: u64,
    tentative: Option<Snapshot>,
    permanent: Option<Snapshot>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Records a new tentative checkpoint, replacing any previous
    /// tentative one.
    pub fn take_tentative(&mut self, state: BTreeMap<Item, Value>) -> u64 {
        self.seq += 1;
        self.tentative = Some(Snapshot { seq: self.seq, state });
        self.seq
    }

    /// Promotes the tentative checkpoint to permanent ("cannot be
    /// undone"). No-op if there is no tentative checkpoint.
    pub fn promote(&mut self) {
        if let Some(t) = self.tentative.take() {
            self.permanent = Some(t);
        }
    }

    /// The current tentative checkpoint.
    pub fn tentative(&self) -> Option<&Snapshot> {
        self.tentative.as_ref()
    }

    /// The current permanent checkpoint.
    pub fn permanent(&self) -> Option<&Snapshot> {
        self.permanent.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(v: Value) -> BTreeMap<Item, Value> {
        let mut m = BTreeMap::new();
        m.insert("X".to_string(), v);
        m
    }

    #[test]
    fn tentative_then_promote() {
        let mut cs = CheckpointStore::new();
        cs.take_tentative(state(1));
        assert!(cs.tentative().is_some());
        assert!(cs.permanent().is_none());
        cs.promote();
        assert!(cs.tentative().is_none());
        assert_eq!(cs.permanent().unwrap().state, state(1));
    }

    #[test]
    fn promote_is_idempotent_without_tentative() {
        let mut cs = CheckpointStore::new();
        cs.take_tentative(state(1));
        cs.promote();
        cs.promote();
        assert_eq!(cs.permanent().unwrap().state, state(1));
    }

    #[test]
    fn a_tentative_checkpoint_keeps_the_permanent_one() {
        let mut cs = CheckpointStore::new();
        cs.take_tentative(state(1));
        cs.promote();
        cs.take_tentative(state(2));
        assert_eq!(cs.permanent().unwrap().state, state(1));
        assert_eq!(cs.tentative().unwrap().state, state(2));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut cs = CheckpointStore::new();
        let a = cs.take_tentative(state(1));
        let b = cs.take_tentative(state(2));
        assert!(b > a);
    }
}
