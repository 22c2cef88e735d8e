//! Histories and conflict-serializability checking (the *Serializability
//! of Transactions* global property, Section 4.1.1, made executable).
//!
//! A history records the interleaved read/write operations of a set of
//! transactions. Two operations conflict when they touch the same item,
//! come from different transactions, and at least one writes. The
//! history is conflict-serializable iff the conflict graph is acyclic;
//! the witness serial order is a topological sort.

use crate::ids::{Item, TxnId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;

/// Kind of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OpKind {
    /// A read of the item.
    Read,
    /// A write of the item.
    Write,
}

/// One operation of a history.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Op {
    /// The issuing transaction.
    pub txn: TxnId,
    /// The touched item.
    pub item: Item,
    /// Read or write.
    pub kind: OpKind,
}

/// An interleaved execution history.
///
/// # Examples
///
/// ```
/// use mcv_txn::{History, OpKind, TxnId};
/// let mut h = History::new();
/// h.push(TxnId(1), "X", OpKind::Write);
/// h.push(TxnId(2), "X", OpKind::Read);
/// h.push(TxnId(2), "Y", OpKind::Write);
/// h.push(TxnId(1), "Y", OpKind::Read);
/// // T1 -> T2 on X, T2 -> T1 on Y: a cycle.
/// assert!(!h.is_conflict_serializable());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct History {
    ops: Vec<Op>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, txn: TxnId, item: impl Into<Item>, kind: OpKind) {
        self.ops.push(Op { txn, item: item.into(), kind });
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The set of transactions appearing in the history.
    pub fn transactions(&self) -> BTreeSet<TxnId> {
        self.ops.iter().map(|o| o.txn).collect()
    }

    /// The conflict graph, built in one pass over the operations.
    ///
    /// Per item it keeps the last writer and the readers since that
    /// write. The last writer gets an edge to each later reader and to
    /// the next writer; each reader since gets an edge to the next
    /// writer; self-edges are skipped. Every such edge joins two
    /// conflicting operations in history order, and every conflicting
    /// pair is joined by a path of them, so the graph has the same
    /// reachability as the all-pairs conflict graph — hence the same
    /// cycles and the same topological orders — with at most two edges
    /// per operation.
    pub fn conflict_graph(&self) -> ConflictGraph {
        let txns: Vec<TxnId> = self.transactions().into_iter().collect();
        let index = |t: TxnId| txns.binary_search(&t).expect("txn of the history");
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); txns.len()];
        let mut items: HashMap<&str, (Option<usize>, Vec<usize>)> = HashMap::new();
        for o in &self.ops {
            let t = index(o.txn);
            let (last_writer, readers) = items.entry(o.item.as_str()).or_default();
            if let Some(w) = *last_writer {
                if w != t {
                    succ[w].push(t);
                }
            }
            match o.kind {
                OpKind::Read => {
                    if readers.last() != Some(&t) {
                        readers.push(t);
                    }
                }
                OpKind::Write => {
                    for r in readers.drain(..) {
                        if r != t {
                            succ[r].push(t);
                        }
                    }
                    *last_writer = Some(t);
                }
            }
        }
        ConflictGraph { txns, succ }
    }

    /// Whether the conflict graph is acyclic.
    pub fn is_conflict_serializable(&self) -> bool {
        self.equivalent_serial_order().is_some()
    }

    /// A serial order witnessing serializability, if one exists
    /// (topological sort of the conflict graph; ties broken by id).
    pub fn equivalent_serial_order(&self) -> Option<Vec<TxnId>> {
        self.conflict_graph().serial_order()
    }
}

/// A history's conflict graph: nodes are its transactions in id order,
/// `succ[i]` lists the targets of `txns[i]`'s edges (with repeats when
/// several items link the same pair). See [`History::conflict_graph`].
#[derive(Debug)]
pub struct ConflictGraph {
    txns: Vec<TxnId>,
    succ: Vec<Vec<usize>>,
}

impl ConflictGraph {
    /// Number of edges, repeats included.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Kahn's algorithm, always taking the smallest ready id: the least
    /// topological order, or `None` on a cycle.
    pub fn serial_order(&self) -> Option<Vec<TxnId>> {
        let mut indegree = vec![0usize; self.txns.len()];
        for &b in self.succ.iter().flatten() {
            indegree[b] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..self.txns.len()).filter(|&t| indegree[t] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(self.txns.len());
        while let Some(Reverse(t)) = ready.pop() {
            order.push(self.txns[t]);
            for &b in &self.succ[t] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(Reverse(b));
                }
            }
        }
        (order.len() == self.txns.len()).then_some(order)
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let k = match o.kind {
                OpKind::Read => "r",
                OpKind::Write => "w",
            };
            write!(f, "{k}{}[{}]", o.txn.0, o.item)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_history_is_serializable() {
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Write);
        h.push(TxnId(1), "Y", OpKind::Write);
        h.push(TxnId(2), "X", OpKind::Read);
        h.push(TxnId(2), "Y", OpKind::Read);
        assert!(h.is_conflict_serializable());
        assert_eq!(h.equivalent_serial_order(), Some(vec![TxnId(1), TxnId(2)]));
    }

    #[test]
    fn classic_nonserializable_interleaving() {
        // r1[X] w2[X] w1[X]: T2 between T1's read and write.
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Read);
        h.push(TxnId(2), "X", OpKind::Write);
        h.push(TxnId(1), "X", OpKind::Write);
        assert!(!h.is_conflict_serializable());
    }

    #[test]
    fn reads_do_not_conflict() {
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Read);
        h.push(TxnId(2), "X", OpKind::Read);
        h.push(TxnId(1), "X", OpKind::Read);
        assert_eq!(h.conflict_graph().edge_count(), 0);
        assert!(h.is_conflict_serializable());
    }

    #[test]
    fn disjoint_items_never_conflict() {
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Write);
        h.push(TxnId(2), "Y", OpKind::Write);
        h.push(TxnId(1), "X", OpKind::Write);
        assert!(h.is_conflict_serializable());
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(History::new().is_conflict_serializable());
    }

    #[test]
    fn blind_writes_can_still_break_conflict_serializability() {
        // w1[X] w2[X] w2[Y] w1[Y] w3[X] w3[Y]: all blind writes, and the
        // conflict graph has a T1/T2 cycle.
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Write);
        h.push(TxnId(2), "X", OpKind::Write);
        h.push(TxnId(2), "Y", OpKind::Write);
        h.push(TxnId(1), "Y", OpKind::Write);
        h.push(TxnId(3), "X", OpKind::Write);
        h.push(TxnId(3), "Y", OpKind::Write);
        assert!(!h.is_conflict_serializable());
    }

    #[test]
    fn display_uses_standard_notation() {
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Read);
        h.push(TxnId(2), "X", OpKind::Write);
        assert_eq!(h.to_string(), "r1[X] w2[X]");
    }
}
