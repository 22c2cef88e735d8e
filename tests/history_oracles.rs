//! The one-pass conflict graph against the all-pairs definition of
//! conflict-serializability, and the work it does on a long history.

use mcv::txn::{History, OpKind, TxnId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The definition: an edge `a → b` for every pair of operations of
/// different transactions on one item, at least one a write, `a`'s
/// first.
fn all_pairs_edges(h: &History) -> BTreeSet<(TxnId, TxnId)> {
    let ops = h.ops();
    let mut edges = BTreeSet::new();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a.txn != b.txn
                && a.item == b.item
                && (a.kind == OpKind::Write || b.kind == OpKind::Write)
            {
                edges.insert((a.txn, b.txn));
            }
        }
    }
    edges
}

/// Kahn's algorithm over the all-pairs edges, smallest ready id first.
fn reference_order(h: &History) -> Option<Vec<TxnId>> {
    let txns = h.transactions();
    let edges = all_pairs_edges(h);
    let mut ready: BTreeSet<TxnId> =
        txns.iter().copied().filter(|t| !edges.iter().any(|(_, b)| b == t)).collect();
    let mut done = BTreeSet::new();
    let mut order = Vec::new();
    while let Some(t) = ready.pop_first() {
        done.insert(t);
        order.push(t);
        for &(a, b) in &edges {
            if a == t && edges.iter().all(|(p, q)| *q != b || done.contains(p)) {
                ready.insert(b);
            }
        }
    }
    (order.len() == txns.len()).then_some(order)
}

/// Histories over five items and six transactions: repeated
/// operations, reads of a transaction's own writes and blind writes
/// all occur; transactions 5 and 6 only read.
fn history_strategy() -> impl Strategy<Value = History> {
    prop::collection::vec((1u64..7, 0u8..5, any::<bool>()), 0..28).prop_map(|ops| {
        let mut h = History::new();
        for (txn, item, write) in ops {
            let kind = if write && txn < 5 { OpKind::Write } else { OpKind::Read };
            h.push(TxnId(txn), format!("x{item}"), kind);
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn one_pass_graph_agrees_with_all_pairs(h in history_strategy()) {
        let reference = reference_order(&h);
        prop_assert_eq!(h.equivalent_serial_order(), reference.clone(), "history: {}", h);
        prop_assert_eq!(h.is_conflict_serializable(), reference.is_some(), "history: {}", h);
        prop_assert!(h.conflict_graph().edge_count() <= 2 * h.len(), "history: {}", h);
    }
}

/// A 140 000-operation history: 17 500 transactions of eight
/// operations, run two at a time on disjoint halves of 1 024 items, so
/// it is serializable and the sort places every transaction. The
/// all-pairs graph would compare ~10^10 pairs.
#[test]
fn a_long_history_builds_at_most_two_edges_per_operation() {
    const TXNS: u64 = 17_500;
    let mut h = History::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for pair in 0..TXNS / 2 {
        for _ in 0..8 {
            for half in 0..2 {
                let r = next();
                let item = (r % 512) * 2 + half;
                let kind = if (r >> 32) & 1 == 0 { OpKind::Read } else { OpKind::Write };
                h.push(TxnId(2 * pair + half + 1), format!("item{item:05}"), kind);
            }
        }
    }
    assert_eq!(h.len(), 140_000);
    let graph = h.conflict_graph();
    assert!(graph.edge_count() <= 2 * h.len(), "{} edges", graph.edge_count());
    let order = graph.serial_order().expect("pairs on disjoint halves serialize");
    assert_eq!(order.len(), TXNS as usize);
}
