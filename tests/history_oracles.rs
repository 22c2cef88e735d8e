//! The one-pass conflict graph against the all-pairs definition of
//! conflict-serializability, the work it does on a long history, and
//! the multi-version graph's three isolation checks against operational
//! definitions decided by brute force.

use mcv::txn::{ConflictGraph, History, Isolation, OpKind, TxnId};
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

/// The items of the multi-version executions.
const ITEMS: [&str; 3] = ["x", "y", "z"];

/// A multi-version execution of committed transactions `0..n`.
#[derive(Debug, Clone)]
struct Execution {
    /// Per item, its installers in version order: version `k + 1` is
    /// `order[item][k]`'s, version 0 the initial state.
    order: Vec<Vec<usize>>,
    /// Per transaction, the `(item, version)` pairs it read.
    reads: Vec<Vec<(usize, usize)>>,
}

impl Execution {
    /// The graph of the execution; versions are spaced ten apart.
    fn graph(&self) -> ConflictGraph {
        let txn = |t: usize| TxnId(t as u64 + 1);
        let reads: Vec<_> = (self.reads.iter().enumerate())
            .flat_map(|(t, rs)| rs.iter().map(move |&(x, v)| (txn(t), ITEMS[x], 10 * v as u64)))
            .collect();
        let installs: Vec<_> = (self.order.iter().enumerate())
            .flat_map(|(x, ws)| {
                ws.iter().enumerate().map(move |(k, &t)| (txn(t), ITEMS[x], 10 * (k as u64 + 1)))
            })
            .collect();
        ConflictGraph::multi_version(&reads, &installs)
    }

    /// Whether `t` installs item `x`.
    fn writes(&self, t: usize, x: usize) -> bool {
        self.order[x].contains(&t)
    }

    /// The version of `x` that the transactions at commit positions
    /// `< k` leave: the latest one of them installed.
    fn served(&self, pos: &[usize], k: usize, x: usize) -> usize {
        self.order[x]
            .iter()
            .enumerate()
            .filter(|(_, &w)| pos[w] < k)
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0)
    }

    /// Whether a snapshot of the first `k` committed transactions serves
    /// every read of `t`.
    fn serves(&self, pos: &[usize], k: usize, t: usize) -> bool {
        self.reads[t].iter().all(|&(x, v)| self.served(pos, k, x) == v)
    }

    /// The levels some commit order agreeing with every version order
    /// satisfies, by brute force over the orders:
    /// - ReadCommitted: every version read was installed by a
    ///   transaction that commits before the reader;
    /// - SnapshotIsolation: each transaction reads from a snapshot that
    ///   is a prefix of the commit order ending before it, and includes
    ///   every earlier transaction that writes an item it writes;
    /// - Serializable: each transaction reads from the whole prefix
    ///   before it.
    fn reference(&self) -> [bool; 3] {
        let n = self.reads.len();
        let mut holds = [false; 3];
        for co in permutations(n) {
            let mut pos = vec![0; n];
            for (i, &t) in co.iter().enumerate() {
                pos[t] = i;
            }
            if !self.order.iter().all(|ws| ws.windows(2).all(|p| pos[p[0]] < pos[p[1]])) {
                continue;
            }
            let rc = (0..n).all(|t| {
                self.reads[t].iter().all(|&(x, v)| v == 0 || pos[self.order[x][v - 1]] < pos[t])
            });
            let si = (0..n).all(|t| {
                let writers_before = (0..n).filter(|&u| {
                    pos[u] < pos[t]
                        && (0..ITEMS.len()).any(|x| self.writes(u, x) && self.writes(t, x))
                });
                let floor = writers_before.map(|u| pos[u] + 1).max().unwrap_or(0);
                (floor..=pos[t]).any(|k| self.serves(&pos, k, t))
            });
            let ser = (0..n).all(|t| self.serves(&pos, pos[t], t));
            for (h, now) in holds.iter_mut().zip([rc, si, ser]) {
                *h |= now;
            }
            if holds == [true; 3] {
                break;
            }
        }
        holds
    }
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

/// Up to six transactions, each with a write set, a read set and random
/// bytes that order its installs and pick the versions it reads: the
/// initial one or another transaction's, never its own.
fn execution_strategy() -> impl Strategy<Value = Execution> {
    prop::collection::vec((0u8..8, 0u8..8, any::<u64>()), 1..7).prop_map(|txns| {
        let byte = |t: usize, i: usize| (txns[t].2 >> (8 * i)) as usize & 0xff;
        let order: Vec<Vec<usize>> = (0..ITEMS.len())
            .map(|x| {
                let mut ws: Vec<usize> =
                    (0..txns.len()).filter(|&t| txns[t].0 >> x & 1 == 1).collect();
                ws.sort_by_key(|&t| (byte(t, x), t));
                ws
            })
            .collect();
        let reads = (0..txns.len())
            .map(|t| {
                (0..ITEMS.len())
                    .filter(|&x| txns[t].1 >> x & 1 == 1)
                    .map(|x| {
                        let mut versions = vec![0];
                        versions.extend((1..=order[x].len()).filter(|&v| order[x][v - 1] != t));
                        // Version 0 half the time: the overlapping
                        // snapshots write skew needs are common.
                        let b = byte(t, 3 + x);
                        (x, if b < 128 { 0 } else { versions[b % versions.len()] })
                    })
                    .collect()
            })
            .collect();
        Execution { order, reads }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn multi_version_checks_agree_with_their_definitions(e in execution_strategy()) {
        let graph = e.graph();
        let verdicts = Isolation::ALL.map(|level| graph.check(level).is_ok());
        prop_assert_eq!(verdicts, e.reference(), "execution: {:?}", e);
        let [rc, si, ser] = verdicts;
        prop_assert!((!ser || si) && (!si || rc), "SER ⇒ SI ⇒ RC: {:?}", e);
        prop_assert_eq!(graph.serial_order().is_some(), ser);
    }
}
