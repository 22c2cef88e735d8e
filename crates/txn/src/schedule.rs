//! Histories and the one isolation checker (the *Serializability of
//! Transactions* global property, Section 4.1.1, made executable, with
//! the weaker levels beside it).
//!
//! A history records the interleaved read/write operations of a set of
//! transactions. Two operations conflict when they touch the same item,
//! come from different transactions, and at least one writes. The
//! history is conflict-serializable iff the conflict graph is acyclic;
//! the witness serial order is a topological sort.
//!
//! The same [`ConflictGraph`], built from version numbers instead, judges
//! multi-version executions. Its edges are typed `wr`, `ww` and `rw`, and
//! ReadCommitted, SnapshotIsolation and Serializable are three acyclicity
//! checks on it, after the dependency-graph characterisations of
//! *Algebraic Laws for Weak Consistency* (Cerone, Gotsman and Yang).

use crate::ids::{Item, TxnId};
use crate::locks::ItemHasher;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;

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
    /// write. The last writer gets an edge to each later reader (`wr`)
    /// and to the next writer (`ww`); each reader since gets an edge to
    /// the next writer (`rw`); self-edges are skipped. Every such edge
    /// joins two conflicting operations in history order, and every
    /// conflicting pair is joined by a path of them, so the graph has
    /// the same reachability as the all-pairs conflict graph — hence the
    /// same cycles and the same topological orders — with at most two
    /// edges per operation.
    pub fn conflict_graph(&self) -> ConflictGraph {
        let txns: Vec<TxnId> = self.transactions().into_iter().collect();
        let index = |t: TxnId| txns.binary_search(&t).expect("txn of the history");
        let mut succ: Vec<Vec<Edge>> = vec![Vec::new(); txns.len()];
        let mut names: Vec<Item> = Vec::new();
        let mut items: ItemNames<(u32, Option<usize>, Vec<usize>)> = ItemNames::default();
        for o in &self.ops {
            let t = index(o.txn);
            let (item, last_writer, readers) = items.entry(o.item.as_str()).or_insert_with(|| {
                names.push(o.item.clone());
                (names.len() as u32 - 1, None, Vec::new())
            });
            let item = *item;
            if let Some(w) = *last_writer {
                let kind = match o.kind {
                    OpKind::Read => Dep::Wr,
                    OpKind::Write => Dep::Ww,
                };
                push_edge(&mut succ, w, t, kind, item);
            }
            match o.kind {
                OpKind::Read => {
                    if readers.last() != Some(&t) {
                        readers.push(t);
                    }
                }
                OpKind::Write => {
                    for r in readers.drain(..) {
                        push_edge(&mut succ, r, t, Dep::Rw, item);
                    }
                    *last_writer = Some(t);
                }
            }
        }
        ConflictGraph { txns, items: names, succ }
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

/// The kind of a dependency from one committed transaction to another
/// (Adya's three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Dep {
    /// Write-read: the target read the version the source wrote.
    Wr,
    /// Write-write: the target wrote the version after the source's.
    Ww,
    /// Read-write (anti-dependency): the target wrote the version after
    /// the one the source read.
    Rw,
}

/// The isolation levels a [`ConflictGraph`] decides, weakest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Isolation {
    /// `wr ∪ ww` acyclic: no transaction observes or overwrites a
    /// transaction that depends on it (Adya's G1c excluded).
    ReadCommitted,
    /// `(wr ∪ ww) ; rw?` acyclic (Cerone and Gotsman): every cycle has
    /// two adjacent anti-dependencies, as in a write skew.
    SnapshotIsolation,
    /// Every edge acyclic.
    Serializable,
}

impl Isolation {
    /// The three levels, weakest first.
    pub const ALL: [Isolation; 3] =
        [Isolation::ReadCommitted, Isolation::SnapshotIsolation, Isolation::Serializable];
}

/// Short names: `rc`, `si` and `ser`.
impl fmt::Display for Isolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Isolation::ReadCommitted => "rc",
            Isolation::SnapshotIsolation => "si",
            Isolation::Serializable => "ser",
        })
    }
}

/// One edge of a witness cycle: `from` and `to` depend through `item`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Dependency {
    /// The source transaction.
    pub from: TxnId,
    /// The target transaction.
    pub to: TxnId,
    /// The kind of dependency.
    pub kind: Dep,
    /// The item it runs through.
    pub item: Item,
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = format!("{:?}", self.kind).to_lowercase();
        write!(f, "{} -{kind}({})-> {}", self.from, self.item, self.to)
    }
}

/// An edge of a [`ConflictGraph`]: target node, item index, kind.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    item: u32,
    kind: Dep,
}

/// A map keyed by item name, hashed as [`crate::ItemMap`] is: the names
/// come from the program's own workloads, and the default hasher made
/// the single-version graph ~10 % slower on long histories.
type ItemNames<'a, V> = HashMap<&'a str, V, BuildHasherDefault<ItemHasher>>;

/// Adds the edge `from → to` unless it is a self-edge.
fn push_edge(succ: &mut [Vec<Edge>], from: usize, to: usize, kind: Dep, item: u32) {
    if from != to {
        succ[from].push(Edge { to: to as u32, item, kind });
    }
}

/// The dependency graph of a set of committed transactions: nodes are
/// the transactions in id order, and `succ[i]` lists the typed edges out
/// of `txns[i]` (with repeats when several operations link the same
/// pair). Built from a single-version history by
/// [`History::conflict_graph`] or from version numbers by
/// [`ConflictGraph::multi_version`]; [`ConflictGraph::check`] decides
/// the three [`Isolation`] levels on it.
#[derive(Debug)]
pub struct ConflictGraph {
    txns: Vec<TxnId>,
    items: Vec<Item>,
    succ: Vec<Vec<Edge>>,
}

impl ConflictGraph {
    /// The graph of a multi-version execution, from the committed
    /// transactions' `reads` as `(txn, item, version read)` and
    /// `installs` as `(txn, item, version installed)`.
    ///
    /// Per item the installs are sorted by version. `wr` runs from the
    /// installer of the version read, `ww` joins consecutive installers,
    /// and `rw` runs from a reader to the installer of the next version
    /// after the one it read. Self-edges are skipped, and a version no
    /// install names is the initial state (no node). Edges to the
    /// immediate successor suffice: the `ww` chain reaches the later
    /// installers, so every level sees the cycles the all-versions
    /// graph has.
    pub fn multi_version(
        reads: &[(TxnId, &str, u64)],
        installs: &[(TxnId, &str, u64)],
    ) -> ConflictGraph {
        let mut txns: Vec<TxnId> = reads.iter().chain(installs).map(|r| r.0).collect();
        txns.sort_unstable();
        txns.dedup();
        let index = |t: TxnId| txns.binary_search(&t).expect("txn of the execution");
        let mut ids: ItemNames<u32> = ItemNames::default();
        let mut names: Vec<Item> = Vec::new();
        // Every install as (item, version, installer), sorted: each
        // item's versions form one run of the vector.
        let mut chains: Vec<(u32, u64, usize)> = installs
            .iter()
            .map(|&(t, item, version)| {
                let id = *ids.entry(item).or_insert_with(|| {
                    names.push(item.to_owned());
                    names.len() as u32 - 1
                });
                (id, version, index(t))
            })
            .collect();
        chains.sort_unstable();
        let mut succ: Vec<Vec<Edge>> = vec![Vec::new(); txns.len()];
        for pair in chains.windows(2) {
            let [(id, _, a), (next_id, _, b)] = [pair[0], pair[1]];
            if id == next_id {
                push_edge(&mut succ, a, b, Dep::Ww, id);
            }
        }
        for &(t, item, version) in reads {
            let Some(&id) = ids.get(item) else { continue };
            let t = index(t);
            let next = chains.partition_point(|&(i, v, _)| (i, v) <= (id, version));
            if let Some(&(i, v, w)) = next.checked_sub(1).map(|p| &chains[p]) {
                if (i, v) == (id, version) {
                    push_edge(&mut succ, w, t, Dep::Wr, id);
                }
            }
            if let Some(&(_, _, w)) = chains.get(next).filter(|c| c.0 == id) {
                push_edge(&mut succ, t, w, Dep::Rw, id);
            }
        }
        ConflictGraph { txns, items: names, succ }
    }

    /// The transactions, in id order.
    pub fn transactions(&self) -> &[TxnId] {
        &self.txns
    }

    /// Number of edges, repeats included.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Kahn's algorithm over every edge, always taking the smallest
    /// ready id: the least topological order, or `None` on a cycle.
    pub fn serial_order(&self) -> Option<Vec<TxnId>> {
        let order = kahn(self.txns.len(), |a| self.out(a, |e| Some(e.to as usize)));
        order.ok().map(|order| order.into_iter().map(|a| self.txns[a]).collect())
    }

    /// Whether the graph satisfies `level`, or else one cycle the level
    /// forbids, edge by edge.
    ///
    /// Serializable and ReadCommitted are one Kahn pass each, over every
    /// edge and over the `wr` and `ww` edges. SnapshotIsolation runs Kahn
    /// over two copies of each transaction: copy 0 is entered by a `wr`
    /// or `ww` edge, copy 1 by an `rw` edge, and copy 1 has no `rw` edge
    /// out. A cycle there is a cycle of `(wr ∪ ww) ; rw?` steps, and the
    /// pass stays linear in the edges.
    pub fn check(&self, level: Isolation) -> Result<(), Vec<Dependency>> {
        let n = self.txns.len();
        let found = match level {
            Isolation::Serializable => kahn(n, |a| self.out(a, |e| Some(e.to as usize))),
            Isolation::ReadCommitted => {
                kahn(n, |a| self.out(a, |e| (e.kind != Dep::Rw).then_some(e.to as usize)))
            }
            Isolation::SnapshotIsolation => kahn(2 * n, |x| {
                let after_rw = x % 2 == 1;
                self.out(x / 2, move |e| match e.kind {
                    Dep::Rw => (!after_rw).then_some(2 * e.to as usize + 1),
                    Dep::Wr | Dep::Ww => Some(2 * e.to as usize),
                })
            }),
        };
        found.map(drop).map_err(|cycle| {
            cycle
                .into_iter()
                .map(|(a, e)| Dependency {
                    from: self.txns[a],
                    to: self.txns[e.to as usize],
                    kind: e.kind,
                    item: self.items[e.item as usize].clone(),
                })
                .collect()
        })
    }

    /// The edges out of transaction `a` as `(target node, (a, edge))`,
    /// where `node` maps an edge to the node it enters, or drops it.
    fn out<'g>(
        &'g self,
        a: usize,
        node: impl Fn(Edge) -> Option<usize> + 'g,
    ) -> impl Iterator<Item = (usize, (usize, Edge))> + 'g {
        self.succ[a].iter().filter_map(move |&e| node(e).map(|b| (b, (a, e))))
    }
}

/// Kahn's algorithm over nodes `0..n` whose labelled out-edges `out(a)`
/// yields, always taking the smallest ready node: the least topological
/// order, or the labels of one cycle's edges in order.
fn kahn<L: Copy, I: Iterator<Item = (usize, L)>>(
    n: usize,
    out: impl Fn(usize) -> I,
) -> Result<Vec<usize>, Vec<L>> {
    let mut indegree = vec![0usize; n];
    for a in 0..n {
        for (b, _) in out(a) {
            indegree[b] += 1;
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&a| indegree[a] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(a)) = ready.pop() {
        order.push(a);
        for (b, _) in out(a) {
            indegree[b] -= 1;
            if indegree[b] == 0 {
                ready.push(Reverse(b));
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }
    // Every node left has a predecessor left: walk back along them
    // until a node repeats, then read the loop forwards.
    let left = |a: usize| indegree[a] > 0;
    let mut pred: Vec<Option<(usize, L)>> = vec![None; n];
    for a in (0..n).filter(|&a| left(a)) {
        for (b, label) in out(a) {
            if left(b) {
                pred[b].get_or_insert((a, label));
            }
        }
    }
    let mut at = vec![usize::MAX; n];
    let mut walk: Vec<L> = Vec::new();
    let mut x = (0..n).find(|&a| left(a)).expect("a node is left");
    while at[x] == usize::MAX {
        at[x] = walk.len();
        let (a, label) = pred[x].expect("a predecessor is left");
        walk.push(label);
        x = a;
    }
    let mut cycle = walk.split_off(at[x]);
    cycle.reverse();
    Err(cycle)
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

    /// A multi-version graph from `(txn, item, version)` triples.
    fn mv(
        reads: &[(u64, &'static str, u64)],
        installs: &[(u64, &'static str, u64)],
    ) -> ConflictGraph {
        let triples = |v: &[(u64, &'static str, u64)]| -> Vec<_> {
            v.iter().map(|&(t, i, ver)| (TxnId(t), i, ver)).collect()
        };
        ConflictGraph::multi_version(&triples(reads), &triples(installs))
    }

    fn dep(from: u64, kind: Dep, item: &str, to: u64) -> Dependency {
        Dependency { from: TxnId(from), to: TxnId(to), kind, item: item.into() }
    }

    #[test]
    fn write_skew_passes_si_and_fails_ser_with_the_two_cycle() {
        // Both read x@0 and y@0 from one snapshot; T1 installs x, T2 y.
        let g =
            mv(&[(1, "x", 0), (1, "y", 0), (2, "x", 0), (2, "y", 0)], &[(1, "x", 1), (2, "y", 2)]);
        assert_eq!(g.check(Isolation::ReadCommitted), Ok(()));
        assert_eq!(g.check(Isolation::SnapshotIsolation), Ok(()));
        assert_eq!(
            g.check(Isolation::Serializable),
            Err(vec![dep(1, Dep::Rw, "y", 2), dep(2, Dep::Rw, "x", 1)])
        );
        assert_eq!(g.serial_order(), None);
    }

    #[test]
    fn a_long_fork_fails_si() {
        // R3 sees T1's x but not T2's y; R4 sees T2's y but not T1's x.
        let g =
            mv(&[(3, "x", 1), (3, "y", 0), (4, "x", 0), (4, "y", 2)], &[(1, "x", 1), (2, "y", 2)]);
        assert_eq!(g.check(Isolation::ReadCommitted), Ok(()));
        let cycle = g.check(Isolation::SnapshotIsolation).expect_err("snapshots disagree");
        let kinds: Vec<Dep> = cycle.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, [Dep::Wr, Dep::Rw, Dep::Wr, Dep::Rw], "{cycle:?}");
        assert!(cycle.windows(2).all(|p| p[0].to == p[1].from));
        assert_eq!(cycle.last().map(|d| d.to), cycle.first().map(|d| d.from));
    }

    #[test]
    fn a_lost_update_fails_the_si_check() {
        // Both read x@0 and both install x: first-committer-wins skipped.
        let g = mv(&[(1, "x", 0), (2, "x", 0)], &[(1, "x", 1), (2, "x", 2)]);
        assert_eq!(g.check(Isolation::ReadCommitted), Ok(()));
        assert_eq!(
            g.check(Isolation::SnapshotIsolation),
            Err(vec![dep(1, Dep::Ww, "x", 2), dep(2, Dep::Rw, "x", 1)])
        );
        assert!(g.check(Isolation::Serializable).is_err());
    }

    #[test]
    fn reading_a_version_nobody_installed_reads_the_initial_state() {
        // T1 reads x@0 and y@5 (no installer: initial); T2 installs x@1.
        let g = mv(&[(1, "x", 0), (1, "y", 5)], &[(2, "x", 1)]);
        assert_eq!(g.transactions(), [TxnId(1), TxnId(2)]);
        assert_eq!(g.edge_count(), 1, "only T1 -rw(x)-> T2");
        assert_eq!(g.serial_order(), Some(vec![TxnId(1), TxnId(2)]));
    }

    #[test]
    fn a_single_version_cycle_names_its_edges() {
        // r1[X] w2[X] w1[X]: T1 -rw-> T2 -ww-> T1.
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Read);
        h.push(TxnId(2), "X", OpKind::Write);
        h.push(TxnId(1), "X", OpKind::Write);
        let g = h.conflict_graph();
        assert_eq!(
            g.check(Isolation::Serializable),
            Err(vec![dep(1, Dep::Rw, "X", 2), dep(2, Dep::Ww, "X", 1)])
        );
        assert_eq!(g.check(Isolation::ReadCommitted), Ok(()));
        assert_eq!(dep(1, Dep::Rw, "X", 2).to_string(), "T1 -rw(X)-> T2");
    }

    #[test]
    fn display_uses_standard_notation() {
        let mut h = History::new();
        h.push(TxnId(1), "X", OpKind::Read);
        h.push(TxnId(2), "X", OpKind::Write);
        assert_eq!(h.to_string(), "r1[X] w2[X]");
    }
}
