//! Strict two-phase locking (the thesis' *Two Phase Locking Protocol*
//! building block): one [`LockTable`], one [`WaitsFor`] graph, two
//! drivers.
//!
//! The table and the graph are the only implementation of the block.
//! [`LockManager`] drives them from a single thread, granting at
//! release; `mcv-engine` puts one table behind each shard mutex and
//! wraps the graph with its doom set and condvar, granting when the
//! blocked thread re-requests.
//!
//! Requirements from Section 3.5.1, enforced and tested here:
//! - *only one transaction at a time may write-lock an object* —
//!   exclusive locks are mutually exclusive;
//! - *multiple transactions may read-lock an object; a read counter
//!   holds the number* — shared locks are counted;
//! - *if an object is write-locked, no read locks are allowed*;
//! - *transaction must unlock all objects before finishing* —
//!   [`LockManager::release_all`] at commit/abort (strict 2PL);
//! - the 2PL rule proper: once a transaction has released any lock it
//!   may not acquire another (growing/shrinking phases).

use crate::ids::{Item, TxnId};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted immediately.
    Granted,
    /// The request conflicts and was queued; the transaction must wait.
    Queued,
    /// Granting would deadlock. The `victim` is chosen deterministically
    /// (see [`youngest_victim`]); the caller must abort it — usually,
    /// but not necessarily, the requester itself.
    WouldDeadlock {
        /// The waits-for cycle found, as transaction ids.
        cycle: Vec<TxnId>,
        /// The deterministic victim: youngest transaction in the cycle.
        victim: TxnId,
    },
}

/// The deterministic youngest-victim rule shared by [`LockManager`] and
/// the concurrent engine's deadlock detector: the victim is the
/// transaction with the numerically greatest [`TxnId`] in the cycle
/// (ids are handed out monotonically, so the greatest id is the
/// youngest transaction — the one with the least work to redo).
/// Panics on an empty cycle.
pub fn youngest_victim(cycle: &[TxnId]) -> TxnId {
    *cycle.iter().max().expect("deadlock cycle is non-empty")
}

/// Maps `item` to one of `shards` lock-table/data shards (FNV-1a hash).
/// Shared between the engine's sharded lock table and anything else
/// that partitions the item space, so co-located items stay co-located
/// across layers. Takes the name's bytes, so a `&str` and an
/// [`ItemKey`] of one name land in one shard. Panics if `shards` is
/// zero.
pub fn shard_of(item: impl AsRef<[u8]>, shards: usize) -> usize {
    assert!(shards > 0, "shard_of: zero shards");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in item.as_ref() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards as u64) as usize
}

/// The item index: every per-shard map keyed by item name (the
/// engine's data, the lock table, the version chains) is this one
/// hashed map. Seedless, so runs repeat; iteration order is still
/// arbitrary and must never reach an output (sort first). Probe it
/// with the name's bytes: `map.get(item.as_bytes())`.
pub type ItemMap<V> = HashMap<ItemKey, V, BuildHasherDefault<ItemHasher>>;

/// The longest name an [`ItemKey`] keeps inline.
const INLINE: usize = 22;

/// An item name as the item index stores it. A name of up to 22 bytes
/// lives in the key itself, so the map's bucket holds the whole name
/// and a probe compares it without reading a second cache line; a
/// longer one is kept in a `Box<str>`. 24 bytes either way.
///
/// A key is its bytes: `Hash` and `Eq` are those of
/// [`ItemKey::as_bytes`], which is what makes `Borrow<[u8]>` sound and
/// lets an [`ItemMap`] be probed with `item.as_bytes()` without
/// building a key. [`ItemKey::as_str`] checks the bytes again, so it is
/// for cold paths.
#[derive(Clone)]
pub struct ItemKey(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the name; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap(Box<str>),
}

impl ItemKey {
    /// The key of `item`: inline when it fits, boxed otherwise.
    pub fn new(item: &str) -> ItemKey {
        let name = item.as_bytes();
        if name.len() > INLINE {
            return ItemKey(Repr::Heap(item.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..name.len()].copy_from_slice(name);
        ItemKey(Repr::Inline { len: name.len() as u8, bytes })
    }

    /// The name's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(name) => name.as_bytes(),
        }
    }

    /// The name. An inline name is validated as UTF-8 again (it always
    /// is: only a whole `&str` is ever stored), so keep this off the
    /// per-operation path.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an item key holds a whole str")
            }
            Repr::Heap(name) => name,
        }
    }
}

const _: () = assert!(std::mem::size_of::<ItemKey>() == 24);

impl Borrow<[u8]> for ItemKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for ItemKey {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Hash for ItemKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialEq for ItemKey {
    fn eq(&self, other: &ItemKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ItemKey {}

impl fmt::Debug for ItemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The hasher behind [`ItemMap`]: eight bytes at a time through a
/// folded 64x64 -> 128-bit multiply. Deliberately not FNV: all items of
/// one shard share `fnv1a(item) % shards` ([`shard_of`]), and a table
/// indexed by that same hash would cluster. Not collision-resistant —
/// keys come from workload generators, not from an adversary.
#[derive(Debug, Default, Clone, Copy)]
pub struct ItemHasher(u64);

impl Hasher for ItemHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let fold = |word: u64| {
            let m = u128::from(word) * 0x9e37_79b9_7f4a_7c15;
            (m as u64) ^ (m >> 64) as u64
        };
        let word = |eight: &[u8]| u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        // The length goes in first, so padding cannot make "a" and
        // "a\0" one key.
        let mut h = self.0.wrapping_add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for eight in &mut words {
            h = fold(h ^ word(eight));
        }
        // What is left over: the last eight bytes again (no
        // variable-length copy), or a short key's few bytes.
        match words.remainder() {
            [] => {}
            _ if bytes.len() > 8 => h = fold(h ^ word(&bytes[bytes.len() - 8..])),
            few => h = fold(h ^ few.iter().rev().fold(0, |w, b| w << 8 | u64::from(*b))),
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Errors violating the locking discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The transaction already released a lock and is in its shrinking
    /// phase (2PL violation).
    ShrinkingPhase(TxnId),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::ShrinkingPhase(t) => {
                write!(f, "{t} attempted to lock after unlocking (2PL violation)")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// The shared holders of one item, each once. Nearly always one, and
/// that one lives inline: a shared grant on a fresh entry allocates
/// nothing and the holder check touches no second cache line.
/// Invariant: `rest` is empty whenever `first` is.
#[derive(Debug, Default, Clone)]
struct Sharers {
    first: Option<TxnId>,
    rest: Vec<TxnId>,
}

impl Sharers {
    fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    fn len(&self) -> usize {
        self.iter().count()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn contains(&self, txn: TxnId) -> bool {
        self.iter().any(|s| s == txn)
    }

    fn insert(&mut self, txn: TxnId) {
        if self.first.is_none() {
            self.first = Some(txn);
        } else if !self.contains(txn) {
            self.rest.push(txn);
        }
    }

    /// Removes `txn`; whether it was a sharer.
    fn remove(&mut self, txn: TxnId) -> bool {
        if self.first == Some(txn) {
            self.first = self.rest.pop();
            return true;
        }
        let at = self.rest.iter().position(|s| *s == txn);
        if let Some(at) = at {
            self.rest.swap_remove(at);
        }
        at.is_some()
    }
}

/// Lock state of one item.
#[derive(Debug, Default, Clone)]
struct LockEntry {
    /// Holders of shared locks (the "read counter" is `sharers.len()`).
    sharers: Sharers,
    /// Holder of the exclusive lock, if any (the "1-bit write lock flag").
    exclusive: Option<TxnId>,
    /// FIFO wait queue, at most one slot per transaction.
    waiting: VecDeque<(TxnId, LockMode)>,
}

impl LockEntry {
    fn is_idle(&self) -> bool {
        self.sharers.is_empty() && self.exclusive.is_none() && self.waiting.is_empty()
    }

    /// Whether `txn` holds a lock at least as strong as `mode`
    /// (exclusive subsumes shared).
    fn holds(&self, txn: TxnId, mode: LockMode) -> bool {
        self.exclusive == Some(txn) || (mode == LockMode::Shared && self.sharers.contains(txn))
    }

    /// Whether `mode` for `txn` is compatible with every *other*
    /// holder: shared needs no foreign writer, exclusive needs no
    /// foreign holder at all (a sole sharer may upgrade).
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        let no_foreign_writer = self.exclusive.is_none() || self.exclusive == Some(txn);
        match mode {
            LockMode::Shared => no_foreign_writer,
            LockMode::Exclusive => no_foreign_writer && self.sharers.iter().all(|s| s == txn),
        }
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
                self.sharers.remove(txn);
                self.exclusive = Some(txn);
            }
        }
    }
}

/// Outcome of a non-blocking acquisition attempt.
#[derive(Debug)]
pub enum TryAcquire {
    /// The lock is held; proceed.
    Granted,
    /// Conflict. The requester was enqueued (once); the payload is the
    /// conservative waits-for edge set: current holders plus waiters
    /// queued ahead of the requester.
    Blocked(Vec<TxnId>),
}

/// The lock table: strict 2PL with FIFO wait queues. A request is
/// granted only when it is compatible with the current holders *and*
/// no earlier waiter is still queued (no barging), which prevents
/// writer starvation. Entries exist only while somebody holds or
/// awaits the item, so the table is bounded by the locks in flight,
/// not by the items ever seen.
///
/// The table never blocks and never grants on its own: a waiter gets
/// its lock by calling [`LockTable::try_or_enqueue`] again once it
/// reaches the head of the queue.
#[derive(Debug, Default, Clone)]
pub struct LockTable {
    locks: ItemMap<LockEntry>,
}

impl LockTable {
    /// Tries to take `item` in `mode` for `txn`; enqueues on conflict.
    ///
    /// Re-entrant: a holder re-requesting a mode it already satisfies
    /// is granted immediately. An upgrade (shared → exclusive) is
    /// granted when `txn` is the sole sharer. A waiter that asks again
    /// keeps its queue slot (the mode is updated in place).
    pub fn try_or_enqueue(&mut self, txn: TxnId, item: &str, mode: LockMode) -> TryAcquire {
        // Entries are dropped when idle, so a miss means nobody holds
        // or awaits `item`: grant outright, and build the key only
        // here.
        let Some(entry) = self.locks.get_mut(item.as_bytes()) else {
            let mut entry = LockEntry::default();
            entry.grant(txn, mode);
            self.locks.insert(ItemKey::new(item), entry);
            return TryAcquire::Granted;
        };
        if entry.holds(txn, mode) {
            return TryAcquire::Granted;
        }
        let my_pos = entry.waiting.iter().position(|(t, _)| *t == txn);
        let ahead = my_pos.unwrap_or(entry.waiting.len());
        if ahead == 0 && entry.compatible(txn, mode) {
            if my_pos.is_some() {
                entry.waiting.pop_front();
            }
            entry.grant(txn, mode);
            return TryAcquire::Granted;
        }
        match my_pos {
            Some(p) => entry.waiting[p].1 = mode,
            None => entry.waiting.push_back((txn, mode)),
        }
        let mut blockers: Vec<TxnId> = entry
            .waiting
            .iter()
            .take(ahead)
            .map(|(t, _)| *t)
            .chain(entry.sharers.iter())
            .chain(entry.exclusive)
            .filter(|b| *b != txn)
            .collect();
        blockers.sort_unstable();
        blockers.dedup();
        TryAcquire::Blocked(blockers)
    }

    /// Removes `txn`'s pending request on `item` (a deadlock victim or
    /// a caller that will not wait); holders are untouched.
    pub fn dequeue(&mut self, txn: TxnId, item: &str) {
        if let Some(entry) = self.locks.get_mut(item.as_bytes()) {
            entry.waiting.retain(|(t, _)| *t != txn);
            if entry.is_idle() {
                self.locks.remove(item.as_bytes());
            }
        }
    }

    /// Releases every lock and pending request of `txn` (strict 2PL:
    /// called only at commit/abort). Returns the items `txn` was
    /// involved in that still have waiters — empty means nobody needs
    /// waking. When `released` is given, the items `txn` actually
    /// *held* (not merely queued on) are appended to it, so the caller
    /// can trace the releases. Both lists come out ascending by item:
    /// the table's own iteration order is arbitrary and must not reach
    /// grant order or a trace.
    pub fn release_all(&mut self, txn: TxnId, mut released: Option<&mut Vec<Item>>) -> Vec<Item> {
        let mut contended = Vec::new();
        let first_released = released.as_deref().map_or(0, Vec::len);
        self.locks.retain(|item, entry| {
            let held = entry.sharers.remove(txn) | (entry.exclusive == Some(txn));
            let involved = held | entry.waiting.iter().any(|(t, _)| *t == txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
            entry.waiting.retain(|(t, _)| *t != txn);
            if involved && !entry.waiting.is_empty() {
                contended.push(item.as_str().to_owned());
            }
            if held {
                if let Some(out) = released.as_deref_mut() {
                    out.push(item.as_str().to_owned());
                }
            }
            !entry.is_idle()
        });
        contended.sort_unstable();
        if let Some(out) = released {
            out[first_released..].sort_unstable();
        }
        contended
    }

    /// The request at the head of `item`'s wait queue, if any.
    fn queue_head(&self, item: &str) -> Option<(TxnId, LockMode)> {
        self.locks.get(item.as_bytes()).and_then(|e| e.waiting.front().copied())
    }

    /// Number of items somebody currently holds or awaits.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether nobody holds or awaits anything.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

/// The waits-for graph: `t → transactions t waits for`, with the one
/// cycle search. The edge sets fed to it are the conservative ones
/// [`TryAcquire::Blocked`] reports, which can flag a transaction
/// slightly early but never miss a real deadlock.
#[derive(Debug, Default, Clone)]
pub struct WaitsFor {
    edges: BTreeMap<TxnId, BTreeSet<TxnId>>,
}

impl WaitsFor {
    /// Replaces the out-edges of `t` (a blocked thread waits on one
    /// request at a time).
    pub fn set_edges(&mut self, t: TxnId, blockers: impl IntoIterator<Item = TxnId>) {
        self.edges.insert(t, blockers.into_iter().collect());
    }

    /// Adds to the out-edges of `t` (a model transaction may be queued
    /// on several items at once).
    fn add_edges(&mut self, t: TxnId, blockers: impl IntoIterator<Item = TxnId>) {
        self.edges.entry(t).or_default().extend(blockers);
    }

    /// Drops the out-edges of `t` (it is no longer waiting).
    pub fn clear_waiting(&mut self, t: TxnId) {
        self.edges.remove(&t);
    }

    /// Removes every edge from or to `t`. Called when `t` commits or
    /// aborts.
    pub fn forget(&mut self, t: TxnId) {
        self.edges.remove(&t);
        for targets in self.edges.values_mut() {
            targets.remove(&t);
        }
    }

    /// A waits-for cycle through `start`, if one exists (iterative
    /// DFS), as the path from `start` to the transaction that waits
    /// for it.
    pub fn cycle_from(&self, start: TxnId) -> Option<Vec<TxnId>> {
        static EMPTY: BTreeSet<TxnId> = BTreeSet::new();
        let out = |t: TxnId| self.edges.get(&t).unwrap_or(&EMPTY).iter();
        // `path` is the DFS stack and `iters[i]` the unexplored
        // out-edges of `path[i]`; a transaction enters the stack at
        // most once.
        let mut path = vec![start];
        let mut iters = vec![out(start)];
        let mut seen = BTreeSet::from([start]);
        while let Some(it) = iters.last_mut() {
            match it.next() {
                Some(&next) if next == start => return Some(path),
                Some(&next) => {
                    if seen.insert(next) {
                        path.push(next);
                        iters.push(out(next));
                    }
                }
                None => {
                    path.pop();
                    iters.pop();
                }
            }
        }
        None
    }
}

/// A strict two-phase lock manager: the single-threaded driver of
/// [`LockTable`] and [`WaitsFor`]. Nobody blocks here, so a queued
/// request is granted when its blocker releases
/// ([`LockManager::release_all`] reports the grants). What it adds to
/// the table is the 2PL rule proper: no lock after the first release.
///
/// # Examples
///
/// ```
/// use mcv_txn::{LockManager, LockMode, LockOutcome, TxnId};
/// let mut lm = LockManager::new();
/// assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap(), LockOutcome::Granted);
/// assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap(), LockOutcome::Queued);
/// let granted = lm.release_all(TxnId(1));
/// assert_eq!(granted, vec![(TxnId(2), "X".to_string(), LockMode::Shared)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct LockManager {
    table: LockTable,
    graph: WaitsFor,
    /// Transactions that have released at least one lock.
    shrinking: BTreeSet<TxnId>,
}

impl LockManager {
    /// A new, empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    fn check_growing(&self, txn: TxnId) -> Result<(), LockError> {
        if self.shrinking.contains(&txn) {
            return Err(LockError::ShrinkingPhase(txn));
        }
        Ok(())
    }

    /// Requests `mode` on `item` for `txn`. On
    /// [`LockOutcome::WouldDeadlock`] the request is withdrawn (not
    /// queued) and `txn`'s waits-for edges are dropped.
    ///
    /// # Errors
    ///
    /// [`LockError::ShrinkingPhase`] if `txn` already released locks.
    pub fn acquire(
        &mut self,
        txn: TxnId,
        item: impl AsRef<str>,
        mode: LockMode,
    ) -> Result<LockOutcome, LockError> {
        self.check_growing(txn)?;
        let item = item.as_ref();
        let blockers = match self.table.try_or_enqueue(txn, item, mode) {
            TryAcquire::Granted => return Ok(LockOutcome::Granted),
            TryAcquire::Blocked(blockers) => blockers,
        };
        self.graph.add_edges(txn, blockers);
        let Some(cycle) = self.graph.cycle_from(txn) else {
            return Ok(LockOutcome::Queued);
        };
        self.table.dequeue(txn, item);
        self.graph.clear_waiting(txn);
        let victim = youngest_victim(&cycle);
        Ok(LockOutcome::WouldDeadlock { cycle, victim })
    }

    /// Non-queuing variant of [`LockManager::acquire`]: grants the lock
    /// if immediately compatible, otherwise withdraws the request and
    /// returns `Ok(false)` (the caller retries or aborts — how `SiteDb`
    /// models waiting under the event-driven simulator).
    ///
    /// # Errors
    ///
    /// [`LockError::ShrinkingPhase`] if `txn` already released locks.
    pub fn try_acquire(
        &mut self,
        txn: TxnId,
        item: impl AsRef<str>,
        mode: LockMode,
    ) -> Result<bool, LockError> {
        self.check_growing(txn)?;
        let item = item.as_ref();
        match self.table.try_or_enqueue(txn, item, mode) {
            TryAcquire::Granted => Ok(true),
            TryAcquire::Blocked(_) => {
                self.table.dequeue(txn, item);
                Ok(false)
            }
        }
    }

    /// Releases everything `txn` holds or waits for, marking it
    /// shrinking (strict 2PL: called at commit/abort). Returns the
    /// requests that became grantable, in grant order: the table is
    /// re-asked on behalf of each queue head until one stays blocked.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Item, LockMode)> {
        self.shrinking.insert(txn);
        self.graph.forget(txn);
        let mut granted = Vec::new();
        for item in self.table.release_all(txn, None) {
            while let Some((next, mode)) = self.table.queue_head(&item) {
                if let TryAcquire::Blocked(_) = self.table.try_or_enqueue(next, &item, mode) {
                    break;
                }
                self.graph.clear_waiting(next);
                granted.push((next, item.clone(), mode));
            }
        }
        granted
    }

    /// Whether `txn` holds a lock on `item` at least as strong as `mode`.
    pub fn holds(&self, txn: TxnId, item: &str, mode: LockMode) -> bool {
        self.table.locks.get(item.as_bytes()).is_some_and(|e| e.holds(txn, mode))
    }

    /// Number of shared holders of `item` (the thesis' read counter).
    pub fn read_count(&self, item: &str) -> usize {
        self.table.locks.get(item.as_bytes()).map_or(0, |e| e.sharers.len())
    }

    /// Whether `item` is write-locked (the 1-bit write-lock flag).
    pub fn write_locked(&self, item: &str) -> bool {
        self.table.locks.get(item.as_bytes()).is_some_and(|e| e.exclusive.is_some())
    }

    /// The underlying lock table.
    pub fn table(&self) -> &LockTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_are_counted() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap(), LockOutcome::Granted);
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap(), LockOutcome::Granted);
        assert_eq!(lm.read_count("X"), 2);
        assert!(!lm.write_locked("X"));
    }

    #[test]
    fn write_lock_excludes_everyone() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap(), LockOutcome::Granted);
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap(), LockOutcome::Queued);
        assert_eq!(lm.acquire(TxnId(3), "X", LockMode::Exclusive).unwrap(), LockOutcome::Queued);
        assert!(lm.write_locked("X"));
    }

    #[test]
    fn readers_block_writers_but_not_readers() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Exclusive).unwrap(), LockOutcome::Queued);
        // A later reader queues behind the waiting writer (fairness).
        assert_eq!(lm.acquire(TxnId(3), "X", LockMode::Shared).unwrap(), LockOutcome::Queued);
    }

    #[test]
    fn release_promotes_waiters_in_order() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap();
        lm.acquire(TxnId(3), "X", LockMode::Shared).unwrap();
        let granted = lm.release_all(TxnId(1));
        assert_eq!(granted.len(), 2);
        assert_eq!(lm.read_count("X"), 2);
    }

    #[test]
    fn lock_upgrade_by_sole_sharer() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap(), LockOutcome::Granted);
        assert!(lm.holds(TxnId(1), "X", LockMode::Exclusive));
    }

    #[test]
    fn two_phase_rule_enforced() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        lm.release_all(TxnId(1));
        let err = lm.acquire(TxnId(1), "Y", LockMode::Shared).unwrap_err();
        assert_eq!(err, LockError::ShrinkingPhase(TxnId(1)));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), "Y", LockMode::Exclusive).unwrap();
        assert_eq!(lm.acquire(TxnId(1), "Y", LockMode::Exclusive).unwrap(), LockOutcome::Queued);
        match lm.acquire(TxnId(2), "X", LockMode::Exclusive).unwrap() {
            LockOutcome::WouldDeadlock { cycle, victim } => {
                assert!(cycle.contains(&TxnId(2)));
                assert_eq!(victim, TxnId(2));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn victim_selection_is_youngest_not_requester() {
        // T1 (older) closes the cycle, but the deterministic victim is
        // the youngest member, T3 — not the requester.
        let mut lm = LockManager::new();
        lm.acquire(TxnId(3), "X", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(1), "Y", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(3), "Y", LockMode::Exclusive).unwrap();
        match lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap() {
            LockOutcome::WouldDeadlock { cycle, victim } => {
                assert_eq!(victim, TxnId(3));
                assert_eq!(victim, youngest_victim(&cycle));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn victim_selection_is_deterministic_across_replays() {
        // Same request sequence, same victim — every time.
        let run = || {
            let mut lm = LockManager::new();
            lm.acquire(TxnId(5), "A", LockMode::Exclusive).unwrap();
            lm.acquire(TxnId(2), "B", LockMode::Exclusive).unwrap();
            lm.acquire(TxnId(9), "C", LockMode::Exclusive).unwrap();
            lm.acquire(TxnId(5), "B", LockMode::Exclusive).unwrap();
            lm.acquire(TxnId(2), "C", LockMode::Exclusive).unwrap();
            match lm.acquire(TxnId(9), "A", LockMode::Exclusive).unwrap() {
                LockOutcome::WouldDeadlock { victim, .. } => victim,
                other => panic!("expected deadlock, got {other:?}"),
            }
        };
        assert_eq!(run(), TxnId(9));
        assert_eq!(run(), run());
    }

    #[test]
    fn youngest_victim_picks_max_id() {
        assert_eq!(youngest_victim(&[TxnId(4), TxnId(11), TxnId(7)]), TxnId(11));
        assert_eq!(youngest_victim(&[TxnId(1)]), TxnId(1));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 16, 61] {
            for item in ["X", "Y", "acct0", "acct12345", ""] {
                let s = shard_of(item, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(item, shards), "stable for {item}");
            }
        }
        // Not everything lands in one shard.
        let spread: std::collections::BTreeSet<usize> =
            (0..64).map(|i| shard_of(format!("item{i}"), 16)).collect();
        assert!(spread.len() > 4, "hash should spread: {spread:?}");
    }

    /// What an [`ItemMap`] hashes for `item`: its bytes.
    fn item_hash(item: &str) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<ItemHasher>::default().hash_one(item.as_bytes())
    }

    /// A key hashes as the bytes it is probed with (the `Borrow`
    /// contract), reads back as the name it was built from, and is
    /// inline up to 22 bytes: names around the edge, with multi-byte
    /// characters straddling it.
    #[test]
    fn item_key_hashes_as_its_bytes_and_round_trips() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<ItemHasher>::default();
        let mut names: Vec<String> = (0..=40).map(|n| "k".repeat(n)).collect();
        names.extend(["é", "🔑", "item000123"].map(String::from));
        // 21 + 2 and 20 + 4 bytes: the character crosses byte 22.
        names.extend([format!("{}é", "a".repeat(21)), format!("{}🔑", "a".repeat(20))]);
        names.extend([format!("{}é", "a".repeat(20)), format!("{}🔑", "a".repeat(18))]);
        for name in &names {
            let key = ItemKey::new(name);
            assert_eq!(hasher.hash_one(&key), hasher.hash_one(name.as_bytes()), "{name:?}");
            assert_eq!(key.as_str(), name);
            assert_eq!(key.as_bytes(), name.as_bytes());
            assert_eq!(format!("{key:?}"), format!("{name:?}"));
            assert_eq!(matches!(key.0, Repr::Inline { .. }), name.len() <= INLINE, "{name:?}");
        }
    }

    /// All keys of one shard share `fnv1a(key) % shards`; the in-shard
    /// hash must not inherit that: both the low bits a table indexes by
    /// and the top bits it tags by take every value, about evenly.
    #[test]
    fn item_hash_is_independent_of_the_shard_residue() {
        let in_shard_0: Vec<String> =
            (0..100_000).map(|i| format!("k{i}")).filter(|k| shard_of(k, 16) == 0).collect();
        assert!(in_shard_0.len() > 5_000, "shard 0 got {} keys", in_shard_0.len());
        let mean = in_shard_0.len() / 128;
        for (bits, shift) in [("low", 0), ("top", 57)] {
            let mut seen = [0usize; 128];
            for key in &in_shard_0 {
                seen[(item_hash(key) >> shift) as usize % 128] += 1;
            }
            let (min, max) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
            assert!(
                *min > mean / 3 && *max < mean * 3,
                "{bits} 7 bits: {min}..{max} around {mean}"
            );
        }
    }

    #[test]
    fn item_hash_tells_padding_and_length_apart() {
        let keys = ["", "a", "a\0", "a\0\0", "aaaaaaaa", "aaaaaaaa\0", "aaaaaaaaa", "\0aaaaaaaa"];
        let hashes: BTreeSet<u64> = keys.iter().map(|k| item_hash(k)).collect();
        assert_eq!(hashes.len(), keys.len());
    }

    #[test]
    fn victim_abort_unblocks_the_other() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), "Y", LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(1), "Y", LockMode::Exclusive).unwrap();
        let _ = lm.acquire(TxnId(2), "X", LockMode::Exclusive).unwrap();
        // T2 aborts; T1's request for Y should now be granted.
        let granted = lm.release_all(TxnId(2));
        assert!(granted.contains(&(TxnId(1), "Y".to_string(), LockMode::Exclusive)));
    }

    #[test]
    fn re_requesting_waiter_is_queued_once() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap();
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap(), LockOutcome::Queued);
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap(), LockOutcome::Queued);
        let granted = lm.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(2), "X".to_string(), LockMode::Shared)]);
        assert_eq!(lm.read_count("X"), 1);
    }

    #[test]
    fn holder_re_request_is_granted_even_behind_a_waiter() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        assert_eq!(lm.acquire(TxnId(2), "X", LockMode::Exclusive).unwrap(), LockOutcome::Queued);
        // T1 already holds what it asks for: no queueing behind T2, and
        // so no T1 -> T2 -> T1 "deadlock" of its own making.
        assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap(), LockOutcome::Granted);
    }

    #[test]
    fn queued_upgrade_is_granted_when_the_other_sharer_leaves() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), "X", LockMode::Shared).unwrap();
        assert_eq!(lm.acquire(TxnId(1), "X", LockMode::Exclusive).unwrap(), LockOutcome::Queued);
        let granted = lm.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(1), "X".to_string(), LockMode::Exclusive)]);
        assert!(lm.holds(TxnId(1), "X", LockMode::Exclusive));
        assert_eq!(lm.read_count("X"), 0);
    }

    #[test]
    fn table_forgets_items_nobody_holds_or_awaits() {
        let mut lm = LockManager::new();
        for t in 1..=50u64 {
            lm.acquire(TxnId(t), format!("X{t}"), LockMode::Exclusive).unwrap();
            assert!(!lm.try_acquire(TxnId(t + 100), format!("X{t}"), LockMode::Shared).unwrap());
            lm.release_all(TxnId(t));
        }
        assert!(lm.table().is_empty());
    }

    #[test]
    fn holds_reflects_modes() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "X", LockMode::Shared).unwrap();
        assert!(lm.holds(TxnId(1), "X", LockMode::Shared));
        assert!(!lm.holds(TxnId(1), "X", LockMode::Exclusive));
        assert!(!lm.holds(TxnId(2), "X", LockMode::Shared));
    }
}

#[cfg(test)]
mod item_map_properties {
    use super::*;
    use proptest::prelude::*;

    /// Keys a hasher or the inline edge could trip over: empty, NUL
    /// and multi-byte characters, a shared `item000123`-style prefix,
    /// a shared 1 KiB prefix, and 0..=40 bytes of `a` before the tail,
    /// so names of every length around the 22-byte inline limit occur,
    /// with `é` and `🔑` straddling it, and longer names take the
    /// boxed fallback.
    fn key_strategy() -> impl Strategy<Value = String> {
        let tail =
            prop::collection::vec(prop_oneof![Just('a'), Just('\0'), Just('é'), Just('🔑')], 0..10);
        (tail, 0u8..4, 0u32..4, 0usize..=40).prop_map(|(tail, prefix, n, pad)| {
            let tail: String = tail.into_iter().collect();
            match prefix {
                0 => tail,
                1 => format!("item{n:06}{tail}"),
                2 => format!("{}{tail}", "a".repeat(pad)),
                _ => format!("{}{tail}", "p".repeat(1024)),
            }
        })
    }

    proptest! {
        /// Whatever the keys, the hashed index stores what a B-tree
        /// stores, finds a key by the name's bytes, and gives the name
        /// back.
        #[test]
        fn adversarial_keys_read_back_exactly(
            keys in prop::collection::vec(key_strategy(), 1..48),
        ) {
            let mut map: ItemMap<usize> = ItemMap::default();
            let mut model = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                prop_assert_eq!(map.insert(ItemKey::new(key), i), model.insert(key.clone(), i));
            }
            prop_assert_eq!(map.len(), model.len());
            for (key, value) in &model {
                prop_assert_eq!(map.get(key.as_bytes()), Some(value));
            }
            let mut names: Vec<&str> = map.keys().map(ItemKey::as_str).collect();
            names.sort_unstable();
            prop_assert!(names.iter().copied().eq(model.keys().map(String::as_str)));
            prop_assert_eq!(map.get("never stored".as_bytes()), None);
            for key in &keys {
                prop_assert_eq!(map.remove(key.as_bytes()), model.remove(key.as_str()));
            }
            prop_assert!(map.is_empty());
        }
    }
}

/// The table driven directly, as the engine's shards drive it.
#[cfg(test)]
mod table_tests {
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
        let mut s = LockTable::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", S)));
        assert!(granted(s.try_or_enqueue(TxnId(2), "X", S)));
        let b = blockers(s.try_or_enqueue(TxnId(3), "X", X));
        assert_eq!(b, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn fifo_queue_prevents_barging() {
        let mut s = LockTable::default();
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
        let mut s = LockTable::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", S)));
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        // And it is a real exclusive now.
        assert!(!granted(s.try_or_enqueue(TxnId(2), "X", S)));
    }

    #[test]
    fn release_all_clears_holds_and_queue_entries() {
        let mut s = LockTable::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        let _ = s.try_or_enqueue(TxnId(2), "X", S);
        s.release_all(TxnId(1), None);
        s.release_all(TxnId(2), None);
        assert!(s.locks.is_empty());
    }

    #[test]
    fn dequeue_removes_only_the_waiter() {
        let mut s = LockTable::default();
        assert!(granted(s.try_or_enqueue(TxnId(1), "X", X)));
        let _ = s.try_or_enqueue(TxnId(2), "X", X);
        s.dequeue(TxnId(2), "X");
        s.release_all(TxnId(1), None);
        assert!(s.locks.is_empty());
    }
}
