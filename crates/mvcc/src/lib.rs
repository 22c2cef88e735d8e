//! # mcv-mvcc
//!
//! Multi-version storage under the thesis' `Snapshot` building block:
//! timestamped version chains, a monotone commit-timestamp allocator,
//! snapshot-visibility reads that never consult a lock table, and a
//! low-watermark garbage collector bounded by the oldest live snapshot.
//!
//! `mcv-engine` mounts a [`MvccStore`] next to its 2PL shards and
//! dispatches on [`IsolationLevel`]: ReadCommitted reads the latest
//! committed version per access, SnapshotIsolation pins a begin
//! timestamp and adds first-committer-wins write certification, and
//! SerializableSsi further aborts any transaction whose read set was
//! overwritten by a concurrent committer (a conservative
//! rw-antidependency rule: sound, possibly over-strict).
//!
//! # Examples
//!
//! ```
//! use mcv_mvcc::MvccStore;
//! use mcv_txn::TxnId;
//! let store = MvccStore::new(4);
//! store.install("X", 1, 7, TxnId(1));
//! store.advance(1);
//! let snap = store.begin_snapshot();          // sees X@1
//! store.install("X", 2, 9, TxnId(2));
//! store.advance(2);
//! assert_eq!(store.read_at("X", snap), (7, 1));
//! assert_eq!(store.read_latest("X"), (9, 2));
//! store.end_snapshot(snap);
//! ```

#![warn(missing_docs)]

use mcv_txn::{shard_of, ItemMap, TxnId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The engine's concurrency-control matrix: which mechanism mediates
/// reads and what is certified at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Sharded strict 2PL for reads and writes (the engine's original
    /// path): serializable, readers block on writers.
    Serializable2pl,
    /// Each read returns the latest committed version, lock-free; no
    /// certification. Permits lost updates and long forks.
    ReadCommitted,
    /// All reads from a begin-timestamp snapshot; first-committer-wins
    /// certification on the write set. Permits write skew.
    SnapshotIsolation,
    /// Snapshot isolation plus a conservative rw-antidependency check:
    /// abort when any read item was overwritten by a transaction that
    /// committed after our snapshot. Serializable (commit-time
    /// backward validation), stricter than Cahill's dangerous-structure
    /// rule.
    SerializableSsi,
}

impl IsolationLevel {
    /// Whether reads and writes go through the multi-version store
    /// (writes still take exclusive 2PL locks; reads take none).
    pub fn is_mvcc(&self) -> bool {
        !matches!(self, IsolationLevel::Serializable2pl)
    }

    /// Whether a begin-timestamp snapshot is pinned for the
    /// transaction's whole lifetime.
    pub fn pins_snapshot(&self) -> bool {
        matches!(self, IsolationLevel::SnapshotIsolation | IsolationLevel::SerializableSsi)
    }

    /// Whether commit certifies the write set first-committer-wins.
    pub fn certifies_writes(&self) -> bool {
        self.pins_snapshot()
    }

    /// Whether commit additionally validates the read set.
    pub fn certifies_reads(&self) -> bool {
        matches!(self, IsolationLevel::SerializableSsi)
    }

    /// The short CLI name (`2pl`, `rc`, `si`, `ssi`).
    pub fn name(&self) -> &'static str {
        match self {
            IsolationLevel::Serializable2pl => "2pl",
            IsolationLevel::ReadCommitted => "rc",
            IsolationLevel::SnapshotIsolation => "si",
            IsolationLevel::SerializableSsi => "ssi",
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for IsolationLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "2pl" | "serializable-2pl" => Ok(IsolationLevel::Serializable2pl),
            "rc" | "read-committed" => Ok(IsolationLevel::ReadCommitted),
            "si" | "snapshot" => Ok(IsolationLevel::SnapshotIsolation),
            "ssi" | "serializable-ssi" => Ok(IsolationLevel::SerializableSsi),
            other => Err(format!("unknown isolation level {other:?} (try 2pl|rc|si|ssi)")),
        }
    }
}

/// One committed version of an item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp that made this version visible.
    pub ts: u64,
    /// The committed value.
    pub value: Value,
    /// The installing transaction.
    pub txn: TxnId,
}

/// A version chain: committed versions in strictly increasing
/// timestamp order (oldest first).
type Chain = Vec<Version>;

#[derive(Debug, Default)]
struct VersionShard {
    chains: ItemMap<Chain>,
}

/// The multi-version store: sharded version chains plus the timestamp
/// authority.
///
/// Timestamps are allocated inside a commit critical section (see
/// [`MvccStore::commit_lock`]): the owner certifies, installs every
/// version of the commit at `last_committed() + 1`, and only then
/// [`advance`](MvccStore::advance)s the visible watermark — so a
/// snapshot taken at any instant sees either all of a commit's
/// versions or none of them.
#[derive(Debug)]
pub struct MvccStore {
    shards: Vec<Mutex<VersionShard>>,
    /// Highest commit timestamp whose versions are fully installed.
    last_committed: AtomicU64,
    /// Live snapshot timestamps (multiset: begin-ts -> count).
    active: Mutex<BTreeMap<u64, usize>>,
    /// Serializes certify → install → advance across committers.
    commit_mutex: Mutex<()>,
    collected: AtomicU64,
    installed: AtomicU64,
}

impl MvccStore {
    /// An empty store with `shards` version-chain shards.
    pub fn new(shards: usize) -> MvccStore {
        assert!(shards > 0, "mvcc store needs at least one shard");
        MvccStore {
            shards: (0..shards).map(|_| Mutex::new(VersionShard::default())).collect(),
            last_committed: AtomicU64::new(0),
            active: Mutex::new(BTreeMap::new()),
            commit_mutex: Mutex::new(()),
            collected: AtomicU64::new(0),
            installed: AtomicU64::new(0),
        }
    }

    fn shard(&self, item: &str) -> MutexGuard<'_, VersionShard> {
        self.shards[shard_of(item, self.shards.len())].lock().expect("mvcc shard mutex")
    }

    /// The newest fully visible commit timestamp.
    pub fn last_committed(&self) -> u64 {
        self.last_committed.load(Ordering::Acquire)
    }

    /// Enters the commit critical section. Hold the guard across
    /// certification, [`install`](MvccStore::install), and
    /// [`advance`](MvccStore::advance).
    pub fn commit_lock(&self) -> MutexGuard<'_, ()> {
        self.commit_mutex.lock().expect("mvcc commit mutex")
    }

    /// Opens a snapshot at the current visible watermark and registers
    /// it with the garbage collector. Pair with
    /// [`end_snapshot`](MvccStore::end_snapshot).
    pub fn begin_snapshot(&self) -> u64 {
        // Registration and the watermark read share the registry lock
        // so a concurrent GC cannot compute its low watermark between
        // the two (and then collect a version this snapshot needs).
        let mut active = self.active.lock().expect("mvcc active mutex");
        let ts = self.last_committed();
        *active.entry(ts).or_insert(0) += 1;
        ts
    }

    /// Deregisters a snapshot previously returned by
    /// [`begin_snapshot`](MvccStore::begin_snapshot).
    pub fn end_snapshot(&self, ts: u64) {
        let mut active = self.active.lock().expect("mvcc active mutex");
        match active.get_mut(&ts) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                active.remove(&ts);
            }
            None => debug_assert!(false, "end_snapshot({ts}) without begin"),
        }
    }

    /// Number of currently registered snapshots.
    pub fn active_snapshots(&self) -> usize {
        self.active.lock().expect("mvcc active mutex").values().sum()
    }

    /// The GC low watermark: no snapshot at or above it can observe a
    /// version older than the newest one at or below it. Equals the
    /// oldest live snapshot timestamp, or the visible watermark when
    /// no snapshot is live.
    pub fn watermark(&self) -> u64 {
        let active = self.active.lock().expect("mvcc active mutex");
        let ts = self.last_committed();
        active.keys().next().copied().unwrap_or(ts).min(ts)
    }

    /// The value (and version timestamp) visible to a snapshot taken
    /// at `ts`: the newest version with timestamp `<= ts`. Items never
    /// written read as `(0, 0)`, matching the engine's default value.
    pub fn read_at(&self, item: &str, ts: u64) -> (Value, u64) {
        let shard = self.shard(item);
        match shard.chains.get(item) {
            None => (0, 0),
            Some(chain) => {
                // Chains are short (GC-bounded) and newest-last: scan
                // backwards for the first visible version.
                chain.iter().rev().find(|v| v.ts <= ts).map_or((0, 0), |v| (v.value, v.ts))
            }
        }
    }

    /// The latest committed value (and its version timestamp) — the
    /// ReadCommitted read path.
    pub fn read_latest(&self, item: &str) -> (Value, u64) {
        self.read_at(item, u64::MAX)
    }

    /// The newest version timestamp of `item` (0 if never written).
    /// This is the first-committer-wins certificate: a writer whose
    /// snapshot began before this timestamp lost the race.
    pub fn latest_ts(&self, item: &str) -> u64 {
        self.shard(item).chains.get(item).and_then(|c| c.last()).map_or(0, |v| v.ts)
    }

    /// Installs a version. Call only inside the commit critical
    /// section, with `ts` strictly above every existing version of
    /// `item` and above the visible watermark.
    pub fn install(&self, item: &str, ts: u64, value: Value, txn: TxnId) {
        let mut shard = self.shard(item);
        let chain = shard.chains.entry(item.to_owned()).or_default();
        debug_assert!(chain.last().map_or(0, |v| v.ts) < ts, "version timestamps regress");
        chain.push(Version { ts, value, txn });
        self.installed.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes commit timestamp `ts`: every version installed at
    /// `ts` becomes visible to snapshots taken from now on.
    pub fn advance(&self, ts: u64) {
        let prev = self.last_committed.swap(ts, Ordering::Release);
        debug_assert!(prev <= ts, "commit timestamps regress: {prev} -> {ts}");
    }

    /// Garbage-collects the chains of `items`: every version shadowed
    /// below the low watermark (all but the newest with
    /// `ts <= watermark`) is dropped. Returns versions collected.
    pub fn gc_items<'a>(&self, items: impl IntoIterator<Item = &'a str>) -> u64 {
        let watermark = self.watermark();
        let mut collected = 0;
        for item in items {
            let mut shard = self.shard(item);
            if let Some(chain) = shard.chains.get_mut(item) {
                collected += trim(chain, watermark);
            }
        }
        self.collected.fetch_add(collected, Ordering::Relaxed);
        collected
    }

    /// Garbage-collects every chain in the store.
    pub fn gc(&self) -> u64 {
        let watermark = self.watermark();
        let mut collected = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("mvcc shard mutex");
            for chain in shard.chains.values_mut() {
                collected += trim(chain, watermark);
            }
        }
        self.collected.fetch_add(collected, Ordering::Relaxed);
        collected
    }

    /// Length of `item`'s version chain.
    pub fn chain_len(&self, item: &str) -> usize {
        self.shard(item).chains.get(item).map_or(0, Vec::len)
    }

    /// Total versions collected by GC since construction.
    pub fn versions_collected(&self) -> u64 {
        self.collected.load(Ordering::Relaxed)
    }

    /// Total versions installed since construction.
    pub fn versions_installed(&self) -> u64 {
        self.installed.load(Ordering::Relaxed)
    }
}

/// Drops every version of `chain` that is shadowed at `watermark`:
/// keeps all versions with `ts > watermark` plus the newest with
/// `ts <= watermark` (the one a snapshot at the watermark reads).
fn trim(chain: &mut Chain, watermark: u64) -> u64 {
    let visible = chain.iter().rposition(|v| v.ts <= watermark);
    match visible {
        Some(idx) if idx > 0 => {
            chain.drain(..idx);
            idx as u64
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(store: &MvccStore, item: &str, values: &[Value]) {
        for &v in values {
            let _g = store.commit_lock();
            let ts = store.last_committed() + 1;
            store.install(item, ts, v, TxnId(ts));
            store.advance(ts);
        }
    }

    #[test]
    fn isolation_level_parsing_and_names() {
        for level in [
            IsolationLevel::Serializable2pl,
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::SerializableSsi,
        ] {
            assert_eq!(level.name().parse::<IsolationLevel>().unwrap(), level);
        }
        assert!("weird".parse::<IsolationLevel>().is_err());
        assert!(IsolationLevel::SerializableSsi.certifies_reads());
        assert!(!IsolationLevel::SnapshotIsolation.certifies_reads());
        assert!(IsolationLevel::SnapshotIsolation.certifies_writes());
        assert!(!IsolationLevel::Serializable2pl.is_mvcc());
        assert!(!IsolationLevel::ReadCommitted.pins_snapshot());
    }

    #[test]
    fn snapshot_reads_see_only_their_prefix() {
        let store = MvccStore::new(2);
        committed(&store, "X", &[10, 20]);
        let snap = store.begin_snapshot();
        committed(&store, "X", &[30]);
        assert_eq!(store.read_at("X", snap), (20, 2));
        assert_eq!(store.read_latest("X"), (30, 3));
        assert_eq!(store.read_at("Y", snap), (0, 0));
        store.end_snapshot(snap);
    }

    #[test]
    fn latest_ts_is_the_fcw_certificate() {
        let store = MvccStore::new(1);
        assert_eq!(store.latest_ts("X"), 0);
        committed(&store, "X", &[1, 2, 3]);
        assert_eq!(store.latest_ts("X"), 3);
    }

    // Satellite: watermark advance under concurrent snapshots.
    #[test]
    fn watermark_tracks_oldest_live_snapshot() {
        let store = MvccStore::new(2);
        committed(&store, "X", &[1]);
        let old = store.begin_snapshot(); // ts 1
        committed(&store, "X", &[2, 3]);
        let young = store.begin_snapshot(); // ts 3
        assert_eq!(store.watermark(), 1, "oldest snapshot pins the watermark");
        store.end_snapshot(old);
        assert_eq!(store.watermark(), 3, "watermark advances past released snapshots");
        store.end_snapshot(young);
        assert_eq!(store.watermark(), store.last_committed());
        assert_eq!(store.active_snapshots(), 0);
    }

    // Satellite: no version visible to a live snapshot is collected.
    #[test]
    fn gc_never_collects_a_version_a_live_snapshot_reads() {
        let store = MvccStore::new(2);
        committed(&store, "X", &[10, 20]);
        let snap = store.begin_snapshot(); // reads X@2 = 20
        committed(&store, "X", &[30, 40, 50]);
        let before = store.read_at("X", snap);
        store.gc();
        assert_eq!(store.read_at("X", snap), before, "GC changed a live snapshot's view");
        assert_eq!(store.read_at("X", snap), (20, 2));
        // X@1 was shadowed below the watermark and is collectable.
        assert_eq!(store.versions_collected(), 1);
        store.end_snapshot(snap);
    }

    // Satellite: chain length is bounded after GC.
    #[test]
    fn gc_bounds_chain_length() {
        let store = MvccStore::new(1);
        committed(&store, "X", &(0..100).collect::<Vec<_>>());
        assert_eq!(store.chain_len("X"), 100);
        let collected = store.gc();
        assert_eq!(collected, 99);
        assert_eq!(store.chain_len("X"), 1, "no live snapshot: one version survives");
        assert_eq!(store.read_latest("X"), (99, 100));
        // With one live snapshot mid-history the chain keeps the
        // snapshot's version plus everything newer.
        committed(&store, "X", &[100]);
        let snap = store.begin_snapshot();
        committed(&store, "X", &[101, 102]);
        store.gc();
        assert_eq!(store.chain_len("X"), 3, "snapshot version + newer versions survive");
        store.end_snapshot(snap);
        store.gc();
        assert_eq!(store.chain_len("X"), 1);
    }

    #[test]
    fn gc_items_trims_only_named_chains() {
        let store = MvccStore::new(4);
        committed(&store, "X", &[1, 2]);
        committed(&store, "Y", &[1, 2]);
        assert_eq!(store.gc_items(["X"]), 1);
        assert_eq!(store.chain_len("X"), 1);
        assert_eq!(store.chain_len("Y"), 2);
    }

    #[test]
    fn concurrent_snapshots_read_stable_prefixes() {
        use std::sync::Arc;
        let store = Arc::new(MvccStore::new(8));
        // Every version's value equals its timestamp, the seed's too: a
        // reader may well pin its snapshot before any writer commits.
        committed(&store, "X", &[1]);
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let _g = store.commit_lock();
                        let ts = store.last_committed() + 1;
                        store.install("X", ts, ts as Value, TxnId(ts));
                        store.advance(ts);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let snap = store.begin_snapshot();
                        let (value, ts) = store.read_at("X", snap);
                        assert!(ts <= snap, "read a version above the snapshot");
                        assert_eq!(value, ts as Value);
                        store.gc_items(["X"]);
                        store.end_snapshot(snap);
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().expect("thread");
        }
        assert_eq!(store.last_committed(), 401, "seed commit + 2 writers x 200");
        store.gc();
        assert_eq!(store.chain_len("X"), 1);
    }
}
