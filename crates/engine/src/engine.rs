//! The engine proper: transaction handles over sharded 2PL, blocking
//! lock acquisition with cross-shard deadlock detection, undo/redo
//! logging with group commit, and history sampling for the
//! serializability oracle.

use crate::deadlock::WaitGraph;
use crate::gcwal::{Ack, GroupWal};
use crate::shard::{Shard, ShardState};
use mcv_mvcc::{IsolationLevel, MvccStore};
use mcv_obs::{Histogram, MetricsSnapshot};
use mcv_prof::Phase;
use mcv_txn::{
    shard_of, youngest_victim, History, Item, LockMode, OpKind, TryAcquire, TxnId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of lock-table / data shards.
    pub shards: usize,
    /// Batch commit-record forces through a dedicated log-writer
    /// thread (`true`) or force once per commit (`false`).
    pub group_commit: bool,
    /// Modeled device latency of one log force, in microseconds. The
    /// engine sleeps this long per device operation, which is what
    /// group commit amortizes; 0 disables the sleep (unit tests).
    pub force_latency_us: u64,
    /// Group-commit dwell: after the first force request of a batch,
    /// the log writer waits this long before serializing so commits a
    /// few microseconds behind join the batch. Only meaningful with
    /// `group_commit` and a non-zero `force_latency_us`.
    pub group_window_us: u64,
    /// Sample every `n`-th transaction into the history fed to the
    /// conflict-serializability oracle (0 disables sampling).
    pub sample_every: u64,
    /// Stop admitting new transactions into the sample once this many
    /// operations were recorded (bounds oracle cost).
    pub sample_cap_ops: usize,
    /// Concurrency-control regime. [`IsolationLevel::Serializable2pl`]
    /// is the engine's original all-2PL path; the MVCC levels serve
    /// reads from version chains (zero lock-table traffic on reads —
    /// see `engine.locks.read_acquisitions`) while writes keep taking
    /// exclusive 2PL locks.
    pub isolation: IsolationLevel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 16,
            group_commit: true,
            force_latency_us: 0,
            group_window_us: 0,
            sample_every: 1,
            sample_cap_ops: 20_000,
            isolation: IsolationLevel::Serializable2pl,
        }
    }
}

/// Why a transaction operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The transaction was chosen as a deadlock victim and must abort;
    /// `victim` names the transaction the detector selected (always
    /// the youngest of the cycle, and here always the caller).
    Deadlock {
        /// The transaction that must abort.
        victim: TxnId,
    },
    /// The handle was already committed or aborted.
    Finished(TxnId),
    /// MVCC certification failed: `item` was overwritten by a
    /// transaction that committed after this transaction's snapshot
    /// (first-committer-wins for written items, rw-antidependency for
    /// read items under SSI). The caller must abort and may retry with
    /// a fresh transaction, like a deadlock victim.
    Certification {
        /// The transaction that lost certification.
        txn: TxnId,
        /// The item whose newer committed version caused the failure.
        item: Item,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Deadlock { victim } => {
                write!(f, "deadlock: transaction {} selected as victim", victim.0)
            }
            EngineError::Finished(t) => write!(f, "transaction {} already finished", t.0),
            EngineError::Certification { txn, item } => {
                write!(f, "certification: transaction {} lost {item} to a first committer", txn.0)
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug, Default)]
struct Sampler {
    ops: Vec<mcv_txn::Op>,
    txns: BTreeSet<TxnId>,
}

#[derive(Debug, Default)]
struct EngineCounters {
    committed: AtomicU64,
    aborted: AtomicU64,
    conflicts: AtomicU64,
    /// Shared (read) 2PL locks granted — stays at zero on the MVCC
    /// read path, which is the "snapshot reads take no locks" metric
    /// assertion.
    read_acquisitions: AtomicU64,
    /// Reads served from version chains.
    snapshot_reads: AtomicU64,
    /// Commit-time certification failures (FCW or SSI read-set).
    cert_aborts: AtomicU64,
    /// Snapshots pinned by SI/SSI transactions.
    snapshots: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct Inner {
    cfg: EngineConfig,
    shards: Vec<Shard>,
    graph: WaitGraph,
    wal: Arc<GroupWal>,
    writer: Mutex<Option<JoinHandle<()>>>,
    next_txn: AtomicU64,
    sampler: Mutex<Sampler>,
    counters: EngineCounters,
    /// Version chains + timestamp authority for the MVCC isolation
    /// levels (constructed unconditionally; idle under 2PL).
    mvcc: MvccStore,
    /// Causal trace sink captured from the constructing thread at
    /// [`Engine::new`]; shared by all worker threads. `None` makes
    /// every trace branch in the hot paths a single cheap test.
    trace: Option<Arc<mcv_trace::Recorder>>,
    /// Phase profiler captured the same way (`mcv_prof::installed` at
    /// construction); `None` keeps every timing branch a cheap test.
    prof: Option<mcv_prof::Profiler>,
}

/// A multi-threaded transaction engine. Cheap to clone (`Arc` inside);
/// clones share all state.
///
/// # Examples
///
/// ```
/// use mcv_engine::{Engine, EngineConfig};
/// let engine = Engine::new(EngineConfig::default());
/// let mut t = engine.begin();
/// t.write("X", 7)?;
/// assert_eq!(t.read("X")?, 7);
/// t.commit()?;
/// assert!(engine.sampled_history().is_conflict_serializable());
/// # Ok::<(), mcv_engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Engine {
    /// Builds an engine and, in group-commit mode, starts its
    /// log-writer thread.
    pub fn new(cfg: EngineConfig) -> Engine {
        assert!(cfg.shards > 0, "engine needs at least one shard");
        let trace = mcv_trace::installed();
        let prof = mcv_prof::installed();
        let wal = Arc::new(GroupWal::new(
            cfg.group_commit,
            Duration::from_micros(cfg.force_latency_us),
            Duration::from_micros(cfg.group_window_us),
            trace.clone(),
        ));
        let writer = if cfg.group_commit {
            let wal = Arc::clone(&wal);
            Some(std::thread::spawn(move || wal.writer_loop()))
        } else {
            None
        };
        let shards = (0..cfg.shards).map(|_| Shard::default()).collect();
        let mvcc = MvccStore::new(cfg.shards);
        Engine {
            inner: Arc::new(Inner {
                cfg,
                shards,
                graph: WaitGraph::default(),
                wal,
                writer: Mutex::new(writer),
                next_txn: AtomicU64::new(1),
                sampler: Mutex::new(Sampler::default()),
                counters: EngineCounters::default(),
                mvcc,
                trace,
                prof,
            }),
        }
    }

    /// Starts a transaction.
    pub fn begin(&self) -> Txn {
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.make_txn(id)
    }

    /// Starts a transaction under a caller-assigned id — the
    /// participant hook for distributed commit (`mcv-dist`), where the
    /// coordinator names the global transaction and every shard must
    /// log the same id. Callers own the id-space split: externally
    /// assigned ids must not collide with the engine's own allocator
    /// (which counts up from 1) — `mcv-dist` starts global ids at a
    /// high base for this reason.
    pub fn begin_at(&self, id: TxnId) -> Txn {
        self.make_txn(id)
    }

    fn make_txn(&self, id: TxnId) -> Txn {
        // The sampled-history oracle is single-version: it assumes each
        // read conflicts with the latest preceding write. MVCC reads
        // observe *older* versions by design, so feeding them to the
        // conflict checker would manufacture false cycles — sampling is
        // 2PL-only.
        let sampled = if self.inner.cfg.isolation.is_mvcc() || self.inner.cfg.sample_every == 0 {
            false
        } else if id.0.is_multiple_of(self.inner.cfg.sample_every) {
            let mut s = self.inner.sampler.lock().expect("sampler mutex");
            if s.ops.len() < self.inner.cfg.sample_cap_ops {
                s.txns.insert(id);
                true
            } else {
                false
            }
        } else {
            false
        };
        let snapshot = if self.inner.cfg.isolation.pins_snapshot() {
            let ts = self.inner.mvcc.begin_snapshot();
            self.inner.counters.snapshots.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.inner.trace {
                t.record(t.lane(), 0, None, mcv_trace::EventKind::SnapshotOpen { txn: id.0, ts });
            }
            Some(ts)
        } else {
            None
        };
        Txn {
            engine: self.clone(),
            id,
            sampled,
            snapshot,
            write_buf: Vec::new(),
            read_set: BTreeSet::new(),
            undo: Vec::new(),
            held: Held::default(),
            active: true,
            prof: self.inner.prof.as_ref().map(|_| ProfState {
                begin: Instant::now(),
                timeline: mcv_prof::Timeline::new(id.0),
            }),
        }
    }

    /// Completes a batch of staged commits against this engine: one
    /// durability wait covering the batch's highest LSN, then per
    /// transaction the commit acknowledgement (trace event citing the
    /// covering force), lock release, and counters. The whole batch
    /// shares a single modeled device force where the serial path pays
    /// one per transaction.
    ///
    /// Every staged commit must come from this engine; staged commits
    /// from MVCC fallbacks (lsn 0) are already durable and only tally.
    pub fn finish_commits(&self, batch: Vec<StagedCommit>) {
        let Some(max_lsn) = batch.iter().map(|s| s.lsn).max() else { return };
        if max_lsn == 0 {
            return; // MVCC fallbacks only: committed in full already.
        }
        let wal = &self.inner.wal;
        let t0 = wal.now_ns();
        wal.wait_durable(max_lsn);
        let wait = wal.split_wait(t0, wal.now_ns());
        for s in batch.into_iter().filter(|s| s.lsn > 0) {
            self.ack(s, wait);
        }
    }

    /// The acknowledgement of a 2PL commit whose record is durable,
    /// on whichever thread learned that — the committer after its wait
    /// ([`Txn::commit`], [`Engine::finish_commits`]) or the log writer
    /// ([`Txn::commit_then`]): the `Commit` event, lock release, the
    /// counter and the profile timeline, whose durability wait
    /// `(dwell_ns, force_ns)` the caller measured.
    fn ack(&self, s: StagedCommit, (dwell_ns, force_ns): (u64, u64)) {
        let ack0 = s.prof.as_ref().map(|_| Instant::now());
        if let Some(t) = &self.inner.trace {
            // The ack was enabled by the device force covering our
            // commit record; the `wal.force` mark is published before
            // the durable cursor advances, so it is in place by the
            // time anyone learns the record is durable.
            let cause = t.mark(self.inner.wal.force_mark());
            t.record(t.lane(), 0, cause, mcv_trace::EventKind::Commit { txn: s.id.0 });
        }
        self.release_locks(s.id, &s.held);
        self.inner.counters.committed.fetch_add(1, Ordering::Relaxed);
        if let (Some(state), Some(ack0), Some(profiler)) = (s.prof, ack0, &self.inner.prof) {
            let mut tl = state.timeline;
            tl.add(Phase::WalDwell, dwell_ns);
            tl.add(Phase::WalForce, force_ns);
            tl.add(Phase::CommitAck, ack0.elapsed().as_nanos() as u64);
            tl.total_ns = state.begin.elapsed().as_nanos() as u64;
            profiler.record(&tl);
        }
    }

    /// The committed value of `item` (callers must ensure no writer is
    /// concurrently active on it — intended for quiesced inspection).
    pub fn value(&self, item: &str) -> Value {
        let s = shard_of(item, self.inner.cfg.shards);
        self.inner.shards[s].state.lock().expect("shard mutex").value(item)
    }

    /// Snapshot of all items across shards (quiesced inspection).
    pub fn state(&self) -> BTreeMap<Item, Value> {
        let mut out = BTreeMap::new();
        for shard in &self.inner.shards {
            let state = shard.state.lock().expect("shard mutex");
            out.extend(state.data.iter().map(|(item, value)| (item.clone(), *value)));
        }
        out
    }

    /// The bytes a crash at this instant would leave on the log
    /// device. Feed to [`mcv_txn::Wal::recover_bytes`] to rebuild the
    /// committed-prefix state.
    pub fn durable_image(&self) -> Vec<u8> {
        self.inner.wal.durable_image()
    }

    /// Transactions with a commit record in the (volatile) log.
    pub fn committed_ids(&self) -> BTreeSet<TxnId> {
        self.inner.wal.committed()
    }

    /// The sampled history projected onto committed transactions.
    ///
    /// Per-item operation order in the sample matches the real
    /// execution order (ops are recorded while the item's 2PL lock is
    /// held), and a projection of a history onto a transaction subset
    /// preserves conflict-graph edges among that subset — so a cycle
    /// here is a genuine serializability violation.
    pub fn sampled_history(&self) -> History {
        let committed = self.inner.wal.committed();
        let s = self.inner.sampler.lock().expect("sampler mutex");
        let mut h = History::new();
        for op in &s.ops {
            if committed.contains(&op.txn) {
                h.push(op.txn, op.item.clone(), op.kind);
            }
        }
        h
    }

    /// Number of transactions admitted into the sample.
    pub fn sampled_txns(&self) -> usize {
        self.inner.sampler.lock().expect("sampler mutex").txns.len()
    }

    /// A point-in-time metrics snapshot under `engine.*` names,
    /// suitable for [`mcv_obs`] absorption. Counters here are
    /// scheduling-dependent (thread interleavings vary), so benches
    /// report them as facts, not as determinism-checked metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (commits, forces, records, deferred_acks) = self.inner.wal.stats();
        let deadlocks = {
            let g = self.inner.graph.m.lock().expect("graph mutex");
            g.deadlocks
        };
        let sampler = self.inner.sampler.lock().expect("sampler mutex");
        let mut counters = BTreeMap::new();
        counters.insert(
            "engine.txn.committed".to_owned(),
            self.inner.counters.committed.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.txn.aborted".to_owned(),
            self.inner.counters.aborted.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.locks.conflicts".to_owned(),
            self.inner.counters.conflicts.load(Ordering::Relaxed),
        );
        counters.insert("engine.locks.deadlocks".to_owned(), deadlocks);
        counters.insert(
            "engine.locks.read_acquisitions".to_owned(),
            self.inner.counters.read_acquisitions.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.mvcc.snapshot_reads".to_owned(),
            self.inner.counters.snapshot_reads.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.mvcc.cert_aborts".to_owned(),
            self.inner.counters.cert_aborts.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.mvcc.snapshots".to_owned(),
            self.inner.counters.snapshots.load(Ordering::Relaxed),
        );
        counters.insert(
            "engine.mvcc.versions_installed".to_owned(),
            self.inner.mvcc.versions_installed(),
        );
        counters
            .insert("engine.mvcc.gc_collected".to_owned(), self.inner.mvcc.versions_collected());
        counters.insert("engine.wal.commits".to_owned(), commits);
        counters.insert("engine.wal.forces".to_owned(), forces);
        counters.insert("engine.wal.records".to_owned(), records);
        counters.insert("engine.wal.deferred_acks".to_owned(), deferred_acks);
        counters.insert("engine.sample.ops".to_owned(), sampler.ops.len() as u64);
        counters.insert("engine.sample.txns".to_owned(), sampler.txns.len() as u64);
        MetricsSnapshot { counters, gauges: BTreeMap::new(), histograms: BTreeMap::new() }
    }

    /// Blocking lock acquisition with deadlock handling. Returns with
    /// `item`'s shard still locked — the caller reads or writes under
    /// the very hold that granted, so an uncontended operation takes
    /// the shard mutex once — plus whether the request ever blocked.
    fn lock(
        &self,
        txn: TxnId,
        item: &str,
        mode: LockMode,
    ) -> Result<(MutexGuard<'_, ShardState>, usize, bool), EngineError> {
        let inner = &*self.inner;
        let s = shard_of(item, inner.cfg.shards);
        let shard = || inner.shards[s].state.lock().expect("shard mutex");
        // Fast path: no prior conflict on this request means no doom
        // flag to check and no stale waits-for edges to clear, so an
        // immediate grant never needs the global graph mutex.
        let mut was_blocked = false;
        // The way out for a deadlock victim: withdraw the request.
        let deadlock = || {
            shard().locks.dequeue(txn, item);
            Err(EngineError::Deadlock { victim: txn })
        };
        loop {
            // Read the epoch *before* trying, so a release between the
            // failed try and the wait below moves the epoch and the
            // wait falls through — no lost wakeup. Until this request
            // has actually blocked, the txn has no out-edges (and so
            // cannot be a cycle victim of *this* request): the atomic
            // epoch hint suffices and the global mutex is skipped.
            let ep = if was_blocked {
                let mut g = inner.graph.m.lock().expect("graph mutex");
                if g.take_doom(txn) {
                    drop(g);
                    return deadlock();
                }
                g.epoch
            } else {
                inner.graph.epoch_hint()
            };
            let mut state = shard();
            match state.locks.try_or_enqueue(txn, item, mode) {
                TryAcquire::Granted if !was_blocked => return Ok((state, s, false)),
                TryAcquire::Granted => {
                    // The graph mutex is never taken under a shard
                    // mutex: let go, clear the edges, take the shard
                    // again (the lock is ours by now, nothing moves).
                    drop(state);
                    inner.graph.m.lock().expect("graph mutex").clear_waiting(txn);
                    return Ok((shard(), s, true));
                }
                TryAcquire::Blocked(blockers) => {
                    drop(state);
                    was_blocked = true;
                    inner.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                    let mut g = inner.graph.m.lock().expect("graph mutex");
                    // Re-check under the graph mutex: doomed while we
                    // were enqueueing.
                    if g.take_doom(txn) {
                        drop(g);
                        return deadlock();
                    }
                    g.set_edges(txn, blockers);
                    if let Some(cycle) = g.cycle_from(txn) {
                        let victim = youngest_victim(&cycle);
                        // A victim already doomed has been counted and
                        // woken: its cycle stands until it gets to run,
                        // so wait for that instead of re-dooming it —
                        // bumping the epoch again would fall through
                        // our own wait and spin.
                        if !g.is_doomed(victim) {
                            g.deadlocks += 1;
                            g.doom(victim);
                            inner.graph.bump_epoch(&mut g);
                            inner.graph.cv.notify_all();
                        }
                    }
                    while g.epoch == ep && !g.is_doomed(txn) {
                        g = inner.graph.cv.wait(g).expect("graph mutex");
                    }
                    // Loop: either the world changed (retry the
                    // acquire) or we are doomed — possibly by our own
                    // hand just above (handled at the top).
                }
            }
        }
    }

    /// [`Engine::lock`] on behalf of a transaction: notes the shard in
    /// its `held` set and traces the grant (or the victim's abort)
    /// before handing the locked shard to the caller.
    fn acquire(
        &self,
        txn: TxnId,
        held: &mut Held,
        item: &str,
        mode: LockMode,
    ) -> Result<MutexGuard<'_, ShardState>, EngineError> {
        let trace = self.inner.trace.as_ref();
        match self.lock(txn, item, mode) {
            Ok((state, s, blocked)) => {
                held.ever_blocked |= blocked;
                held.shards.insert(s);
                if let Some(t) = trace {
                    // A grant after blocking was enabled by the prior
                    // holder's release — cite it so the wait shows up
                    // as a causal edge between the two transactions. An
                    // uncontended grant cites the thread's ambient
                    // cause (the delivered message a dist node is
                    // processing), if any.
                    let cause = if blocked {
                        t.mark(&format!("release:{item}"))
                    } else {
                        mcv_trace::context()
                    };
                    t.record(
                        t.lane(),
                        0,
                        cause,
                        mcv_trace::EventKind::LockAcquire {
                            txn: txn.0,
                            item: item.to_owned(),
                            exclusive: matches!(mode, LockMode::Exclusive),
                        },
                    );
                }
                Ok(state)
            }
            Err(e) => {
                // A deadlock victim necessarily blocked; make sure the
                // rollback takes the full graph-cleanup path.
                held.ever_blocked = true;
                if let Some(t) = trace {
                    t.record(
                        t.lane(),
                        0,
                        None,
                        mcv_trace::EventKind::LockAbort { txn: txn.0, item: item.to_owned() },
                    );
                }
                Err(e)
            }
        }
    }

    /// Releases every lock of a transaction and wakes waiters. When it
    /// never conflicted (`ever_blocked` false) and nobody is queued
    /// behind it, there is no graph state to clean and nobody to wake —
    /// skip the global mutex entirely.
    fn release_locks(&self, txn: TxnId, held: &Held) {
        let mut had_waiters = false;
        let mut released = self.inner.trace.as_ref().map(|_| Vec::new());
        for &s in &held.shards {
            let mut state = self.inner.shards[s].state.lock().expect("shard mutex");
            had_waiters |= !state.locks.release_all(txn, released.as_mut()).is_empty();
        }
        if let (Some(t), Some(items)) = (&self.inner.trace, released) {
            for item in items {
                let c = t.record(
                    t.lane(),
                    0,
                    None,
                    mcv_trace::EventKind::LockRelease { txn: txn.0, item: item.clone() },
                );
                // Published so a later blocked acquire of the same item
                // can cite the release that unblocked it.
                t.set_mark(&format!("release:{item}"), c);
            }
        }
        if held.ever_blocked || had_waiters {
            let mut g = self.inner.graph.m.lock().expect("graph mutex");
            g.forget(txn);
            self.inner.graph.bump_epoch(&mut g);
            self.inner.graph.cv.notify_all();
        }
    }

    /// Logs `txn`'s update of `item` and then stores it in `state`,
    /// the item's locked shard, returning the before-image (`None`: the
    /// shard did not store the item; the log's `old` field reads 0).
    /// One shard-mutex hold covers the lock grant, the before-image
    /// read, the append and the store, so write-ahead order is
    /// structural: the record is in the log buffer before the store
    /// changes. This is the one place two engine mutexes nest: shard,
    /// then WAL.
    fn log_and_store(
        &self,
        state: &mut ShardState,
        txn: TxnId,
        item: &str,
        value: Value,
    ) -> Option<Value> {
        match state.data.get_mut(item) {
            Some(slot) => {
                self.inner.wal.append_update(txn, item, *slot, value);
                Some(std::mem::replace(slot, value))
            }
            None => {
                self.inner.wal.append_update(txn, item, 0, value);
                state.data.insert(item.to_owned(), value);
                None
            }
        }
    }

    fn sample(&self, txn: TxnId, item: &str, kind: OpKind) {
        let mut s = self.inner.sampler.lock().expect("sampler mutex");
        s.ops.push(mcv_txn::Op { txn, item: item.to_owned(), kind });
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.wal.shutdown();
        if let Some(writer) = self.writer.lock().expect("writer mutex").take() {
            // An acknowledgement can own the last handle, and then this
            // runs on the log writer, which cannot join itself: it is
            // left to run what it still holds and return on its own.
            if writer.thread().id() != std::thread::current().id() {
                let _ = writer.join();
            }
        }
    }
}

/// A transaction handle. Dropped without [`Txn::commit`] ⇒ aborts
/// (undo images restored, locks released).
#[derive(Debug)]
pub struct Txn {
    engine: Engine,
    id: TxnId,
    sampled: bool,
    /// Begin timestamp of the pinned snapshot (SI/SSI only).
    snapshot: Option<u64>,
    /// MVCC writes, buffered in write order until commit installs them
    /// at one commit timestamp (empty under 2PL).
    write_buf: Vec<(Item, Value)>,
    /// Items read under SSI, validated against concurrent committers
    /// at commit time.
    read_set: BTreeSet<Item>,
    /// `(item, before-image)` of every write, in write order; rollback
    /// replays it in reverse. `None` is the before-image of an item
    /// the shard did not store: rollback removes it again.
    undo: Vec<(Item, Option<Value>)>,
    held: Held,
    active: bool,
    /// Phase-attribution state (present only when the engine was built
    /// with a profiler installed). Flushed at commit; aborted
    /// transactions are not flushed.
    prof: Option<ProfState>,
}

/// What a transaction must give back when it ends.
#[derive(Debug, Default)]
struct Held {
    /// The shards it ever locked in.
    shards: BTreeSet<usize>,
    /// Whether any acquisition ever blocked — if not, the release can
    /// skip the global waits-for graph.
    ever_blocked: bool,
}

/// Per-transaction profiling scratch: the begin instant anchoring the
/// total span plus the accumulating phase timeline.
#[derive(Debug)]
struct ProfState {
    begin: Instant,
    timeline: mcv_prof::Timeline,
}

/// A commit whose record is appended but not yet durable: the staged
/// half of a two-step commit ([`Txn::commit_stage`] →
/// [`Engine::finish_commits`]). Holding one keeps the transaction's
/// locks; dropping it without finishing leaks nothing but the locks
/// stay held until finished, so callers must always hand staged
/// commits to [`Engine::finish_commits`].
#[derive(Debug)]
pub struct StagedCommit {
    id: TxnId,
    held: Held,
    lsn: usize,
    prof: Option<ProfState>,
}

impl StagedCommit {
    /// The staged transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Reads `item`. Under 2PL this takes a shared lock (held to end
    /// of transaction); under the MVCC levels it is served from the
    /// version chains and touches no lock table at all.
    pub fn read(&mut self, item: &str) -> Result<Value, EngineError> {
        self.check_active()?;
        if self.engine.inner.cfg.isolation.is_mvcc() {
            let t0 = self.prof_now();
            let v = self.mvcc_read(item);
            self.prof_add(Phase::Execute, t0);
            return Ok(v);
        }
        let t0 = self.prof_now();
        let state = self.engine.acquire(self.id, &mut self.held, item, LockMode::Shared)?;
        let t1 = self.prof_now();
        self.engine.inner.counters.read_acquisitions.fetch_add(1, Ordering::Relaxed);
        let v = state.value(item);
        drop(state);
        if self.sampled {
            self.engine.sample(self.id, item, OpKind::Read);
        }
        self.prof_lock_then_execute(t0, t1);
        Ok(v)
    }

    /// The lock-free MVCC read path: own buffered writes first, then
    /// the snapshot-visible (SI/SSI) or latest-committed (RC) version.
    fn mvcc_read(&mut self, item: &str) -> Value {
        if let Some((_, v)) = self.write_buf.iter().rev().find(|(i, _)| i == item) {
            return *v;
        }
        let inner = &self.engine.inner;
        let (v, ts) = match self.snapshot {
            Some(snap) => inner.mvcc.read_at(item, snap),
            None => inner.mvcc.read_latest(item),
        };
        inner.counters.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        if inner.cfg.isolation.certifies_reads() {
            self.read_set.insert(item.to_owned());
        }
        if let Some(t) = &inner.trace {
            t.record(
                t.lane(),
                0,
                None,
                mcv_trace::EventKind::SnapshotRead { txn: self.id.0, item: item.to_owned(), ts },
            );
        }
        v
    }

    /// Writes `item` under an exclusive lock, logging undo/redo first
    /// (write-ahead: the update record is appended before the store).
    ///
    /// Under the MVCC levels the exclusive lock is still taken (writers
    /// block writers) but the write is buffered: versions install at a
    /// single commit timestamp after certification. SI/SSI check
    /// first-committer-wins eagerly here — losing early saves work —
    /// and authoritatively again at commit.
    pub fn write(&mut self, item: &str, value: Value) -> Result<(), EngineError> {
        self.check_active()?;
        if self.engine.inner.cfg.isolation.is_mvcc() {
            let t0 = self.prof_now();
            drop(self.engine.acquire(self.id, &mut self.held, item, LockMode::Exclusive)?);
            let t1 = self.prof_now();
            if let Some(snap) = self.snapshot {
                if self.engine.inner.mvcc.latest_ts(item) > snap {
                    self.engine.inner.counters.cert_aborts.fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Certification { txn: self.id, item: item.to_owned() });
                }
            }
            self.write_buf.push((item.to_owned(), value));
            self.prof_lock_then_execute(t0, t1);
            return Ok(());
        }
        let t0 = self.prof_now();
        let mut state = self.engine.acquire(self.id, &mut self.held, item, LockMode::Exclusive)?;
        let t1 = self.prof_now();
        let before = self.engine.log_and_store(&mut state, self.id, item, value);
        drop(state);
        self.undo.push((item.to_owned(), before));
        if self.sampled {
            self.engine.sample(self.id, item, OpKind::Write);
        }
        self.prof_lock_then_execute(t0, t1);
        Ok(())
    }

    /// Commits: forces the commit record (batched under group commit),
    /// then releases all locks. Returns only after the commit record
    /// is durable.
    ///
    /// Under the MVCC levels commit additionally certifies the write
    /// set (SI/SSI, first-committer-wins) and the read set (SSI), and
    /// installs the buffered writes as versions at one fresh commit
    /// timestamp; a certification failure aborts the transaction and
    /// returns [`EngineError::Certification`].
    pub fn commit(mut self) -> Result<(), EngineError> {
        self.check_active()?;
        if self.engine.inner.cfg.isolation.is_mvcc() {
            return self.mvcc_commit();
        }
        let wal = &self.engine.inner.wal;
        let wait = if self.prof.is_some() {
            wal.append_commit_and_wait_timed(self.id)
        } else {
            wal.append_commit_and_wait(self.id);
            (0, 0)
        };
        // Durable already: nobody waits on this stage's LSN.
        let staged = self.staged(0);
        self.engine.ack(staged, wait);
        Ok(())
    }

    /// Commits without holding the caller for the log device: under
    /// 2PL with group commit the commit record is appended and the call
    /// returns at once; the acknowledgement — the `Commit` event, lock
    /// release, counters — runs on the log-writer thread after the
    /// force that covers the record, and `done(Ok(()))` after it. Until
    /// then the transaction keeps its locks, so nobody reads what is
    /// not yet durable. `done` runs with no engine mutex held and may
    /// use the engine, but the log forces nothing while it runs — so it
    /// must not itself wait for a commit.
    ///
    /// With `group_commit: false` there is no writer thread: this is
    /// [`Txn::commit`], then `done` on the caller's thread. The MVCC
    /// levels hold their commit lock across the durability wait, so
    /// they too commit in full first; a certification loser gets
    /// `done(Err(..))`.
    pub fn commit_then(self, done: impl FnOnce(Result<(), EngineError>) + Send + 'static) {
        let cfg = &self.engine.inner.cfg;
        if cfg.isolation.is_mvcc() || !cfg.group_commit {
            return done(self.commit());
        }
        let engine = self.engine.clone();
        let staged = match self.commit_stage() {
            Ok(staged) => staged,
            Err(e) => return done(Err(e)),
        };
        let wal = Arc::clone(&engine.inner.wal);
        let (lsn, t0) = (staged.lsn, staged.prof.as_ref().map(|_| wal.now_ns()));
        wal.on_durable(
            lsn,
            Ack::new(move || {
                let wal = &engine.inner.wal;
                let wait = t0.map_or((0, 0), |t0| wal.split_wait(t0, wal.now_ns()));
                engine.ack(staged, wait);
                done(Ok(()));
            }),
        );
    }

    /// Stages a commit without waiting for durability: appends the
    /// commit record and returns a [`StagedCommit`] that still holds
    /// the transaction's locks. A batch of staged commits then pays
    /// **one** durability wait in [`Engine::finish_commits`] — the
    /// participant-side force batching of the multi-shot commit path
    /// (`mcv-dist`), where one modeled device force amortizes over
    /// every transaction delivered in the same transport batch.
    ///
    /// Only meaningful under 2PL; the MVCC levels have their own
    /// commit critical section and fall back to a full [`Txn::commit`]
    /// (the returned stage is already finished and waits on nothing).
    pub fn commit_stage(mut self) -> Result<StagedCommit, EngineError> {
        self.check_active()?;
        if self.engine.inner.cfg.isolation.is_mvcc() {
            self.mvcc_commit()?;
            return Ok(StagedCommit { id: self.id, held: Held::default(), lsn: 0, prof: None });
        }
        let lsn = self.engine.inner.wal.append_commit(self.id);
        Ok(self.staged(lsn))
    }

    /// Hands what this transaction holds to a [`StagedCommit`]. Its
    /// commit record is in the log: the transaction is decided, so the
    /// drop guard must not roll it back.
    fn staged(&mut self, lsn: usize) -> StagedCommit {
        self.active = false;
        StagedCommit {
            id: self.id,
            held: std::mem::take(&mut self.held),
            lsn,
            prof: self.prof.take(),
        }
    }

    /// The MVCC commit critical section: certify under the store's
    /// commit lock, log and mirror the writes, wait for durability,
    /// install the versions, publish the timestamp, GC the touched
    /// chains.
    fn mvcc_commit(&mut self) -> Result<(), EngineError> {
        let engine = self.engine.clone();
        let inner = &*engine.inner;
        if self.write_buf.is_empty() {
            // Read-only: nothing to certify, log, or install. (Safe to
            // skip SSI validation: with every *writer* validated
            // read-current at commit, writer serialization order equals
            // commit order, and a read-only snapshot is a consistent
            // prefix of it.)
            if let Some(t) = &inner.trace {
                t.record(t.lane(), 0, None, mcv_trace::EventKind::Commit { txn: self.id.0 });
            }
            self.finish_snapshot();
            self.engine.release_locks(self.id, &self.held);
            inner.counters.committed.fetch_add(1, Ordering::Relaxed);
            self.prof_flush();
            self.active = false;
            return Ok(());
        }
        // Last-wins dedup in first-write order: one version per item
        // per commit timestamp.
        let mut writes: Vec<(Item, Value)> = Vec::with_capacity(self.write_buf.len());
        for (item, value) in &self.write_buf {
            match writes.iter_mut().find(|(i, _)| i == item) {
                Some(slot) => slot.1 = *value,
                None => writes.push((item.clone(), *value)),
            }
        }

        let cert0 = self.prof_now();
        let guard = inner.mvcc.commit_lock();
        let snap = self.snapshot.unwrap_or(0);
        let conflict = if inner.cfg.isolation.certifies_writes() {
            writes.iter().map(|(i, _)| i).find(|i| inner.mvcc.latest_ts(i) > snap).or_else(|| {
                if inner.cfg.isolation.certifies_reads() {
                    self.read_set.iter().find(|i| inner.mvcc.latest_ts(i) > snap)
                } else {
                    None
                }
            })
        } else {
            None
        };
        if let Some(item) = conflict {
            let item = item.clone();
            drop(guard);
            inner.counters.cert_aborts.fetch_add(1, Ordering::Relaxed);
            self.rollback();
            return Err(EngineError::Certification { txn: self.id, item });
        }
        self.prof_add(Phase::Certify, cert0);

        let exec0 = self.prof_now();
        let ts = inner.mvcc.last_committed() + 1;
        // WAL first (updates then commit, in timestamp order across
        // committers since the commit lock is held), mirroring into the
        // shard stores so `state()` / recovery equivalence see the same
        // world the version chains do.
        for (item, value) in &writes {
            let s = shard_of(item, inner.cfg.shards);
            let mut state = inner.shards[s].state.lock().expect("shard mutex");
            engine.log_and_store(&mut state, self.id, item, *value);
        }
        self.prof_add(Phase::Execute, exec0);
        if self.prof.is_some() {
            let (dwell_ns, force_ns) = inner.wal.append_commit_and_wait_timed(self.id);
            self.prof_add_ns(Phase::WalDwell, dwell_ns);
            self.prof_add_ns(Phase::WalForce, force_ns);
        } else {
            inner.wal.append_commit_and_wait(self.id);
        }
        let ack0 = self.prof_now();
        // Versions install only after the commit record is durable, so
        // even ReadCommitted (which reads chain heads) never observes
        // an unacknowledged write.
        for (item, value) in &writes {
            inner.mvcc.install(item, ts, *value, self.id);
            if let Some(t) = &inner.trace {
                t.record(
                    t.lane(),
                    0,
                    None,
                    mcv_trace::EventKind::VersionInstall { txn: self.id.0, item: item.clone(), ts },
                );
            }
        }
        inner.mvcc.advance(ts);
        inner.mvcc.gc_items(writes.iter().map(|(i, _)| i.as_str()));
        drop(guard);

        if let Some(t) = &inner.trace {
            let cause = t.mark(inner.wal.force_mark());
            t.record(t.lane(), 0, cause, mcv_trace::EventKind::Commit { txn: self.id.0 });
        }
        self.finish_snapshot();
        self.engine.release_locks(self.id, &self.held);
        inner.counters.committed.fetch_add(1, Ordering::Relaxed);
        self.prof_add(Phase::CommitAck, ack0);
        self.prof_flush();
        self.active = false;
        Ok(())
    }

    /// Deregisters the pinned snapshot (idempotent).
    fn finish_snapshot(&mut self) {
        if let Some(ts) = self.snapshot.take() {
            self.engine.inner.mvcc.end_snapshot(ts);
        }
    }

    /// Aborts: restores before-images (still under this transaction's
    /// exclusive locks), logs the abort, releases locks.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn check_active(&self) -> Result<(), EngineError> {
        if self.active {
            Ok(())
        } else {
            Err(EngineError::Finished(self.id))
        }
    }

    /// A timestamp only when profiling, so the disabled path never
    /// touches the clock.
    fn prof_now(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    /// Attributes the time since `t0` to `phase`.
    fn prof_add(&mut self, phase: Phase, t0: Option<Instant>) {
        if let (Some(p), Some(t0)) = (&mut self.prof, t0) {
            p.timeline.add(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Attributes `t0..t1` to waiting for a lock and the time since `t1`
    /// to executing under it.
    fn prof_lock_then_execute(&mut self, t0: Option<Instant>, t1: Option<Instant>) {
        if let (Some(t0), Some(t1)) = (t0, t1) {
            self.prof_add_ns(Phase::LockWait, (t1 - t0).as_nanos() as u64);
        }
        self.prof_add(Phase::Execute, t1);
    }

    /// Attributes an externally measured duration to `phase`.
    fn prof_add_ns(&mut self, phase: Phase, ns: u64) {
        if let Some(p) = &mut self.prof {
            p.timeline.add(phase, ns);
        }
    }

    /// Stamps the anchor span and records the timeline into the
    /// engine's profiler ring. Called on the commit paths only:
    /// aborted transactions are not flushed.
    fn prof_flush(&mut self) {
        if let Some(state) = self.prof.take() {
            if let Some(profiler) = &self.engine.inner.prof {
                let mut t = state.timeline;
                t.total_ns = state.begin.elapsed().as_nanos() as u64;
                profiler.record(&t);
            }
        }
    }

    fn rollback(&mut self) {
        if !self.active {
            return;
        }
        let inner = &self.engine.inner;
        for (item, before) in self.undo.iter().rev() {
            let s = shard_of(item, inner.cfg.shards);
            inner.shards[s].state.lock().expect("shard mutex").restore(item, *before);
        }
        self.engine.inner.wal.append_abort(self.id);
        if let Some(t) = &self.engine.inner.trace {
            t.record(t.lane(), 0, None, mcv_trace::EventKind::Abort { txn: self.id.0 });
        }
        self.finish_snapshot();
        self.engine.release_locks(self.id, &self.held);
        self.engine.inner.counters.aborted.fetch_add(1, Ordering::Relaxed);
        self.active = false;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.rollback();
    }
}

/// Builds the default latency histogram used by drivers: microsecond
/// buckets from 50µs to ~16s.
pub fn latency_histogram() -> Histogram {
    Histogram::with_bounds(vec![
        50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200, 102_400, 204_800,
        409_600, 819_200, 1_638_400, 4_000_000, 16_000_000,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transaction_commit_is_durable() {
        let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
        let mut t = engine.begin();
        t.write("X", 42).expect("write");
        t.commit().expect("commit");
        let crash = mcv_txn::Wal::from_bytes_lossy(&engine.durable_image());
        assert_eq!(crash.recover().get("X"), Some(&42));
    }

    #[test]
    fn abort_restores_before_image_and_leaves_no_durable_commit() {
        let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
        let mut t = engine.begin();
        t.write("X", 1).expect("write");
        t.commit().expect("commit");
        let mut t = engine.begin();
        t.write("X", 99).expect("write");
        t.abort();
        assert_eq!(engine.value("X"), 1);
        let crash = mcv_txn::Wal::from_bytes_lossy(&engine.durable_image());
        assert_eq!(crash.recover().get("X"), Some(&1));
    }

    #[test]
    fn drop_without_commit_aborts() {
        let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
        {
            let mut t = engine.begin();
            t.write("X", 5).expect("write");
        }
        assert_eq!(engine.value("X"), 0);
        assert_eq!(engine.metrics_snapshot().counter("engine.txn.aborted"), 1);
    }

    #[test]
    fn concurrent_counter_increments_are_all_applied() {
        // 4 threads × 25 read-modify-write increments on one item:
        // strict 2PL must serialize them, so the final value is exactly
        // the number of committed increments.
        let engine = Engine::new(EngineConfig { group_commit: true, ..Default::default() });
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    let mut done = 0u32;
                    while done < 25 {
                        let mut t = engine.begin();
                        let r = t.read("ctr").and_then(|v| t.write("ctr", v + 1));
                        match r {
                            Ok(()) => {
                                t.commit().expect("commit");
                                done += 1;
                            }
                            Err(_) => t.abort(),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread");
        }
        assert_eq!(engine.value("ctr"), 100);
        let crash = mcv_txn::Wal::from_bytes_lossy(&engine.durable_image());
        assert_eq!(crash.recover().get("ctr"), Some(&100));
        assert!(engine.sampled_history().is_conflict_serializable());
    }

    #[test]
    fn two_thread_deadlock_is_broken_and_youngest_dies() {
        use std::sync::Barrier;
        let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for order in 0..2u8 {
            let engine = engine.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let (first, second) = if order == 0 { ("A", "B") } else { ("B", "A") };
                let mut t = engine.begin();
                t.write(first, 1).expect("first write never deadlocks");
                barrier.wait();
                match t.write(second, 1) {
                    Ok(()) => {
                        t.commit().expect("commit");
                        (t_id_of(order), true)
                    }
                    Err(EngineError::Deadlock { victim }) => {
                        assert!(victim.0 > 0);
                        t.abort();
                        (t_id_of(order), false)
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }));
        }
        fn t_id_of(order: u8) -> u8 {
            order
        }
        let results: Vec<(u8, bool)> =
            handles.into_iter().map(|h| h.join().expect("thread")).collect();
        let committed = results.iter().filter(|(_, ok)| *ok).count();
        // Exactly one side must have aborted; the other commits.
        assert_eq!(committed, 1, "one victim, one survivor: {results:?}");
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("engine.locks.deadlocks"), 1);
        assert!(engine.sampled_history().is_conflict_serializable());
    }

    #[test]
    fn traced_engine_run_passes_hb_check_and_commits_cite_forces() {
        let ((), trace) = mcv_trace::record_trace(None, || {
            let engine = Engine::new(EngineConfig { group_commit: true, ..Default::default() });
            let threads: Vec<_> = (0..2)
                .map(|w| {
                    let engine = engine.clone();
                    std::thread::spawn(move || {
                        for i in 0..5 {
                            let mut t = engine.begin();
                            let r = t
                                .read("ctr")
                                .and_then(|v| t.write("ctr", v + 1))
                                .and_then(|()| t.write(&format!("w{w}.{i}"), i));
                            match r {
                                Ok(()) => t.commit().expect("commit"),
                                Err(_) => t.abort(),
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("worker");
            }
        });
        let report = mcv_trace::check(&trace);
        assert!(report.ok(), "{}", report.summary());
        // Every commit ack cites the WAL force that made it durable.
        let commits: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, mcv_trace::EventKind::Commit { .. }))
            .collect();
        assert!(!commits.is_empty());
        let index = trace.by_id();
        for c in &commits {
            let cause = c.cause.and_then(|id| index.get(&id).copied()).expect("commit has a cause");
            assert!(
                matches!(cause.kind, mcv_trace::EventKind::WalForce { .. }),
                "commit cause is a force, got {}",
                cause.kind
            );
        }
        // Worker lanes are distinct: events span at least 2 sites.
        let sites: BTreeSet<usize> = trace.events.iter().map(|e| e.site).collect();
        assert!(sites.len() >= 2, "expected multiple lanes, got {sites:?}");
    }

    #[test]
    fn sampled_history_reflects_committed_ops_only() {
        let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
        let mut a = engine.begin();
        a.write("X", 1).expect("write");
        a.commit().expect("commit");
        let mut b = engine.begin();
        b.write("X", 2).expect("write");
        b.abort();
        let h = engine.sampled_history();
        assert_eq!(h.len(), 1);
        assert_eq!(h.transactions().len(), 1);
    }
}
