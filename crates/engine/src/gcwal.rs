//! Group-commit write-ahead logging.
//!
//! Wraps [`mcv_txn::ForcedWal`] behind a mutex and models the force as
//! a device operation with configurable latency. Records are encoded
//! into the log buffer when they are appended, so a force under the
//! mutex is a cursor move. In group-commit mode a dedicated log-writer
//! thread forces the pending tail once per device operation and every
//! commit that arrived while the device was busy rides the next force
//! — so under concurrency `forces < commits`. With group commit off,
//! every committer pays a full device operation of its own
//! (`forces == commits`), which is the baseline the `exp.gc`
//! experiment compares against.
//!
//! Commit acknowledgements wait on a durable cursor that only advances
//! *after* the device latency has elapsed — a commit is never acked
//! before its log record is durable. A committer either parks on that
//! cursor itself or, in group mode, leaves an acknowledgement behind
//! ([`GroupWal::on_durable`]) that the log writer runs once the force
//! covering it is done — with the mutex released, like every other
//! call out of this module.

use mcv_txn::{LogRecord, TxnId, Value};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-wide wal-identity allocator: each [`GroupWal`] gets a
/// distinct id so traces with several concurrent logs (one per shard
/// in `mcv-dist`) keep their overlapping lsn spaces apart.
#[derive(Debug)]
pub(crate) struct GroupWal {
    inner: Mutex<GwInner>,
    /// Wakes the log-writer thread (group mode).
    work: Condvar,
    /// Wakes committers waiting for durability.
    forced: Condvar,
    group: bool,
    force_latency: Duration,
    /// How long the writer dwells after the first force request before
    /// forcing, so committers that are a few microseconds behind
    /// make this batch instead of the next (the classic group-commit
    /// timer).
    group_window: Duration,
    /// Causal trace sink captured at engine construction; `None` means
    /// every record call below is a no-op branch.
    trace: Option<Arc<mcv_trace::Recorder>>,
    /// This log's identity in trace events.
    wal_id: u64,
    /// Mark name (`wal.force.<id>`) under which the latest force's
    /// cause is published, so commit acks cite *this* log's force.
    mark: String,
    /// Time origin for the force-window atomics below.
    epoch: Instant,
    /// Start/end of the most recent device operation, nanoseconds
    /// since `epoch` (relaxed; published by whoever forces a batch so
    /// a timed wait can be split into batching dwell vs device time
    /// without taking a lock).
    force_start_ns: AtomicU64,
    force_end_ns: AtomicU64,
}

/// What runs once a commit record is durable: the engine's lock
/// release and the caller's completion.
pub(crate) struct Ack(Box<dyn FnOnce() + Send>);

impl Ack {
    pub(crate) fn new(f: impl FnOnce() + Send + 'static) -> Ack {
        Ack(Box::new(f))
    }
}

impl fmt::Debug for Ack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Ack")
    }
}

#[derive(Debug, Default)]
struct GwInner {
    log: mcv_txn::ForcedWal,
    /// Highest LSN some committer asked to have forced.
    requested: usize,
    /// Records that are durable (forced *and* past device latency).
    durable: usize,
    /// A device operation is in flight (serializes forces in
    /// per-commit mode).
    forcing: bool,
    shutdown: bool,
    /// Commit records appended.
    commits: u64,
    /// Device operations performed.
    forces: u64,
    /// Acknowledgements not yet run, ascending by the LSN each waits
    /// for.
    acks: VecDeque<(usize, Ack)>,
    /// Acknowledgements the log writer has run.
    deferred_acks: u64,
}

impl GwInner {
    /// Removes and returns every acknowledgement the durable cursor
    /// covers, in LSN order.
    fn take_ready_acks(&mut self) -> Vec<Ack> {
        let n = self.acks.partition_point(|(lsn, _)| *lsn <= self.durable);
        self.deferred_acks += n as u64;
        self.acks.drain(..n).map(|(_, ack)| ack).collect()
    }
}

impl GroupWal {
    pub(crate) fn new(
        group: bool,
        force_latency: Duration,
        group_window: Duration,
        trace: Option<Arc<mcv_trace::Recorder>>,
    ) -> Self {
        let wal_id = trace.as_ref().map(|t| t.next_wal_id()).unwrap_or(0);
        GroupWal {
            inner: Mutex::new(GwInner::default()),
            work: Condvar::new(),
            forced: Condvar::new(),
            group,
            force_latency,
            group_window,
            trace,
            wal_id,
            mark: format!("wal.force.{wal_id}"),
            epoch: Instant::now(),
            force_start_ns: AtomicU64::new(0),
            force_end_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this log's construction (the force-window
    /// time base).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The mark name carrying this log's latest force cause.
    pub(crate) fn force_mark(&self) -> &str {
        &self.mark
    }

    /// Records a `WalAppend` trace event for `txn`'s `what` record at
    /// `lsn`.
    fn trace_append(&self, txn: TxnId, what: &str, lsn: usize) {
        let Some(t) = &self.trace else { return };
        // Cite the thread's ambient cause (e.g. the delivered message a
        // dist node is processing) so cross-thread commit chains stay
        // decomposable; engine-only worker threads carry no context.
        t.record(
            t.lane(),
            0,
            mcv_trace::context(),
            mcv_trace::EventKind::WalAppend {
                txn: txn.0,
                lsn: lsn as u64,
                what: what.to_owned(),
                wal: self.wal_id,
            },
        );
    }

    /// Records a `WalForce` trace event covering `upto` and publishes
    /// it under this log's `wal.force.<id>` mark so commit acks can
    /// cite it (and only it — other shards' logs have their own marks).
    fn trace_force(&self, upto: usize) {
        let Some(t) = &self.trace else { return };
        let c = t.record(
            t.lane(),
            0,
            None,
            mcv_trace::EventKind::WalForce { upto: upto as u64, wal: self.wal_id },
        );
        t.set_mark(&self.mark, c);
    }

    /// Appends `txn`'s update record for `item` without forcing.
    pub(crate) fn append_update(&self, txn: TxnId, item: &str, old: Value, new: Value) {
        let lsn = self.inner.lock().expect("wal mutex").log.append_update(txn, item, old, new);
        self.trace_append(txn, "update", lsn);
    }

    /// Appends `txn`'s abort record without forcing.
    pub(crate) fn append_abort(&self, txn: TxnId) {
        let lsn = self.inner.lock().expect("wal mutex").log.append(LogRecord::Abort { txn });
        self.trace_append(txn, "abort", lsn);
    }

    /// Appends `txn`'s commit record *without* waiting for durability
    /// and returns its log sequence number. Pairs with
    /// [`GroupWal::wait_durable`]: a staged-commit batch appends every
    /// record first, then pays one durability wait covering the highest
    /// LSN — the group-commit dwell lifted up to the caller — or with
    /// [`GroupWal::on_durable`], where nobody waits at all.
    pub(crate) fn append_commit(&self, txn: TxnId) -> usize {
        let mut g = self.inner.lock().expect("wal mutex");
        let lsn = g.log.append(LogRecord::Commit { txn });
        g.commits += 1;
        drop(g);
        self.trace_append(txn, "commit", lsn);
        lsn
    }

    /// Blocks until every record up to `upto` is durable. In group mode
    /// one force request covers the whole staged tail; in per-commit
    /// mode the caller pays device operations until the cursor catches
    /// up (typically one covering everything staged so far).
    pub(crate) fn wait_durable(&self, upto: usize) {
        let mut g = self.inner.lock().expect("wal mutex");
        if self.group {
            g.requested = g.requested.max(upto);
            self.work.notify_one();
            while g.durable < upto && !g.shutdown {
                g = self.forced.wait(g).expect("wal mutex");
            }
        } else {
            loop {
                if g.durable >= upto || g.shutdown {
                    return;
                }
                if g.forcing {
                    g = self.forced.wait(g).expect("wal mutex");
                    continue;
                }
                g.forcing = true;
                g.log.force();
                let target = g.log.forced_records();
                g.forces += 1;
                drop(g);
                self.force_start_ns.store(self.now_ns(), Ordering::Relaxed);
                self.sleep_device();
                self.force_end_ns.store(self.now_ns(), Ordering::Relaxed);
                // Recorded before the durable cursor moves, so the
                // force always precedes the acks it enables.
                self.trace_force(target);
                g = self.inner.lock().expect("wal mutex");
                g.durable = g.durable.max(target);
                g.forcing = false;
                self.forced.notify_all();
            }
        }
    }

    /// Leaves `ack` to be run by the log writer once every record up
    /// to `lsn` is durable (group mode only: without a writer thread
    /// the committer forces for itself). Acknowledgements run in LSN
    /// order, one at a time, on the writer thread, with this log's
    /// mutex released — an `ack` may append, read the durable image or
    /// take any engine mutex. One whose record is durable already is
    /// still queued, so that order holds.
    pub(crate) fn on_durable(&self, lsn: usize, ack: Ack) {
        debug_assert!(self.group, "deferred acknowledgements need the log writer");
        let mut g = self.inner.lock().expect("wal mutex");
        let at = g.acks.partition_point(|(l, _)| *l < lsn);
        g.acks.insert(at, (lsn, ack));
        g.requested = g.requested.max(lsn);
        self.work.notify_one();
    }

    /// How a durability wait over `t0..t1` (this log's [`now_ns`] time
    /// base) splits into `(dwell_ns, force_ns)`: its overlap with the
    /// last published force window is device time, the rest is
    /// batching dwell. If a new operation already started (start >
    /// end), it is still in flight and bounded by `t1`.
    ///
    /// [`now_ns`]: GroupWal::now_ns
    pub(crate) fn split_wait(&self, t0: u64, t1: u64) -> (u64, u64) {
        let total = t1.saturating_sub(t0);
        let fs = self.force_start_ns.load(Ordering::Relaxed);
        let fe = self.force_end_ns.load(Ordering::Relaxed);
        let (ws, we) = if fe >= fs { (fs, fe) } else { (fs, t1) };
        let force = we.min(t1).saturating_sub(ws.max(t0)).min(total);
        (total - force, force)
    }

    /// Appends `txn`'s commit record and blocks until it is durable.
    pub(crate) fn append_commit_and_wait(&self, txn: TxnId) {
        self.commit_and_wait(txn, false);
    }

    /// Like [`GroupWal::append_commit_and_wait`], but also measures how
    /// the durability wait splits into `(dwell_ns, force_ns)`: batching
    /// dwell (waiting for a device operation to start / queueing for
    /// the device) vs the device operation that covered this record.
    pub(crate) fn append_commit_and_wait_timed(&self, txn: TxnId) -> (u64, u64) {
        self.commit_and_wait(txn, true)
    }

    fn commit_and_wait(&self, txn: TxnId, timed: bool) -> (u64, u64) {
        let mut g = self.inner.lock().expect("wal mutex");
        let lsn = g.log.append(LogRecord::Commit { txn });
        g.commits += 1;
        if self.trace.is_some() {
            drop(g);
            self.trace_append(txn, "commit", lsn);
            g = self.inner.lock().expect("wal mutex");
        }
        if self.group {
            let t0 = if timed { self.now_ns() } else { 0 };
            g.requested = g.requested.max(lsn);
            self.work.notify_one();
            while g.durable < lsn && !g.shutdown {
                g = self.forced.wait(g).expect("wal mutex");
            }
            if !timed {
                return (0, 0);
            }
            drop(g);
            self.split_wait(t0, self.now_ns())
        } else {
            // Per-commit force: this committer always pays one full
            // device operation, even if a concurrent force already
            // covered its record (an fsync per commit is the point of
            // the baseline).
            let t0 = if timed { self.now_ns() } else { 0 };
            while g.forcing {
                g = self.forced.wait(g).expect("wal mutex");
            }
            let t1 = if timed { self.now_ns() } else { 0 };
            g.forcing = true;
            g.log.force();
            let target = g.log.forced_records();
            g.forces += 1;
            drop(g);
            self.sleep_device();
            // Recorded before the durable cursor moves, so the force
            // always precedes the ack it enables in the trace.
            self.trace_force(target);
            let mut g = self.inner.lock().expect("wal mutex");
            g.durable = g.durable.max(target);
            g.forcing = false;
            self.forced.notify_all();
            if timed {
                (t1 - t0, self.now_ns().saturating_sub(t1))
            } else {
                (0, 0)
            }
        }
    }

    /// The log-writer loop (group mode). Runs until shutdown; each
    /// iteration forces the entire pending tail in one device
    /// operation, so commits queued during the previous operation's
    /// latency are batched, then runs the acknowledgements that
    /// operation covered. The tail is already encoded, so the mutex
    /// committers need for their appends is held only for the cursor
    /// move. It returns only with nothing requested and no
    /// acknowledgement left: an acknowledgement waits for a requested
    /// LSN, so shutdown forces once more rather than strand one.
    pub(crate) fn writer_loop(&self) {
        let mut g = self.inner.lock().expect("wal mutex");
        loop {
            let ready = g.take_ready_acks();
            if !ready.is_empty() {
                drop(g);
                for Ack(run) in ready {
                    run();
                }
                g = self.inner.lock().expect("wal mutex");
                continue;
            }
            if g.requested <= g.log.forced_records() {
                if g.shutdown {
                    return;
                }
                g = self.work.wait(g).expect("wal mutex");
                continue;
            }
            if !self.group_window.is_zero() {
                // Dwell with the mutex free so near-simultaneous
                // committers land in this batch, then force.
                drop(g);
                std::thread::sleep(self.group_window);
                g = self.inner.lock().expect("wal mutex");
            }
            g.log.force();
            g.forces += 1;
            let target = g.log.forced_records();
            drop(g);
            // Device busy: latency elapses with the mutex free, so new
            // commit records accumulate for the next batch.
            self.force_start_ns.store(self.now_ns(), Ordering::Relaxed);
            self.sleep_device();
            self.force_end_ns.store(self.now_ns(), Ordering::Relaxed);
            // Recorded before the durable cursor moves, so the force
            // always precedes the acks it enables.
            self.trace_force(target);
            g = self.inner.lock().expect("wal mutex");
            g.durable = g.durable.max(target);
            self.forced.notify_all();
        }
    }

    fn sleep_device(&self) {
        if !self.force_latency.is_zero() {
            std::thread::sleep(self.force_latency);
        }
    }

    /// Stops the writer thread and releases any waiting committers.
    pub(crate) fn shutdown(&self) {
        let mut g = self.inner.lock().expect("wal mutex");
        g.shutdown = true;
        self.work.notify_all();
        self.forced.notify_all();
    }

    /// The bytes a crash at this instant would leave on disk.
    pub(crate) fn durable_image(&self) -> Vec<u8> {
        self.inner.lock().expect("wal mutex").log.durable_image().to_vec()
    }

    /// Transactions with a commit record appended (volatile view, for
    /// oracle filtering; use [`GroupWal::durable_image`] for the
    /// crash-surviving set). Kept as commit records are appended, so
    /// this scans no log.
    pub(crate) fn committed(&self) -> BTreeSet<TxnId> {
        self.inner.lock().expect("wal mutex").log.committed().iter().copied().collect()
    }

    /// `(commit records, device operations, total records,
    /// acknowledgements run by the log writer)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64, u64) {
        let g = self.inner.lock().expect("wal mutex");
        (g.commits, g.forces, g.log.len() as u64, g.deferred_acks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn per_commit_mode_forces_once_per_commit() {
        let wal = GroupWal::new(false, Duration::ZERO, Duration::ZERO, None);
        for t in 1..=5 {
            wal.append_update(TxnId(t), "X", 0, t as i64);
            wal.append_commit_and_wait(TxnId(t));
        }
        let (commits, forces, ..) = wal.stats();
        assert_eq!(commits, 5);
        assert_eq!(forces, 5);
    }

    #[test]
    fn group_mode_batches_concurrent_commits() {
        let wal = Arc::new(GroupWal::new(true, Duration::from_millis(2), Duration::ZERO, None));
        let writer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.writer_loop())
        };
        let committers: Vec<_> = (1..=8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    wal.append_update(TxnId(t), "X", 0, t as i64);
                    wal.append_commit_and_wait(TxnId(t));
                })
            })
            .collect();
        for c in committers {
            c.join().expect("committer");
        }
        let (commits, forces, ..) = wal.stats();
        assert_eq!(commits, 8);
        assert!(forces >= 1, "at least one device op");
        assert!(forces < commits, "group commit must batch: {forces} forces / {commits} commits");
        // Every committer was acked only after its record became durable.
        let crash = mcv_txn::Wal::from_bytes_lossy(&wal.durable_image());
        assert_eq!(crash.committed().len(), 8);
        wal.shutdown();
        writer.join().expect("writer");
    }

    #[test]
    fn shutdown_strands_no_acknowledgement() {
        let wal = Arc::new(GroupWal::new(true, Duration::from_millis(2), Duration::ZERO, None));
        let acked = Arc::new(Mutex::new(Vec::new()));
        // Queued out of order, and shut down before the writer ever
        // ran: it still forces for them and runs them in LSN order.
        let lsns: Vec<usize> = (1..=3).map(|t| wal.append_commit(TxnId(t))).collect();
        for &lsn in lsns.iter().rev() {
            let acked = Arc::clone(&acked);
            wal.on_durable(lsn, Ack::new(move || acked.lock().expect("acked").push(lsn)));
        }
        wal.shutdown();
        let writer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.writer_loop())
        };
        writer.join().expect("writer");
        assert_eq!(*acked.lock().expect("acked"), lsns);
        assert_eq!(wal.stats(), (3, 1, 3, 3));
        assert_eq!(mcv_txn::Wal::from_bytes_lossy(&wal.durable_image()).committed().len(), 3);
    }
}
