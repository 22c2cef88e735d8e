//! The recorder and the thread-local sink behind the free recording
//! functions.
//!
//! Mirrors the `mcv-obs` collector pattern: single-threaded code (the
//! simulator, the commit protocols) records through free functions that
//! no-op when no sink is installed; multi-threaded code (the engine)
//! captures the installed [`Recorder`] handle once and shares it across
//! worker threads, each of which gets its own lane (site id).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{CausalTrace, Cause, Event, EventKind};

static NEXT_RECORDER_SERIAL: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Default, Clone, Copy)]
struct SiteClock {
    seq: u64,
    lamport: u64,
}

#[derive(Debug)]
struct RecInner {
    events: VecDeque<Event>,
    dropped: u64,
    next_id: u64,
    sites: Vec<SiteClock>,
    marks: BTreeMap<String, Cause>,
    next_lane: usize,
}

/// A causal event recorder.
///
/// Unbounded ([`Recorder::unbounded`]) for full traces, or a bounded
/// ring ([`Recorder::ring`]) acting as a flight recorder that keeps the
/// last N events. Thread-safe: engine worker threads record through a
/// shared `Arc<Recorder>`.
#[derive(Debug)]
pub struct Recorder {
    serial: u64,
    cap: Option<usize>,
    start: Instant,
    wal_ids: AtomicU64,
    inner: Mutex<RecInner>,
}

impl Recorder {
    fn with_cap(cap: Option<usize>) -> Arc<Recorder> {
        Arc::new(Recorder {
            serial: NEXT_RECORDER_SERIAL.fetch_add(1, Ordering::Relaxed),
            cap,
            start: Instant::now(),
            wal_ids: AtomicU64::new(1),
            inner: Mutex::new(RecInner {
                events: VecDeque::new(),
                dropped: 0,
                next_id: 1,
                sites: Vec::new(),
                marks: BTreeMap::new(),
                next_lane: 0,
            }),
        })
    }

    /// Allocates a recorder-unique write-ahead-log identity (from 1),
    /// used to disambiguate `WalAppend`/`WalForce` events when several
    /// logs (one per shard) share a trace. Recorder-scoped rather than
    /// process-global so repeated runs under fresh recorders produce
    /// byte-identical traces.
    pub fn next_wal_id(&self) -> u64 {
        self.wal_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// A recorder that keeps every event.
    pub fn unbounded() -> Arc<Recorder> {
        Recorder::with_cap(None)
    }

    /// A flight recorder keeping only the last `cap` events (older ones
    /// are evicted and counted in [`CausalTrace::dropped`]).
    pub fn ring(cap: usize) -> Arc<Recorder> {
        Recorder::with_cap(Some(cap.max(1)))
    }

    /// Records one event at `site`, optionally citing `cause`, and
    /// returns a [`Cause`] token for the new event.
    ///
    /// Maintains the site's sequence number and Lamport clock: the
    /// clock becomes `max(site clock, cause clock) + 1`.
    pub fn record(&self, site: usize, time: u64, cause: Option<Cause>, kind: EventKind) -> Cause {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let mut g = self.inner.lock().unwrap();
        if g.sites.len() <= site {
            g.sites.resize(site + 1, SiteClock::default());
        }
        let clock = &mut g.sites[site];
        clock.seq += 1;
        let seq = clock.seq;
        let base = clock.lamport.max(cause.map_or(0, |c| c.lamport));
        clock.lamport = base + 1;
        let lamport = clock.lamport;
        let id = g.next_id;
        g.next_id += 1;
        let event =
            Event { id, site, seq, lamport, cause: cause.map(|c| c.id), time, wall_ns, kind };
        g.events.push_back(event);
        if let Some(cap) = self.cap {
            while g.events.len() > cap {
                g.events.pop_front();
                g.dropped += 1;
            }
        }
        Cause { id, lamport }
    }

    /// Stores `cause` under `key` for later pickup by
    /// [`mark`](Recorder::mark) — used to hand causality across code
    /// that cannot thread tokens directly (last release of a lock item,
    /// last WAL force).
    pub fn set_mark(&self, key: &str, cause: Cause) {
        self.inner.lock().unwrap().marks.insert(key.to_owned(), cause);
    }

    /// The cause last stored under `key`.
    pub fn mark(&self, key: &str) -> Option<Cause> {
        self.inner.lock().unwrap().marks.get(key).copied()
    }

    /// The lane (site id) of the calling thread, allocated on first use
    /// and cached thread-locally. Distinct threads recording into the
    /// same recorder get distinct, small, dense lane ids.
    pub fn lane(&self) -> usize {
        LANES.with(|l| {
            let mut lanes = l.borrow_mut();
            if let Some(&(_, lane)) = lanes.iter().find(|(serial, _)| *serial == self.serial) {
                return lane;
            }
            let mut g = self.inner.lock().unwrap();
            let lane = g.next_lane;
            g.next_lane += 1;
            lanes.push((self.serial, lane));
            lane
        })
    }

    /// Reserves `n` lanes (0..n) so that ids handed out by
    /// [`lane`](Recorder::lane) start after them. Lets a coordinator
    /// claim fixed lanes before worker threads self-register.
    pub fn reserve_lanes(&self, n: usize) {
        let mut g = self.inner.lock().unwrap();
        g.next_lane = g.next_lane.max(n);
    }

    /// Reserves room for `n` more events now, on the calling thread. A
    /// long multi-threaded recording otherwise regrows its buffer from
    /// whichever thread records at capacity, and the copy-sized blocks
    /// that leaves in short-lived threads' allocator arenas are kept
    /// by the process.
    pub fn reserve_events(&self, n: usize) {
        self.inner.lock().unwrap().events.reserve(n);
    }

    /// Snapshot of everything currently retained.
    pub fn snapshot(&self) -> CausalTrace {
        let g = self.inner.lock().unwrap();
        CausalTrace { events: g.events.iter().cloned().collect(), dropped: g.dropped }
    }
}

thread_local! {
    /// Per-thread cache of (recorder serial, lane) pairs.
    static LANES: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
    static SINK: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    static CONTEXT: Cell<Option<Cause>> = const { Cell::new(None) };
}

/// Runs `f` with `rec` installed as this thread's trace sink and
/// restores the previous sink afterwards. Nested installs stack.
pub fn with_recorder<R>(rec: Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    let prev = SINK.with(|s| s.borrow_mut().replace(rec));
    let value = f();
    SINK.with(|s| *s.borrow_mut() = prev);
    value
}

/// Runs `f` under a fresh recorder (unbounded, or a ring of `cap`) and
/// returns its value together with the recorded trace.
pub fn record_trace<R>(cap: Option<usize>, f: impl FnOnce() -> R) -> (R, CausalTrace) {
    let rec = match cap {
        Some(c) => Recorder::ring(c),
        None => Recorder::unbounded(),
    };
    let value = with_recorder(Arc::clone(&rec), f);
    (value, rec.snapshot())
}

/// The recorder installed on this thread, if any. Multi-threaded
/// subsystems capture this once at construction and share the handle
/// with their worker threads.
pub fn installed() -> Option<Arc<Recorder>> {
    SINK.with(|s| s.borrow().clone())
}

/// True when a sink is installed — use to skip building event payloads
/// (labels) on the hot path.
pub fn active() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Sets the ambient cause cited by subsequent [`emit`] calls on this
/// thread, returning the previous one. The simulator sets it to the
/// triggering deliver / timer-fire / crash event around each process
/// callback, so everything a handler records — state transitions,
/// decisions, sends, timers — is automatically chained to its trigger.
pub fn set_context(cause: Option<Cause>) -> Option<Cause> {
    CONTEXT.with(|c| c.replace(cause))
}

/// The ambient cause for this thread, if any.
pub fn context() -> Option<Cause> {
    CONTEXT.with(|c| c.get())
}

/// Records an event citing the ambient [`context`] (if any); no-op
/// (returning `None`) without an installed sink.
pub fn emit(site: usize, time: u64, kind: EventKind) -> Option<Cause> {
    emit_caused(site, time, context(), kind)
}

/// Records an event citing `cause`; no-op without an installed sink.
pub fn emit_caused(site: usize, time: u64, cause: Option<Cause>, kind: EventKind) -> Option<Cause> {
    SINK.with(|s| s.borrow().as_ref().map(|rec| rec.record(site, time, cause, kind)))
}

/// A message label from a Debug rendering: the text up to the first
/// `{`, `(`, or space — i.e. the variant name.
pub fn label_of(debug: &str) -> String {
    let end = debug.find(['{', '(', ' ']).unwrap_or(debug.len());
    debug[..end].to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_without_sink() {
        assert!(!active());
        assert_eq!(emit(0, 0, EventKind::Crash), None);
        assert!(installed().is_none());
    }

    #[test]
    fn lamport_and_seq_advance() {
        let ((), trace) = record_trace(None, || {
            let send = emit(0, 0, EventKind::Send { to: 1, label: "M".into() });
            emit(0, 1, EventKind::Note { text: "idle".into() });
            emit_caused(
                1,
                5,
                send,
                EventKind::Deliver { from: 0, label: "M".into(), deliver_seq: 1 },
            );
        });
        assert_eq!(trace.len(), 3);
        let [send, note, deliver] = &trace.events[..] else { panic!() };
        assert_eq!((send.site, send.seq, send.lamport), (0, 1, 1));
        assert_eq!((note.site, note.seq, note.lamport), (0, 2, 2));
        // Deliver's clock dominates the send's even though site 1 is fresh.
        assert_eq!((deliver.site, deliver.seq, deliver.lamport), (1, 1, 2));
        assert_eq!(deliver.cause, Some(send.id));
    }

    #[test]
    fn ring_evicts_and_counts() {
        let rec = Recorder::ring(2);
        for i in 0..5 {
            rec.record(0, i, None, EventKind::Note { text: format!("n{i}") });
        }
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped, 3);
        assert!(!trace.complete());
        // The window is a suffix: seq numbers stay contiguous.
        assert_eq!(trace.events[0].seq, 4);
        assert_eq!(trace.events[1].seq, 5);
    }

    #[test]
    fn nested_sinks_stack() {
        let ((), outer) = record_trace(None, || {
            emit(0, 0, EventKind::Note { text: "outer".into() });
            let ((), inner) = record_trace(None, || {
                emit(0, 0, EventKind::Note { text: "inner".into() });
            });
            assert_eq!(inner.len(), 1);
        });
        assert_eq!(outer.len(), 1);
        assert_eq!(outer.events[0].kind, EventKind::Note { text: "outer".into() });
    }

    #[test]
    fn ambient_context_chains_handler_events() {
        let ((), trace) = record_trace(None, || {
            let deliver =
                emit(1, 5, EventKind::Deliver { from: 0, label: "M".into(), deliver_seq: 1 });
            let prev = set_context(deliver);
            assert_eq!(prev, None);
            emit(1, 5, EventKind::State { txn: 1, state: "w1".into() });
            set_context(prev);
            emit(1, 6, EventKind::Note { text: "idle".into() });
        });
        assert_eq!(trace.events[1].cause, Some(trace.events[0].id));
        assert_eq!(trace.events[2].cause, None);
    }

    #[test]
    fn marks_hand_over_causes() {
        let rec = Recorder::unbounded();
        let c = rec.record(0, 0, None, EventKind::WalForce { upto: 3, wal: 0 });
        rec.set_mark("wal.force", c);
        assert_eq!(rec.mark("wal.force"), Some(c));
        assert_eq!(rec.mark("absent"), None);
    }

    #[test]
    fn lanes_are_per_thread() {
        let rec = Recorder::unbounded();
        rec.reserve_lanes(1);
        let main_lane = rec.lane();
        assert_eq!(main_lane, 1);
        assert_eq!(rec.lane(), 1, "lane is cached per thread");
        let rec2 = Arc::clone(&rec);
        let other = std::thread::spawn(move || rec2.lane()).join().unwrap();
        assert_eq!(other, 2);
    }

    #[test]
    fn label_of_truncates_debug() {
        assert_eq!(label_of("Vote { yes: true }"), "Vote");
        assert_eq!(label_of("Ack(3)"), "Ack");
        assert_eq!(label_of("Ping"), "Ping");
    }
}
