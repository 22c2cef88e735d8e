//! The low-overhead recording sink: per-thread ring buffers behind an
//! `Arc`, mirroring the `mcv-trace` recorder install pattern.
//!
//! Hot-path discipline:
//!
//! - **no mutex**: a thread registers its ring once (the only lock
//!   touch), caches the `Arc` in a thread-local, and every subsequent
//!   [`Profiler::record`] is a handful of `Relaxed` atomic stores;
//! - **no-op when disabled**: instrumented code captures
//!   [`installed`] at construction (exactly like the engine does for
//!   its trace recorder), so the disabled path is one `Option` test;
//! - **bounded memory**: each ring holds a fixed number of
//!   [`Timeline`] slots and overwrites the oldest on overflow,
//!   counting what it dropped — a flight recorder, not an unbounded
//!   log.
//!
//! Harvesting ([`Profiler::harvest`]) is meant for quiesced runs (all
//! instrumented threads joined); concurrent writers may tear the
//! slot being overwritten, which is acceptable for a profiler and
//! bounded to one sample per ring.

use crate::phase::Timeline;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of `u64` words one ring slot occupies: txn, total, 8 phases.
const SLOT_WORDS: usize = 10;

/// Default per-thread ring capacity, in samples.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// One thread's sample ring: a flat array of atomics written with
/// `Relaxed` stores by its owning thread only.
struct Ring {
    words: Box<[AtomicU64]>,
    capacity: usize,
    /// Total samples ever written (wraps over the ring when > capacity).
    head: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let words = (0..capacity * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect();
        Ring { words, capacity, head: AtomicUsize::new(0) }
    }

    fn push(&self, t: &Timeline) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h % self.capacity) * SLOT_WORDS;
        self.words[base].store(t.txn, Ordering::Relaxed);
        self.words[base + 1].store(t.total_ns, Ordering::Relaxed);
        for (i, ns) in t.phase_ns.iter().enumerate() {
            self.words[base + 2 + i].store(*ns, Ordering::Relaxed);
        }
        self.head.store(h + 1, Ordering::Relaxed);
    }

    fn drain(&self) -> (Vec<Timeline>, u64) {
        let h = self.head.load(Ordering::Relaxed);
        let kept = h.min(self.capacity);
        let dropped = (h - kept) as u64;
        // Oldest first: when wrapped, the slot at `h % capacity` is the
        // oldest surviving sample.
        let first = if h > self.capacity { h % self.capacity } else { 0 };
        let mut out = Vec::with_capacity(kept);
        for i in 0..kept {
            let base = ((first + i) % self.capacity) * SLOT_WORDS;
            let mut t = Timeline::new(self.words[base].load(Ordering::Relaxed));
            t.total_ns = self.words[base + 1].load(Ordering::Relaxed);
            for p in 0..8 {
                t.phase_ns[p] = self.words[base + 2 + p].load(Ordering::Relaxed);
            }
            out.push(t);
        }
        (out, dropped)
    }
}

struct Shared {
    /// Process-unique identity so thread-local ring caches never serve
    /// a stale ring to a different profiler.
    id: u64,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (profiler id, ring) cache — one entry per profiler this thread
    /// has recorded into, so the registry mutex is touched once per
    /// (thread, profiler) pair.
    static RING_CACHE: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
    static INSTALLED: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// A handle to one profiling session. Cheap to clone; clones share the
/// same rings.
#[derive(Clone)]
pub struct Profiler {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").field("id", &self.shared.id).finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A profiler with the default per-thread ring capacity.
    pub fn new() -> Self {
        Profiler::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A profiler whose per-thread rings hold `capacity` samples each.
    fn with_ring_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Profiler {
            shared: Arc::new(Shared {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
                ring_capacity: capacity,
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Records one transaction timeline into the calling thread's ring.
    pub fn record(&self, t: &Timeline) {
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.shared.id) {
                ring.push(t);
                return;
            }
            let ring = Arc::new(Ring::new(self.shared.ring_capacity));
            self.shared.rings.lock().expect("prof ring registry").push(Arc::clone(&ring));
            ring.push(t);
            cache.push((self.shared.id, ring));
        });
    }

    /// Drains every thread's ring: all surviving samples (oldest first
    /// per ring, rings in registration order) plus the total number of
    /// samples the rings overwrote.
    pub fn harvest(&self) -> ProfSamples {
        let rings = self.shared.rings.lock().expect("prof ring registry");
        let mut timelines = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            let (mut t, d) = ring.drain();
            timelines.append(&mut t);
            dropped += d;
        }
        ProfSamples { timelines, dropped }
    }
}

/// Everything a [`Profiler::harvest`] recovered.
#[derive(Debug, Clone, Default)]
pub struct ProfSamples {
    /// Every surviving sample.
    pub timelines: Vec<Timeline>,
    /// Samples lost to ring overwrites.
    pub dropped: u64,
}

/// Runs `f` with `p` installed as the calling thread's profiler; code
/// that captures [`installed`] during `f` (engine construction, the
/// load driver) records into it. Restores the previous installation on
/// exit, so sessions nest.
pub fn with_profiler<R>(p: &Profiler, f: impl FnOnce() -> R) -> R {
    let prev = INSTALLED.with(|i| i.borrow_mut().replace(p.clone()));
    let out = f();
    INSTALLED.with(|i| *i.borrow_mut() = prev);
    out
}

/// The profiler installed on this thread, if any. Captured once at
/// construction by instrumented components (the `mcv-trace`
/// `installed()` pattern), so worker threads they spawn inherit the
/// capture without touching the thread-local.
pub fn installed() -> Option<Profiler> {
    INSTALLED.with(|i| i.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    #[test]
    fn record_and_harvest_round_trip() {
        let p = Profiler::new();
        let mut t = Timeline::new(3);
        t.total_ns = 500;
        t.add(Phase::LockWait, 120);
        p.record(&t);
        let s = p.harvest();
        assert_eq!(s.timelines, vec![t]);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_dropped() {
        let p = Profiler::with_ring_capacity(4);
        for txn in 1..=10u64 {
            p.record(&Timeline::new(txn));
        }
        let s = p.harvest();
        assert_eq!(s.dropped, 6);
        let txns: Vec<u64> = s.timelines.iter().map(|t| t.txn).collect();
        assert_eq!(txns, vec![7, 8, 9, 10], "oldest-first surviving window");
    }

    #[test]
    fn each_thread_gets_its_own_ring() {
        let p = Profiler::new();
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let p = p.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        p.record(&Timeline::new(w * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        let s = p.harvest();
        assert_eq!(s.timelines.len(), 400);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn install_is_scoped_and_nests() {
        assert!(installed().is_none());
        let outer = Profiler::new();
        let inner = Profiler::new();
        with_profiler(&outer, || {
            let seen = installed().expect("outer installed");
            seen.record(&Timeline::new(1));
            with_profiler(&inner, || {
                installed().expect("inner installed").record(&Timeline::new(2));
            });
            installed().expect("outer restored").record(&Timeline::new(3));
        });
        assert!(installed().is_none());
        let outer_txns: Vec<u64> = outer.harvest().timelines.iter().map(|t| t.txn).collect();
        assert_eq!(outer_txns, vec![1, 3]);
        let inner_txns: Vec<u64> = inner.harvest().timelines.iter().map(|t| t.txn).collect();
        assert_eq!(inner_txns, vec![2]);
    }

    #[test]
    fn distinct_profilers_do_not_share_thread_rings() {
        let a = Profiler::new();
        let b = Profiler::new();
        a.record(&Timeline::new(1));
        b.record(&Timeline::new(2));
        a.record(&Timeline::new(3));
        assert_eq!(a.harvest().timelines.len(), 2);
        assert_eq!(b.harvest().timelines.len(), 1);
    }
}
