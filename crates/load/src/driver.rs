//! The wall-clock open-loop driver: paces a deterministic
//! [`ArrivalSchedule`] against a cluster of live engines through the
//! non-blocking `Pool::try_submit` admission path.
//!
//! Unlike the closed-loop `mcv_engine::run_driver` (N clients, fixed
//! quota, next transaction starts when the last finishes), arrivals
//! here do not wait for capacity: when the bounded queue is full the
//! transaction is *shed* under an explicit policy — dropped, or
//! retried after capped exponential backoff — and every transaction
//! carries a deadline budget measured from its arrival instant, so
//! queueing delay counts against it. A worker executes a transaction
//! and leaves its commit with the engine (`Txn::commit_then`): the
//! completion runs when the record is durable, by which time the
//! worker is on its next job, and admission bounds what is in flight
//! rather than what is queued. Crash plans drop an engine
//! mid-run (its WAL image frozen at the crash instant), rebuild it by
//! rollback recovery, and the report measures the recovery-time SLO:
//! wall time from the crash until windowed p99 latency is back under
//! target.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcv_engine::{latency_histogram, Engine, EngineConfig, EngineError};
use mcv_obs::{Histogram, MetricsSnapshot};
use mcv_prof::{TelemetryConfig, TelemetrySnapshot, TelemetryStream};
use mcv_txn::TxnId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::arrivals::{Arrival, ArrivalSchedule, LoadProfile, Ownership};

/// What happens to a transaction the admission gate rejects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Reject outright: the arrival terminates as `dropped`.
    Drop,
    /// Reject with retry-after: the client resubmits after capped
    /// exponential backoff, until its deadline budget runs out.
    RetryAfter {
        /// First backoff step (µs); doubles per attempt.
        base_us: u64,
        /// Backoff ceiling (µs).
        cap_us: u64,
    },
}

/// Capped exponential backoff with deterministic jitter: attempt `a`
/// waits `min(base << a, cap)` plus a hash-of-seed jitter in
/// `[0, base)`. Pure, so the admission simulator replays the live
/// driver's exact schedule.
pub fn backoff_us(base_us: u64, cap_us: u64, attempt: u32, seed: u64) -> u64 {
    let exp = base_us.saturating_mul(1u64 << attempt.min(16)).min(cap_us.max(base_us));
    let h = (seed ^ ((attempt as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95)))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    exp + (h >> 33) % base_us.max(1)
}

/// The latency histogram every load run records into — the engine's
/// 50µs..16s decade bounds, so percentiles from open- and closed-loop
/// runs are comparable.
pub fn load_latency_histogram() -> Histogram {
    latency_histogram()
}

/// The transaction mix an open-loop session submits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoadWorkload {
    /// Reads and writes inside the session's key window.
    ReadWrite {
        /// Percentage of ops that write.
        write_pct: u8,
        /// Operations per transaction.
        ops_per_txn: usize,
    },
    /// Balance transfers between two of the session's accounts —
    /// engine-local, so the bank-sum oracle holds per engine and
    /// across the cluster.
    Bank,
}

/// Crash one engine mid-run and bring it back by rollback recovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Index of the engine to crash.
    pub engine: usize,
    /// Virtual crash instant (µs from run start).
    pub at_us: u64,
    /// Detection + restart delay before recovery replay begins.
    pub restart_after_us: u64,
}

/// Everything one open-loop run needs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The arrival process, population, and seed.
    pub profile: LoadProfile,
    /// Per-engine configuration.
    pub engine: EngineConfig,
    /// Independent engines (crash-fault domains); sessions are
    /// partitioned across them.
    pub engines: usize,
    /// Keyspace size per engine.
    pub items_per_engine: usize,
    /// Width of one session's key window.
    pub session_span: usize,
    /// The transaction mix.
    pub workload: LoadWorkload,
    /// Worker threads shared by all engines.
    pub workers: usize,
    /// Bounded admission-queue capacity (`Pool::try_submit` sheds
    /// beyond it).
    pub queue_cap: usize,
    /// Shedding policy.
    pub policy: ShedPolicy,
    /// Per-transaction budget from arrival (µs).
    pub deadline_us: u64,
    /// The p99 SLO target used for recovery-time measurement (µs).
    pub p99_target_us: u64,
    /// Window width for the post-hoc p99-over-time curve (µs).
    pub p99_window_us: u64,
    /// Optional mid-run shard crash.
    pub crash: Option<CrashPlan>,
    /// Live-telemetry window in *virtual* microseconds (0 = telemetry
    /// off). Windows are keyed by scheduled arrival time, so the
    /// stream's shape is a function of the seed alone.
    pub telemetry_window_us: u64,
    /// Stream each completed telemetry window to stderr as a JSONL
    /// line while the run is live (needs `telemetry_window_us > 0`).
    pub telemetry_live: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            profile: LoadProfile::default(),
            engine: EngineConfig::default(),
            engines: 1,
            items_per_engine: 256,
            session_span: 8,
            workload: LoadWorkload::ReadWrite { write_pct: 20, ops_per_txn: 4 },
            workers: 4,
            queue_cap: 64,
            policy: ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 },
            deadline_us: 100_000,
            p99_target_us: 20_000,
            p99_window_us: 40_000,
            crash: None,
            telemetry_window_us: 0,
            telemetry_live: false,
        }
    }
}

/// Initial balance per bank account (matches the closed-loop driver).
pub const BANK_INITIAL_BALANCE: i64 = 100;

fn item_name(i: usize) -> String {
    format!("item{i:05}")
}

struct Slot {
    engine: Engine,
    up: bool,
}

#[derive(Default)]
struct Tally {
    accepted: AtomicU64,
    shed: AtomicU64,
    unavailable: AtomicU64,
    retried: AtomicU64,
    dropped: AtomicU64,
    deadline_missed: AtomicU64,
    crash_lost: AtomicU64,
    committed: AtomicU64,
    goodput: AtomicU64,
    /// Highest `in_flight` the pacer ever reached.
    peak_in_flight: AtomicU64,
}

/// `(due_us, seq, arrival_idx, attempt)` — min-heap order on due time,
/// seq breaking ties so the drain order is deterministic.
type RetryEntry = (u64, u64, usize, u32);

struct Shared {
    slots: Vec<Mutex<Slot>>,
    /// Bumped at each crash; completions from an older generation are
    /// client-visible failures (the node that acknowledged them died).
    gens: Vec<AtomicU64>,
    start: Instant,
    own: Ownership,
    workload: LoadWorkload,
    policy: ShedPolicy,
    deadline_us: u64,
    latency: Mutex<Histogram>,
    /// `(completion_us, latency_us)` per commit, for windowed p99.
    completions: Mutex<Vec<(u64, u64)>>,
    retry_q: Mutex<BinaryHeap<Reverse<RetryEntry>>>,
    retry_seq: AtomicU64,
    /// Accepted attempts not yet resolved: queued, executing, or
    /// committed and waiting for the log device.
    in_flight: AtomicU64,
    /// `queue_cap + workers`, the most `in_flight` may reach. A worker
    /// does not wait for the device, so the queue alone no longer
    /// bounds accepted work when the device stalls; this is the bound
    /// it gave when each worker held its transaction to the end.
    max_in_flight: u64,
    n: Tally,
    /// Phase profiler captured at run entry; committed arrivals record
    /// their arrival-to-resolution anchor plus admission-queue dwell,
    /// which the attribution join merges with the engine's own phases
    /// for the same transaction id.
    prof: Option<mcv_prof::Profiler>,
    /// Windowed live telemetry (when configured).
    telemetry: Option<Mutex<TelemetryStream>>,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Schedules a retry for `idx` (attempt `attempt` just failed) or
    /// abandons it when backoff would land past the deadline.
    fn schedule_retry(&self, idx: usize, attempt: u32, arrival: Arrival) {
        let now = self.now_us();
        let (base_us, cap_us) = match self.policy {
            ShedPolicy::RetryAfter { base_us, cap_us } => (base_us, cap_us),
            // Drop policy never retries; abort-retries still use a
            // small default backoff so deadlock victims back off.
            ShedPolicy::Drop => (500, 8_000),
        };
        let due = now + backoff_us(base_us, cap_us, attempt, arrival.spec_seed);
        if due >= arrival.at_us + self.deadline_us {
            self.n.deadline_missed.fetch_add(1, Ordering::Relaxed);
            self.observe_abandoned(&arrival);
            return;
        }
        self.n.retried.fetch_add(1, Ordering::Relaxed);
        let seq = self.retry_seq.fetch_add(1, Ordering::Relaxed);
        self.retry_q.lock().expect("retry queue").push(Reverse((due, seq, idx, attempt + 1)));
    }

    /// One shed admission attempt: counted, then dropped or retried as
    /// the policy says.
    fn shed(&self, idx: usize, attempt: u32, arrival: Arrival) {
        self.n.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.lock().expect("telemetry").observe_shed(arrival.at_us);
        }
        match self.policy {
            ShedPolicy::Drop => {
                self.n.dropped.fetch_add(1, Ordering::Relaxed);
                self.observe_resolved(&arrival);
            }
            ShedPolicy::RetryAfter { .. } => self.schedule_retry(idx, attempt, arrival),
        }
    }

    /// Telemetry hook for an arrival abandoned short of commit
    /// (terminal: releases the arrival's window).
    fn observe_abandoned(&self, arrival: &Arrival) {
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.lock().expect("telemetry");
            tel.observe_abort(arrival.at_us);
            tel.observe_resolved(arrival.at_us);
        }
    }

    /// Telemetry hook for any other terminal resolution (drop, crash
    /// loss): the arrival's window stops waiting on it.
    fn observe_resolved(&self, arrival: &Arrival) {
        if let Some(tel) = &self.telemetry {
            tel.lock().expect("telemetry").observe_resolved(arrival.at_us);
        }
    }

    /// Terminal or retry resolution of one executed attempt.
    /// `queue_ns` is how long the accepted job sat in the admission
    /// queue before a worker picked it up.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &self,
        idx: usize,
        attempt: u32,
        arrival: Arrival,
        slot_idx: usize,
        gen: u64,
        queue_ns: u64,
        result: Result<TxnId, EngineError>,
    ) {
        match result {
            Ok(txn) => {
                if self.gens[slot_idx].load(Ordering::Acquire) != gen {
                    // Committed on a generation that has since crashed:
                    // the ack raced the crash, the client saw a failure.
                    self.n.crash_lost.fetch_add(1, Ordering::Relaxed);
                    self.observe_resolved(&arrival);
                } else {
                    let now = self.now_us();
                    let lat = now.saturating_sub(arrival.at_us);
                    self.n.committed.fetch_add(1, Ordering::Relaxed);
                    if lat <= self.deadline_us {
                        self.n.goodput.fetch_add(1, Ordering::Relaxed);
                    }
                    self.latency.lock().expect("latency").record(lat);
                    self.completions.lock().expect("completions").push((now, lat));
                    // The driver owns the arrival-to-resolution anchor;
                    // the engine separately recorded its phases under
                    // the same txn id, and the attribution join merges
                    // the two (largest total wins the anchor).
                    let lat_ns = lat.saturating_mul(1_000);
                    let tl = self.prof.as_ref().map(|p| {
                        let mut tl = mcv_prof::Timeline::new(txn.0);
                        tl.total_ns = lat_ns;
                        tl.add(mcv_prof::Phase::AdmitQueue, queue_ns);
                        p.record(&tl);
                        tl
                    });
                    if let Some(tel) = &self.telemetry {
                        let mut tel = tel.lock().expect("telemetry");
                        tel.observe_commit(arrival.at_us, lat_ns, tl.as_ref());
                        tel.observe_resolved(arrival.at_us);
                    }
                }
            }
            Err(EngineError::Deadlock { .. } | EngineError::Certification { .. }) => {
                self.schedule_retry(idx, attempt, arrival);
            }
            Err(e) => panic!("load transaction failed: {e}"),
        }
        self.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// Executes one transaction spec on its session's engine. The spec is
/// a pure function of `(session, seed)`, so retries replay it exactly.
/// The outcome goes to `done` — an abort at once, a commit when its
/// record is durable, by which time this call has long returned and
/// the worker is on its next job. A commit carries the engine
/// transaction id so the driver's arrival-to-resolution timeline joins
/// the engine's phase sample.
fn attempt_txn(
    engine: &Engine,
    own: Ownership,
    workload: LoadWorkload,
    session: u64,
    seed: u64,
    done: impl FnOnce(Result<TxnId, EngineError>) + Send + 'static,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = engine.begin();
    let id = t.id();
    let executed = match workload {
        LoadWorkload::ReadWrite { write_pct, ops_per_txn } => (0..ops_per_txn).try_for_each(|_| {
            let name = item_name(own.key(session, rng.gen_range(0..own.span.max(1))));
            if rng.gen_range(0..100u8) < write_pct {
                t.write(&name, rng.gen_range(0..1_000_000i64))
            } else {
                t.read(&name).map(drop)
            }
        }),
        LoadWorkload::Bank => {
            let a = own.key(session, rng.gen_range(0..own.span.max(1)));
            let mut b = own.key(session, rng.gen_range(0..own.span.max(1)));
            if b == a {
                b = (a + 1) % own.items_per_engine;
            }
            let amount = rng.gen_range(1..=10i64);
            let (na, nb) = (item_name(a), item_name(b));
            (|| {
                let va = t.read(&na)?;
                let vb = t.read(&nb)?;
                t.write(&na, va - amount)?;
                t.write(&nb, vb + amount)
            })()
        }
    };
    match executed {
        Ok(()) => t.commit_then(move |r| done(r.map(|()| id))),
        Err(e) => {
            t.abort();
            done(Err(e));
        }
    }
}

/// What one open-loop run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Arrivals in the schedule.
    pub arrivals: u64,
    /// try-submit successes (events; retries count again).
    pub accepted: u64,
    /// Shed events (full queue + down engine).
    pub shed: u64,
    /// Shed events caused by a crashed (down) engine.
    pub unavailable: u64,
    /// Retries scheduled (shed + aborted transactions).
    pub retried: u64,
    /// Arrivals terminally dropped by the `Drop` policy.
    pub dropped: u64,
    /// Arrivals abandoned on deadline exhaustion.
    pub deadline_missed: u64,
    /// Commits acknowledged by a generation that crashed before the
    /// client observed them.
    pub crash_lost: u64,
    /// Client-observed commits.
    pub committed: u64,
    /// Commits within their deadline budget.
    pub goodput: u64,
    /// Arrivals still unresolved when the drain cap fired (0 on a
    /// clean run).
    pub unresolved: u64,
    /// Wall time of the whole run.
    pub elapsed_ns: u64,
    /// The profile's virtual duration (µs) — the denominator for
    /// offered/goodput rates.
    pub duration_us: u64,
    /// Arrival-to-commit latency (µs), queueing and retries included.
    pub latency_us: Histogram,
    /// `(completion_us, latency_us)` per commit, completion-ordered.
    pub completions: Vec<(u64, u64)>,
    /// Conflict-serializability verdict over every engine's sampled
    /// history.
    pub serializable: bool,
    /// WAL-replay equivalence verdict over every engine.
    pub recovered_matches: bool,
    /// Bank-sum conservation across the cluster (bank workload only).
    pub bank_invariant_ok: Option<bool>,
    /// Crash instant, when a crash plan ran.
    pub crash_at_us: Option<u64>,
    /// Instant the recovered engine was back up.
    pub recovered_at_us: Option<u64>,
    /// Recovery-time SLO measurement: ms from crash until the first
    /// window whose p99 is back under target. `None` = never within
    /// the run (SLO miss), or no crash planned.
    pub recovery_ms: Option<u64>,
    /// Merged engine counters plus the `engine.admit.*` family and
    /// `wall.load.*` gauges.
    pub metrics: MetricsSnapshot,
    /// Windowed telemetry snapshots, when
    /// [`LoadConfig::telemetry_window_us`] is non-zero. Windows are
    /// keyed by scheduled arrival time, so the sequence of windows and
    /// their arrival counts are deterministic; everything measured
    /// lives in each snapshot's `wall` sub-object.
    pub telemetry: Vec<TelemetrySnapshot>,
}

impl LoadReport {
    /// All correctness oracles green.
    pub fn oracles_ok(&self) -> bool {
        self.serializable && self.recovered_matches && self.bank_invariant_ok.unwrap_or(true)
    }

    /// In-deadline commits per offered second.
    pub fn goodput_tps(&self) -> f64 {
        self.goodput as f64 / (self.duration_us as f64 / 1e6)
    }

    /// Offered arrivals per second.
    pub fn offered_tps(&self) -> f64 {
        self.arrivals as f64 / (self.duration_us as f64 / 1e6)
    }

    /// Windowed p99 curve: `(window_start_us, p99_us)` per window of
    /// the configured width, stepped by a quarter window.
    pub fn p99_curve(&self, window_us: u64) -> Vec<(u64, u64)> {
        p99_curve(&self.completions, window_us)
    }

    /// One-paragraph rendering for the console.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "open-loop: {} arrivals ({:.0} tps offered) -> {} committed, goodput {} ({:.0} tps) \
             | admit: {} accepted, {} shed ({} unavailable), {} retried, {} dropped, \
             {} deadline-missed, {} crash-lost, {} unresolved \
             | latency p50/p99/p999 {}/{}/{} us \
             | oracles: serializable {} recovery {}",
            self.arrivals,
            self.offered_tps(),
            self.committed,
            self.goodput,
            self.goodput_tps(),
            self.accepted,
            self.shed,
            self.unavailable,
            self.retried,
            self.dropped,
            self.deadline_missed,
            self.crash_lost,
            self.unresolved,
            self.latency_us.percentile(50.0),
            self.latency_us.percentile(99.0),
            self.latency_us.percentile(99.9),
            self.serializable,
            self.recovered_matches,
        );
        if let Some(ok) = self.bank_invariant_ok {
            s.push_str(&format!(" bank {ok}"));
        }
        if self.crash_at_us.is_some() {
            match self.recovery_ms {
                Some(ms) => s.push_str(&format!(" | recovery {ms} ms")),
                None => s.push_str(" | recovery NEVER (slo miss)"),
            }
        }
        s
    }
}

/// Exact p99 of a completion-latency slice (sort-based, no histogram
/// estimation — window sample counts are small).
pub fn p99_exact(lats: &[u64]) -> u64 {
    let mut v = lats.to_vec();
    v.sort_unstable();
    let rank = ((v.len() as f64 * 0.99).ceil() as usize).max(1);
    v[rank - 1]
}

/// Windowed p99 curve over `(completion_us, latency_us)` samples.
pub fn p99_curve(completions: &[(u64, u64)], window_us: u64) -> Vec<(u64, u64)> {
    let window_us = window_us.max(1);
    let mut sorted = completions.to_vec();
    sorted.sort_unstable();
    let Some(&(last, _)) = sorted.last() else { return Vec::new() };
    let step = (window_us / 4).max(1);
    let mut out = Vec::new();
    let mut w = 0u64;
    while w <= last {
        let lats: Vec<u64> = sorted
            .iter()
            .filter(|(t, _)| (w..w + window_us).contains(t))
            .map(|&(_, l)| l)
            .collect();
        if !lats.is_empty() {
            out.push((w, p99_exact(&lats)));
        }
        w += step;
    }
    out
}

/// First window at/after `from_us` whose p99 is under `target_us`;
/// returns the window's *end* instant.
fn first_healthy_window(
    completions: &[(u64, u64)],
    from_us: u64,
    window_us: u64,
    target_us: u64,
) -> Option<u64> {
    let mut sorted = completions.to_vec();
    sorted.sort_unstable();
    let last = sorted.last()?.0;
    let step = (window_us / 4).max(1);
    let mut w = from_us;
    while w <= last {
        let lats: Vec<u64> = sorted
            .iter()
            .filter(|(t, _)| (w..w + window_us).contains(t))
            .map(|&(_, l)| l)
            .collect();
        if !lats.is_empty() && p99_exact(&lats) <= target_us {
            return Some(w + window_us);
        }
        w += step;
    }
    None
}

/// Generates the schedule from `cfg.profile` and runs it.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    run_load_with_schedule(cfg, &ArrivalSchedule::generate(&cfg.profile))
}

/// Runs a prebuilt schedule (campaign loops reuse the zipfian zeta by
/// generating schedules with [`ArrivalSchedule::generate_with`]).
pub fn run_load_with_schedule(cfg: &LoadConfig, schedule: &ArrivalSchedule) -> LoadReport {
    assert!(cfg.engines > 0, "load needs at least one engine");
    assert!(cfg.items_per_engine >= 2, "load needs at least two items per engine");
    if let Some(plan) = &cfg.crash {
        assert!(plan.engine < cfg.engines, "crash plan names a missing engine");
    }
    let own = Ownership {
        engines: cfg.engines,
        items_per_engine: cfg.items_per_engine,
        span: cfg.session_span.max(1),
    };
    let bank = matches!(cfg.workload, LoadWorkload::Bank);

    let mut slots = Vec::with_capacity(cfg.engines);
    for _ in 0..cfg.engines {
        let engine = Engine::new(cfg.engine.clone());
        if bank {
            for chunk in (0..cfg.items_per_engine).collect::<Vec<_>>().chunks(256) {
                let mut t = engine.begin();
                for &i in chunk {
                    t.write(&item_name(i), BANK_INITIAL_BALANCE).expect("setup write");
                }
                t.commit().expect("setup commit");
            }
        }
        slots.push(Mutex::new(Slot { engine, up: true }));
    }

    let shared = Arc::new(Shared {
        slots,
        gens: (0..cfg.engines).map(|_| AtomicU64::new(0)).collect(),
        start: Instant::now(),
        own,
        workload: cfg.workload,
        policy: cfg.policy,
        deadline_us: cfg.deadline_us,
        latency: Mutex::new(load_latency_histogram()),
        completions: Mutex::new(Vec::new()),
        retry_q: Mutex::new(BinaryHeap::new()),
        retry_seq: AtomicU64::new(0),
        in_flight: AtomicU64::new(0),
        max_in_flight: (cfg.queue_cap + cfg.workers) as u64,
        n: Tally::default(),
        prof: mcv_prof::installed(),
        telemetry: (cfg.telemetry_window_us > 0).then(|| {
            Mutex::new(TelemetryStream::new(TelemetryConfig { window_us: cfg.telemetry_window_us }))
        }),
    });
    let pool = mcv_engine::Pool::new(cfg.workers, cfg.queue_cap);
    let arrivals = &schedule.arrivals;

    // Chaos bookkeeping (pacer-local).
    let mut crash_image: Option<Vec<u8>> = None;
    let mut crash_fired = false;
    let mut restart_spawned = false;
    let mut crash_at_actual: Option<u64> = None;
    let recovered_at = Arc::new(AtomicU64::new(0));
    let mut recovery_handle: Option<std::thread::JoinHandle<()>> = None;

    let hard_cap_us = cfg.profile.duration_us
        + cfg.deadline_us
        + cfg.crash.map(|p| p.at_us + p.restart_after_us + 1_000_000).unwrap_or(0)
        + 2_000_000;

    let mut ptr = 0usize;
    let mut telemetry_out: Vec<TelemetrySnapshot> = Vec::new();
    loop {
        let now = shared.now_us();

        // Chaos events first: they gate availability for everything
        // dispatched at this instant.
        if let Some(plan) = cfg.crash {
            if !crash_fired && now >= plan.at_us {
                let mut slot = shared.slots[plan.engine].lock().expect("slot");
                // Freeze the durable image at the crash instant —
                // in-flight commits acknowledged after this point died
                // with the node (counted `crash_lost`).
                crash_image = Some(slot.engine.durable_image());
                slot.up = false;
                shared.gens[plan.engine].fetch_add(1, Ordering::Release);
                crash_at_actual = Some(now);
                crash_fired = true;
            }
            if crash_fired && !restart_spawned && now >= plan.at_us + plan.restart_after_us {
                let image = crash_image.take().expect("crash image");
                let sh = Arc::clone(&shared);
                let engine_cfg = cfg.engine.clone();
                let rec_at = Arc::clone(&recovered_at);
                let idx = plan.engine;
                recovery_handle = Some(std::thread::spawn(move || {
                    // Rollback recovery: replay the committed prefix of
                    // the crash image into a fresh engine. The replay
                    // is real work — its wall time is part of the
                    // measured recovery window.
                    let recovered = mcv_txn::Wal::recover_bytes(&image);
                    let fresh = Engine::new(engine_cfg);
                    let entries: Vec<_> = recovered.into_iter().collect();
                    for chunk in entries.chunks(256) {
                        let mut t = fresh.begin();
                        for (k, v) in chunk {
                            t.write(k, *v).expect("replay write");
                        }
                        t.commit().expect("replay commit");
                    }
                    let mut slot = sh.slots[idx].lock().expect("slot");
                    slot.engine = fresh;
                    slot.up = true;
                    drop(slot);
                    rec_at.store(sh.now_us().max(1), Ordering::Release);
                }));
                restart_spawned = true;
            }
        }

        // Due retries.
        loop {
            let item = {
                let mut q = shared.retry_q.lock().expect("retry queue");
                match q.peek() {
                    Some(&Reverse((due, _, _, _))) if due <= now => q.pop(),
                    _ => None,
                }
            };
            match item {
                Some(Reverse((_, _, idx, attempt))) => {
                    dispatch(&shared, &pool, arrivals, idx, attempt)
                }
                None => break,
            }
        }

        // Due arrivals.
        while ptr < arrivals.len() && arrivals[ptr].at_us <= now {
            dispatch(&shared, &pool, arrivals, ptr, 0);
            ptr += 1;
        }

        // Emit telemetry windows whose virtual span is fully behind us.
        // After the dispatch loops, so no arrival at or before `now`
        // can still be heading for a window this drain closes. The
        // watermark is capped at the schedule's end: while the tail of
        // the run drains, wall time keeps advancing past the last
        // scheduled arrival, and uncapped it would mint empty trailing
        // windows whose count depends on how long the tail took.
        if let Some(tel) = &shared.telemetry {
            let ready =
                tel.lock().expect("telemetry").drain_complete(now.min(cfg.profile.duration_us));
            if cfg.telemetry_live && !ready.is_empty() {
                eprint!("{}", mcv_prof::telemetry_jsonl(&ready));
            }
            telemetry_out.extend(ready);
        }

        // Termination: every arrival resolved and chaos fully played.
        let retries_pending = !shared.retry_q.lock().expect("retry queue").is_empty();
        let chaos_done = match cfg.crash {
            None => true,
            Some(_) => restart_spawned && recovered_at.load(Ordering::Acquire) != 0,
        };
        if ptr == arrivals.len()
            && !retries_pending
            && shared.in_flight.load(Ordering::Acquire) == 0
            && chaos_done
        {
            break;
        }
        if now > hard_cap_us {
            break;
        }

        // Sleep until the next known event, capped so retries pushed
        // by workers are picked up promptly.
        let next_due = [
            (ptr < arrivals.len()).then(|| arrivals[ptr].at_us),
            shared.retry_q.lock().expect("retry queue").peek().map(|&Reverse((d, ..))| d),
            cfg.crash.and_then(|p| {
                if !crash_fired {
                    Some(p.at_us)
                } else if !restart_spawned {
                    Some(p.at_us + p.restart_after_us)
                } else {
                    None
                }
            }),
        ]
        .into_iter()
        .flatten()
        .min();
        let wait = next_due.map(|d| d.saturating_sub(now)).unwrap_or(200).clamp(20, 200);
        std::thread::sleep(Duration::from_micros(wait));
    }

    pool.join();
    if let Some(h) = recovery_handle {
        h.join().expect("recovery thread");
    }
    if let Some(tel) = &shared.telemetry {
        let rest = tel.lock().expect("telemetry").finish();
        if cfg.telemetry_live && !rest.is_empty() {
            eprint!("{}", mcv_prof::telemetry_jsonl(&rest));
        }
        telemetry_out.extend(rest);
    }
    let elapsed_ns = shared.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    // Oracles, per engine, on the quiesced cluster.
    let mut serializable = true;
    let mut recovered_matches = true;
    let mut bank_total = 0i64;
    let mut metrics = MetricsSnapshot::default();
    for slot in &shared.slots {
        let slot = slot.lock().expect("slot");
        let engine = &slot.engine;
        serializable &= engine.sampled_history().is_conflict_serializable();
        let recovered = mcv_txn::Wal::recover_bytes(&engine.durable_image());
        recovered_matches &= recovered == engine.state();
        if bank {
            bank_total += (0..cfg.items_per_engine)
                .map(|i| recovered.get(&item_name(i)).copied().unwrap_or(0))
                .sum::<i64>();
        }
        for (k, v) in engine.metrics_snapshot().counters {
            *metrics.counters.entry(k).or_insert(0) += v;
        }
    }
    let bank_invariant_ok = bank
        .then(|| bank_total == BANK_INITIAL_BALANCE * (cfg.items_per_engine * cfg.engines) as i64);

    let n = &shared.n;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let (committed, goodput) = (load(&n.committed), load(&n.goodput));
    let (dropped, deadline_missed, crash_lost) =
        (load(&n.dropped), load(&n.deadline_missed), load(&n.crash_lost));
    let resolved = committed + dropped + deadline_missed + crash_lost;
    let unresolved = (arrivals.len() as u64).saturating_sub(resolved);

    let mut completions = shared.completions.lock().expect("completions").clone();
    completions.sort_unstable();
    let latency = shared.latency.lock().expect("latency").clone();

    let recovered_at_us = match recovered_at.load(Ordering::Acquire) {
        0 => None,
        t => Some(t),
    };
    let recovery_ms = crash_at_actual.and_then(|crash| {
        let from = recovered_at_us.unwrap_or(crash).max(crash);
        first_healthy_window(&completions, from, cfg.p99_window_us, cfg.p99_target_us)
            .map(|healthy_end| (healthy_end.saturating_sub(crash)) / 1_000)
    });

    let c = &mut metrics.counters;
    c.insert("engine.admit.accepted".into(), load(&n.accepted));
    c.insert("engine.admit.shed".into(), load(&n.shed));
    c.insert("engine.admit.unavailable".into(), load(&n.unavailable));
    c.insert("engine.admit.retried".into(), load(&n.retried));
    c.insert("engine.admit.dropped".into(), dropped);
    c.insert("engine.admit.deadline_missed".into(), deadline_missed);
    c.insert("engine.admit.crash_lost".into(), crash_lost);
    c.insert("engine.admit.peak_in_flight".into(), load(&n.peak_in_flight));
    c.insert("load.arrivals".into(), arrivals.len() as u64);
    metrics.histograms.insert("wall.load.latency_us".into(), latency.clone());
    let g = &mut metrics.gauges;
    g.insert(
        "wall.load.goodput_tps".into(),
        goodput as f64 / (cfg.profile.duration_us as f64 / 1e6),
    );
    g.insert("wall.load.p50_us".into(), latency.percentile(50.0) as f64);
    g.insert("wall.load.p99_us".into(), latency.percentile(99.0) as f64);
    g.insert("wall.load.p999_us".into(), latency.percentile(99.9) as f64);
    if let Some(ms) = recovery_ms {
        g.insert("wall.load.recovery_ms".into(), ms as f64);
    }

    LoadReport {
        arrivals: arrivals.len() as u64,
        accepted: load(&n.accepted),
        shed: load(&n.shed),
        unavailable: load(&n.unavailable),
        retried: load(&n.retried),
        dropped,
        deadline_missed,
        crash_lost,
        committed,
        goodput,
        unresolved,
        elapsed_ns,
        duration_us: cfg.profile.duration_us,
        latency_us: latency,
        completions,
        serializable,
        recovered_matches,
        bank_invariant_ok,
        crash_at_us: crash_at_actual,
        recovered_at_us,
        recovery_ms,
        metrics,
        telemetry: telemetry_out,
    }
}

/// One admission attempt for `arrivals[idx]` (attempt number
/// `attempt`); pacer-side.
fn dispatch(
    shared: &Arc<Shared>,
    pool: &mcv_engine::Pool,
    arrivals: &[Arrival],
    idx: usize,
    attempt: u32,
) {
    let arrival = arrivals[idx];
    if attempt == 0 {
        // Each arrival is observed exactly once, keyed by its
        // scheduled (virtual) time — the deterministic part of a
        // telemetry window.
        if let Some(tel) = &shared.telemetry {
            tel.lock().expect("telemetry").observe_arrival(arrival.at_us);
        }
    }
    let now = shared.now_us();
    if now >= arrival.at_us + shared.deadline_us {
        shared.n.deadline_missed.fetch_add(1, Ordering::Relaxed);
        shared.observe_abandoned(&arrival);
        return;
    }
    let slot_idx = shared.own.engine_of(arrival.session);
    let (engine, up) = {
        let slot = shared.slots[slot_idx].lock().expect("slot");
        (slot.engine.clone(), slot.up)
    };
    let gen = shared.gens[slot_idx].load(Ordering::Acquire);
    if !up {
        shared.n.unavailable.fetch_add(1, Ordering::Relaxed);
        return shared.shed(idx, attempt, arrival);
    }
    // Only this thread raises `in_flight`, so the check holds the bound.
    if shared.in_flight.load(Ordering::Acquire) >= shared.max_in_flight {
        return shared.shed(idx, attempt, arrival);
    }
    let in_flight = shared.in_flight.fetch_add(1, Ordering::Acquire) + 1;
    shared.n.peak_in_flight.fetch_max(in_flight, Ordering::Relaxed);
    let sh = Arc::clone(shared);
    let submitted = Instant::now();
    let job = move || {
        let queue_ns = submitted.elapsed().as_nanos() as u64;
        let (own, workload) = (sh.own, sh.workload);
        attempt_txn(&engine, own, workload, arrival.session, arrival.spec_seed, move |result| {
            sh.complete(idx, attempt, arrival, slot_idx, gen, queue_ns, result)
        });
    };
    match pool.try_submit(job) {
        Ok(()) => {
            shared.n.accepted.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            shared.in_flight.fetch_sub(1, Ordering::Release);
            shared.shed(idx, attempt, arrival);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;

    fn quick_cfg() -> LoadConfig {
        LoadConfig {
            profile: LoadProfile {
                process: ArrivalProcess::Poisson { rate_tps: 2_000.0 },
                duration_us: 120_000,
                sessions: 50_000,
                session_theta: 0.8,
                seed: 21,
            },
            items_per_engine: 128,
            ..Default::default()
        }
    }

    #[test]
    fn underload_run_commits_everything_within_deadline() {
        let report = run_load(&quick_cfg());
        assert!(report.arrivals > 0);
        assert_eq!(report.unresolved, 0, "{}", report.summary());
        assert_eq!(report.committed, report.arrivals, "{}", report.summary());
        assert!(report.oracles_ok(), "{}", report.summary());
        assert_eq!(report.metrics.counter("load.arrivals"), report.arrivals);
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        // Throttle service hard (2ms per force, no group commit) so 4
        // workers cap out near 2k tps, then offer 10k.
        let mut cfg = quick_cfg();
        cfg.engine =
            EngineConfig { group_commit: false, force_latency_us: 2_000, ..Default::default() };
        cfg.profile.process = ArrivalProcess::Poisson { rate_tps: 10_000.0 };
        cfg.queue_cap = 16;
        cfg.deadline_us = 50_000;
        let report = run_load(&cfg);
        assert!(report.shed > 0, "{}", report.summary());
        assert!(report.committed > 0, "{}", report.summary());
        assert_eq!(report.unresolved, 0, "{}", report.summary());
        assert!(report.oracles_ok(), "{}", report.summary());
        // Conservation: every arrival resolved exactly once.
        assert_eq!(
            report.committed + report.dropped + report.deadline_missed + report.crash_lost,
            report.arrivals
        );
    }

    #[test]
    fn drop_policy_never_retries_sheds() {
        let mut cfg = quick_cfg();
        cfg.engine =
            EngineConfig { group_commit: false, force_latency_us: 2_000, ..Default::default() };
        cfg.profile.process = ArrivalProcess::Poisson { rate_tps: 8_000.0 };
        cfg.queue_cap = 8;
        cfg.policy = ShedPolicy::Drop;
        let report = run_load(&cfg);
        assert!(report.shed > 0);
        assert_eq!(report.dropped, report.shed, "every shed is terminal under Drop");
        assert!(report.oracles_ok(), "{}", report.summary());
    }

    #[test]
    fn crash_mid_run_recovers_and_keeps_the_bank_invariant() {
        let mut cfg = quick_cfg();
        cfg.engines = 2;
        cfg.workload = LoadWorkload::Bank;
        cfg.profile.duration_us = 150_000;
        cfg.crash = Some(CrashPlan { engine: 1, at_us: 50_000, restart_after_us: 30_000 });
        let report = run_load(&cfg);
        assert!(report.crash_at_us.is_some());
        assert!(report.recovered_at_us.is_some(), "recovery must complete");
        assert!(report.oracles_ok(), "{}", report.summary());
        assert_eq!(report.bank_invariant_ok, Some(true), "{}", report.summary());
        assert!(report.shed > 0, "a crashed engine must shed its arrivals");
        assert_eq!(report.unresolved, 0, "{}", report.summary());
    }

    /// With a slow device commits are still staged when the crash
    /// fires: their acknowledgements, run by the old engine's log
    /// writer, own its last handles once the slot is swapped.
    #[test]
    fn crash_mid_run_with_commits_staged_resolves_every_arrival() {
        let mut cfg = quick_cfg();
        cfg.engines = 2;
        cfg.workload = LoadWorkload::Bank;
        cfg.engine.force_latency_us = 2_000;
        cfg.profile.duration_us = 150_000;
        cfg.crash = Some(CrashPlan { engine: 1, at_us: 50_000, restart_after_us: 30_000 });
        let report = run_load(&cfg);
        assert!(report.recovered_at_us.is_some(), "recovery must complete");
        assert_eq!(report.unresolved, 0, "{}", report.summary());
        assert!(report.oracles_ok(), "{}", report.summary());
        assert_eq!(report.bank_invariant_ok, Some(true), "{}", report.summary());
        assert_eq!(
            report.committed + report.dropped + report.deadline_missed + report.crash_lost,
            report.arrivals,
            "{}",
            report.summary()
        );
    }

    /// Workers hand their commits to the log writer and move on, so a
    /// stalled device would let accepted work pile up past the queue:
    /// admission counts what is unresolved, not what is queued.
    #[test]
    fn a_stalled_device_cannot_push_in_flight_past_queue_plus_workers() {
        let mut cfg = quick_cfg();
        cfg.engine.force_latency_us = 20_000;
        cfg.profile.process = ArrivalProcess::Poisson { rate_tps: 4_000.0 };
        cfg.queue_cap = 4;
        cfg.policy = ShedPolicy::Drop;
        let report = run_load(&cfg);
        let peak = report.metrics.counter("engine.admit.peak_in_flight");
        assert_eq!(peak, (cfg.queue_cap + cfg.workers) as u64, "{}", report.summary());
        assert!(report.shed > 0, "{}", report.summary());
        assert_eq!(report.dropped, report.shed);
        assert_eq!(report.unresolved, 0, "{}", report.summary());
        assert_eq!(report.committed + report.dropped + report.deadline_missed, report.arrivals);
        assert!(report.oracles_ok(), "{}", report.summary());
        // Everything accepted rode a few forces.
        assert_eq!(report.metrics.counter("engine.wal.deferred_acks"), report.committed);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        assert_eq!(backoff_us(1_000, 16_000, 0, 7), backoff_us(1_000, 16_000, 0, 7));
        for a in 0..20 {
            let b = backoff_us(1_000, 16_000, a, 7);
            assert!((1_000..16_000 + 1_000).contains(&b), "attempt {a}: {b}");
        }
    }

    #[test]
    fn p99_helpers_window_correctly() {
        let completions: Vec<(u64, u64)> =
            (0..200u64).map(|i| (i * 1_000, if i < 100 { 50_000 } else { 1_000 })).collect();
        // First half slow, second half fast: a healthy window exists
        // only in the second half.
        let healthy = first_healthy_window(&completions, 0, 20_000, 5_000).expect("heals");
        assert!(healthy > 100_000, "healthy window end {healthy}");
        let curve = p99_curve(&completions, 20_000);
        assert!(!curve.is_empty());
    }
}
