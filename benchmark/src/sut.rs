//! The adapter: every call the benchmark makes into an `mcv-*` crate
//! is in this file, so the public surface the benchmark depends on —
//! and that later changes must keep, since they may not edit the
//! benchmark — is the `use` list below plus the method calls in the
//! functions that follow. `README.md` carries the same list in prose.
//!
//! Functions that time something take their iteration count from the
//! caller and return the elapsed [`Duration`]; choosing counts, taking
//! medians and naming metrics is the caller's job.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcv_blocks::script_runner::{
    csm_script, rbr_script, run_chapter5_scripts, serializability_script,
};
use mcv_blocks::SpecLibrary;
use mcv_commit::{run_scenario, Msg, Protocol, Scenario};
use mcv_core::{colimit, ScriptEngine, ScriptEventKind, ScriptValue};
use mcv_dist::{
    run_pipeline, DistConfig, NodeEvent, PipelineConfig, SimTransport, Transport, TransportConfig,
    GLOBAL_TXN_BASE,
};
pub use mcv_engine::Engine;
use mcv_engine::{EngineConfig, EngineError, IsolationLevel, Pool};
pub use mcv_load::ArrivalSchedule;
use mcv_load::{
    run_load_with_schedule, simulate, ArrivalProcess, LoadConfig, LoadProfile, LoadWorkload,
    ShedPolicy, SimConfig,
};
use mcv_mvcc::MvccStore;
use mcv_obs::Histogram;
use mcv_prof::{Phase, Profiler, Timeline};
pub use mcv_trace::CausalTrace;
use mcv_trace::{EventKind, Recorder};
use mcv_txn::{ForcedWal, LockManager, LockMode, LogRecord, TxnId, Wal, Zipfian};

use crate::spans::Tracer;
use crate::workloads::{DistWorkload, LoadWorkloadParams, TxnSpec, ENGINE_SHARDS, MAX_TRIES};

// ---------------------------------------------------------------- engine

/// How an engine under test is built.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    pub snapshot_isolation: bool,
    pub group_commit: bool,
    /// Record every transaction for the serializability oracle
    /// (correctness repetition only; off for timed repetitions).
    pub sampled: bool,
    /// Install a ring `Recorder` and a `Profiler` while the engine is
    /// constructed (`trace.engine_on_ratio`).
    pub instrumented: bool,
}

/// An engine with the modeled device at zero: force latency and group
/// window are 0 microseconds, asserted here so no zero-device workload
/// can run against a sleeping log.
pub fn zero_device_engine(p: EngineParams) -> Engine {
    let cfg = EngineConfig {
        shards: ENGINE_SHARDS,
        group_commit: p.group_commit,
        force_latency_us: 0,
        group_window_us: 0,
        sample_every: u64::from(p.sampled),
        sample_cap_ops: usize::MAX,
        isolation: if p.snapshot_isolation {
            IsolationLevel::SnapshotIsolation
        } else {
            IsolationLevel::Serializable2pl
        },
    };
    assert_eq!(cfg.force_latency_us, 0, "zero-device workload with a device latency");
    assert_eq!(cfg.group_window_us, 0, "zero-device workload with a group-commit dwell");
    if p.instrumented {
        let rec = Recorder::ring(1 << 16);
        let prof = Profiler::new();
        mcv_trace::with_recorder(rec, || mcv_prof::with_profiler(&prof, || Engine::new(cfg)))
    } else {
        Engine::new(cfg)
    }
}

/// Writes every key once, 256 per transaction (the chunking the
/// repository's own drivers use).
pub fn preload(engine: &Engine, keys: &[String]) {
    for (c, chunk) in keys.chunks(256).enumerate() {
        let mut t = engine.begin();
        for (i, key) in chunk.iter().enumerate() {
            t.write(key, (c * 256 + i) as i64).expect("preload write");
        }
        t.commit().expect("preload commit");
    }
}

/// What running one spec to completion took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    pub committed: bool,
    /// Transactions begun for this spec (1 = no retry).
    pub tries: u32,
}

/// Runs one spec: begin, its reads and writes in order, commit. A
/// deadlock or certification victim is aborted and the same spec is
/// retried under a fresh transaction, at most [`MAX_TRIES`] times.
#[inline]
pub fn exec_spec<T: Tracer>(
    engine: &Engine,
    spec: &TxnSpec,
    id: u64,
    keys: &[String],
    tr: &mut T,
) -> Exec {
    for tries in 1..=MAX_TRIES {
        let mut txn = tr.leaf("engine.begin", id, || engine.begin());
        let mut victim = false;
        for (j, op) in spec.ops.iter().enumerate() {
            let key = keys[op.key as usize].as_str();
            let r = if op.write {
                let value = (id * 8 + j as u64) as i64;
                tr.leaf("engine.write", id, || txn.write(key, value))
            } else {
                tr.leaf("engine.read", id, || {
                    txn.read(key).map(|v| {
                        black_box(v);
                    })
                })
            };
            if let Err(e) = r {
                assert_retryable(&e);
                victim = true;
                break;
            }
        }
        if victim {
            tr.leaf("engine.abort", id, || txn.abort());
            continue;
        }
        match tr.leaf("engine.commit", id, || txn.commit()) {
            Ok(()) => return Exec { committed: true, tries },
            Err(e) => assert_retryable(&e),
        }
    }
    Exec { committed: false, tries: MAX_TRIES }
}

fn assert_retryable(e: &EngineError) {
    assert!(
        matches!(e, EngineError::Deadlock { .. } | EngineError::Certification { .. }),
        "engine returned a non-retryable error: {e}"
    );
}

/// Engine counters read at a repetition boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub committed: u64,
    pub lock_conflicts: u64,
    pub deadlocks: u64,
    pub read_lock_acquisitions: u64,
    pub snapshot_reads: u64,
    pub cert_aborts: u64,
    pub versions_installed: u64,
    pub gc_collected: u64,
    pub wal_commits: u64,
    pub wal_forces: u64,
    pub wal_records: u64,
}

impl EngineCounts {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &EngineCounts) -> EngineCounts {
        EngineCounts {
            committed: self.committed - earlier.committed,
            lock_conflicts: self.lock_conflicts - earlier.lock_conflicts,
            deadlocks: self.deadlocks - earlier.deadlocks,
            read_lock_acquisitions: self.read_lock_acquisitions - earlier.read_lock_acquisitions,
            snapshot_reads: self.snapshot_reads - earlier.snapshot_reads,
            cert_aborts: self.cert_aborts - earlier.cert_aborts,
            versions_installed: self.versions_installed - earlier.versions_installed,
            gc_collected: self.gc_collected - earlier.gc_collected,
            wal_commits: self.wal_commits - earlier.wal_commits,
            wal_forces: self.wal_forces - earlier.wal_forces,
            wal_records: self.wal_records - earlier.wal_records,
        }
    }
}

pub fn engine_counts(engine: &Engine) -> EngineCounts {
    let m = engine.metrics_snapshot();
    EngineCounts {
        committed: m.counter("engine.txn.committed"),
        lock_conflicts: m.counter("engine.locks.conflicts"),
        deadlocks: m.counter("engine.locks.deadlocks"),
        read_lock_acquisitions: m.counter("engine.locks.read_acquisitions"),
        snapshot_reads: m.counter("engine.mvcc.snapshot_reads"),
        cert_aborts: m.counter("engine.mvcc.cert_aborts"),
        versions_installed: m.counter("engine.mvcc.versions_installed"),
        gc_collected: m.counter("engine.mvcc.gc_collected"),
        wal_commits: m.counter("engine.wal.commits"),
        wal_forces: m.counter("engine.wal.forces"),
        wal_records: m.counter("engine.wal.records"),
    }
}

/// Bytes a crash at this instant would leave on the log device.
pub fn durable_image(engine: &Engine) -> Vec<u8> {
    engine.durable_image()
}

/// Recovery equivalence: replaying `image` rebuilds exactly the
/// engine's quiesced state. Returns the verdict and the time the
/// replay alone took (`txn.wal_recover_ns_per_rec` divides it by the
/// engine's record count).
pub fn recovery_matches(engine: &Engine, image: &[u8]) -> (bool, Duration) {
    let t0 = Instant::now();
    let recovered = Wal::from_bytes_lossy(image).recover();
    let replay = t0.elapsed();
    (recovered == engine.state(), replay)
}

/// Conflict-serializability of the sampled history of an engine built
/// with `sampled: true`; also the number of sampled transactions.
pub fn sampled_serializable(engine: &Engine) -> (bool, usize) {
    (engine.sampled_history().is_conflict_serializable(), engine.sampled_txns())
}

/// `Pool::submit` to job start, mean over `n` one-at-a-time hand-offs.
pub fn pool_handoff(n: usize) -> Duration {
    let pool = Pool::new(2, 64);
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    let mut total = Duration::ZERO;
    for _ in 0..n {
        let tx = tx.clone();
        let t0 = Instant::now();
        pool.submit(move || {
            let _ = tx.send(Instant::now());
        });
        total += rx.recv().expect("pool job ran").duration_since(t0);
    }
    pool.join();
    total
}

/// `Pool::try_submit` of `n` empty jobs into a queue that never fills.
pub fn pool_try_submit(n: usize) -> Duration {
    let pool = Pool::new(2, n + 1);
    let t0 = Instant::now();
    for _ in 0..n {
        pool.try_submit(|| {}).expect("queue sized for every job");
    }
    let elapsed = t0.elapsed();
    pool.join();
    elapsed
}

// ------------------------------------------------------------------ mvcc

fn mvcc_store(keys: &[String], depth: u64) -> MvccStore {
    let store = MvccStore::new(ENGINE_SHARDS);
    for ts in 1..=depth {
        for key in keys {
            store.install(key, ts, ts as i64, TxnId(ts));
        }
        store.advance(ts);
    }
    store
}

/// `n` `begin_snapshot` + `end_snapshot` pairs.
pub fn mvcc_snapshot_open_close(keys: &[String], n: usize) -> Duration {
    let store = mvcc_store(keys, 1);
    let t0 = Instant::now();
    for _ in 0..n {
        let ts = store.begin_snapshot();
        store.end_snapshot(black_box(ts));
    }
    t0.elapsed()
}

/// `n` `read_at` calls at the newest timestamp over chains of `depth`
/// versions (the visible version is the first one scanned).
pub fn mvcc_read_at(keys: &[String], depth: u64, n: usize) -> Duration {
    let store = mvcc_store(keys, depth);
    let t0 = Instant::now();
    for i in 0..n {
        black_box(store.read_at(&keys[i % keys.len()], depth));
    }
    t0.elapsed()
}

/// `n` single-version commits (`commit_lock`, `install`, `advance`) and
/// separately the `gc_items` call that trims each chain back to one
/// version. Returns `(install, gc, versions collected)`.
pub fn mvcc_install_gc(keys: &[String], n: usize) -> (Duration, Duration, u64) {
    let store = mvcc_store(keys, 1);
    let mut install = Duration::ZERO;
    let mut gc = Duration::ZERO;
    let mut collected = 0;
    for i in 0..n {
        let key = keys[i % keys.len()].as_str();
        let t0 = Instant::now();
        let guard = store.commit_lock();
        let ts = store.last_committed() + 1;
        store.install(key, ts, ts as i64, TxnId(ts));
        store.advance(ts);
        drop(guard);
        let t1 = Instant::now();
        collected += store.gc_items([key]);
        gc += t1.elapsed();
        install += t1 - t0;
    }
    (install, gc, collected)
}

// ------------------------------------------------------------------- txn

fn update(i: usize, keys: &[String]) -> LogRecord {
    LogRecord::Update {
        txn: TxnId(i as u64 / 4 + 1),
        item: keys[i % keys.len()].clone(),
        old: i as i64,
        new: i as i64 + 1,
    }
}

/// `n` `ForcedWal::append` calls, then one `force` over all of them.
/// Returns `(append, force, durable bytes)`. Records are built before
/// the clock starts.
pub fn wal_append_force(keys: &[String], n: usize) -> (Duration, Duration, usize) {
    let records: Vec<LogRecord> = (0..n).map(|i| update(i, keys)).collect();
    let mut wal = ForcedWal::new();
    let t0 = Instant::now();
    for r in records {
        black_box(wal.append(r));
    }
    let t1 = Instant::now();
    black_box(wal.force());
    let t2 = Instant::now();
    (t1 - t0, t2 - t1, wal.durable_image().len())
}

/// `n` uncontended rounds of the model `LockManager`: four shared and
/// four exclusive acquisitions, then `release_all`. The rounds cycle
/// over 64 keys: `release_all` visits every item the manager has ever
/// seen, so its cost is set by the table size, held constant here.
pub fn lock_acquire_release(keys: &[String], n: usize) -> Duration {
    let keys = &keys[..64];
    let mut lm = LockManager::new();
    let t0 = Instant::now();
    for i in 0..n {
        let txn = TxnId(i as u64 + 1);
        for j in 0..8 {
            let mode = if j % 2 == 0 { LockMode::Shared } else { LockMode::Exclusive };
            let key = keys[(i * 8 + j) % keys.len()].as_str();
            black_box(lm.acquire(txn, key, mode).expect("growing phase"));
        }
        black_box(lm.release_all(txn));
    }
    t0.elapsed()
}

struct ProbeRng(crate::workloads::SplitMix64);

impl rand::RngCore for ProbeRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// `n` draws from the repository's zipfian picker (10 000 items, 0.99).
pub fn zipf_next(n: usize) -> Duration {
    let z = Zipfian::new(10_000, 0.99);
    let mut rng = ProbeRng(crate::workloads::SplitMix64::new(1));
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(z.next(&mut rng));
    }
    t0.elapsed()
}

// ---------------------------------------------------------------- commit

/// `n` failure-free 3PC scenarios with two cohorts on the simulator.
/// Returns the elapsed time and the message count of one scenario.
pub fn scenario_3pc(n: usize) -> (Duration, u64) {
    let sc = Scenario { protocol: Protocol::ThreePhase, n_cohorts: 2, ..Scenario::default() };
    let mut messages = 0;
    let t0 = Instant::now();
    for _ in 0..n {
        let report = run_scenario(&sc);
        assert_eq!(report.outcome, Some(true), "failure-free 3PC must commit");
        messages = report.messages;
    }
    (t0.elapsed(), messages)
}

// ------------------------------------------------------------------ dist

/// Hops of at most this many microseconds count as "network at zero".
const MAX_ZERO_NETWORK_HOP_US: u64 = 10;

fn dist_config(w: &DistWorkload, n_txns: usize, seed: u64) -> DistConfig {
    let cfg = DistConfig {
        n_shards: w.shards,
        n_txns,
        writes_per_shard: w.writes_per_shard,
        seed,
        timeout: w.timeout_ticks,
        tick_us: w.tick_us,
        delay_ticks: w.delay_ticks,
        force_latency_us: 0,
        deadline_ms: 120_000,
        ..DistConfig::default()
    };
    assert_eq!(cfg.force_latency_us, 0, "zero-device workload with a device latency");
    assert!(
        cfg.tick_us * cfg.delay_ticks <= MAX_ZERO_NETWORK_HOP_US,
        "zero-network workload with hops above {MAX_ZERO_NETWORK_HOP_US} us"
    );
    assert!(cfg.schedule.events.is_empty() && cfg.crash_at.is_none(), "fault in a clean run");
    cfg
}

/// One `run_pipeline` call, distilled.
#[derive(Debug)]
pub struct PipelineRun {
    /// Wall time of the whole call (set-up, settle, teardown, oracles).
    pub call: Duration,
    /// Submission of the first plan to quiescence, as the program
    /// reports it (millisecond resolution).
    pub settle_ms: u64,
    pub txns: u64,
    pub committed: u64,
    /// Name of the first failed oracle, if any.
    pub violated: Option<String>,
    pub oracles: usize,
    /// The coordinator logged exactly one decision per transaction with
    /// consecutive indices.
    pub log_dense: bool,
    /// Commit latency per transaction index against `arrival_us`
    /// (`None`: not committed). Empty for saturation runs.
    pub latency_us: Vec<Option<u64>>,
    pub sends: u64,
    pub trace_events: u64,
    pub wal_commits: u64,
    pub wal_forces: u64,
    pub trace: CausalTrace,
}

/// Streams `n_txns` cross-shard transactions through the pipelined
/// runtime; with `arrival_us` the pump paces them open-loop.
pub fn pipeline(
    w: &DistWorkload,
    n_txns: usize,
    seed: u64,
    arrival_us: Option<&[u64]>,
) -> PipelineRun {
    let cfg = PipelineConfig {
        dist: dist_config(w, n_txns, seed),
        max_inflight: w.max_inflight,
        batch_window_us: w.batch_window_us,
        arrival_us: arrival_us.map(<[u64]>::to_vec),
    };
    let t0 = Instant::now();
    let out = run_pipeline(&cfg);
    let call = t0.elapsed();
    let log_dense = out.commit_log.len() == n_txns
        && out.commit_log.iter().enumerate().all(|(i, e)| e.index == i);
    let latency_us = match arrival_us {
        None => Vec::new(),
        Some(due) => {
            let mut lat = vec![None; n_txns];
            for e in out.commit_log.iter().filter(|e| e.commit) {
                let i = (e.txn - GLOBAL_TXN_BASE) as usize;
                lat[i] = Some((e.tick * w.tick_us).saturating_sub(due[i]));
            }
            lat
        }
    };
    let sends =
        out.trace.events.iter().filter(|e| matches!(e.kind, EventKind::Send { .. })).count();
    PipelineRun {
        call,
        settle_ms: out.stats.wall_ms,
        txns: out.stats.txns,
        committed: out.stats.committed,
        violated: out.violated().map(|o| o.name.clone()),
        oracles: out.oracles.len(),
        log_dense,
        latency_us,
        sends: sends as u64,
        trace_events: out.trace.events.len() as u64,
        wal_commits: out.wal_commits,
        wal_forces: out.wal_forces,
        trace: out.trace,
    }
}

/// The happens-before audit over one recorded trace. Returns the
/// verdict and the time it took.
pub fn trace_check(trace: &CausalTrace) -> (bool, Duration) {
    let t0 = Instant::now();
    let report = mcv_trace::check(trace);
    (report.ok(), t0.elapsed())
}

/// `n` messages through the virtual-clock fabric: `send` then `advance`
/// until delivered, round-robin over the coordinator's two links.
pub fn fabric_route(w: &DistWorkload, n: usize) -> Duration {
    let cfg = TransportConfig {
        tick_us: w.tick_us,
        delay_ticks: w.delay_ticks,
        seed: 1,
        batch_window_us: 0,
    };
    let mut net = SimTransport::new(&cfg, &mcv_chaos::FaultSchedule::none());
    let mut delivered = 0usize;
    let t0 = Instant::now();
    for i in 0..n {
        let msg = Msg::VoteReq { txn: TxnId(i as u64) };
        net.send(0, 1 + i % w.shards, msg, String::new());
        let until = net.now_us() + w.tick_us * w.delay_ticks;
        for (_, ev) in net.advance(until) {
            delivered += match ev {
                NodeEvent::Deliver { .. } => 1,
                NodeEvent::DeliverBatch(items) => items.len(),
                _ => 0,
            };
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(delivered, n, "fault-free fabric must deliver every message");
    elapsed
}

// ------------------------------------------------------------------ load

/// The open-loop Poisson schedule of one repetition: `duration_us` of
/// arrivals at `rate_tps` over the workload's session population.
pub fn load_schedule(
    w: &LoadWorkloadParams,
    rate_tps: f64,
    duration_us: u64,
    seed: u64,
) -> ArrivalSchedule {
    ArrivalSchedule::generate(&LoadProfile {
        process: ArrivalProcess::Poisson { rate_tps },
        duration_us,
        sessions: w.sessions,
        session_theta: w.session_theta,
        seed,
    })
}

pub fn schedule_len(s: &ArrivalSchedule) -> usize {
    s.len()
}

/// Canonical bytes of a schedule (self-tests compare them).
#[cfg(test)]
pub fn schedule_bytes(s: &ArrivalSchedule) -> Vec<u8> {
    s.to_jsonl().into_bytes()
}

/// One open-loop run, distilled.
#[derive(Debug)]
pub struct LoadRun {
    pub arrivals: u64,
    pub committed: u64,
    /// Commits inside their deadline.
    pub goodput: u64,
    pub shed: u64,
    pub deadline_missed: u64,
    pub unresolved: u64,
    pub oracles_ok: bool,
    /// Due-arrival-to-commit latency of every commit, microseconds.
    pub latency_us: Vec<u64>,
    pub wal_commits: u64,
    pub wal_forces: u64,
    /// Virtual length of the schedule, the denominator of rates.
    pub duration_us: u64,
}

/// Paces `schedule` into one engine with the modeled device **on**:
/// group commit, 300 us per force, no dwell. Arrivals beyond
/// `queue_cap` waiting jobs are dropped; `deadline_us` runs from each
/// transaction's due arrival.
pub fn run_load(
    w: &LoadWorkloadParams,
    schedule: &ArrivalSchedule,
    queue_cap: usize,
    deadline_us: u64,
) -> LoadRun {
    let cfg = LoadConfig {
        profile: schedule.profile.clone(),
        engine: EngineConfig {
            shards: ENGINE_SHARDS,
            group_commit: true,
            force_latency_us: w.force_latency_us,
            group_window_us: 0,
            ..EngineConfig::default()
        },
        engines: 1,
        items_per_engine: w.items,
        session_span: w.session_span,
        workload: LoadWorkload::ReadWrite { write_pct: w.write_pct, ops_per_txn: w.ops_per_txn },
        workers: w.workers,
        queue_cap,
        policy: ShedPolicy::Drop,
        deadline_us,
        ..LoadConfig::default()
    };
    let r = run_load_with_schedule(&cfg, schedule);
    LoadRun {
        arrivals: r.arrivals,
        committed: r.committed,
        goodput: r.goodput,
        shed: r.shed,
        deadline_missed: r.deadline_missed,
        unresolved: r.unresolved,
        oracles_ok: r.oracles_ok(),
        latency_us: r.completions.iter().map(|&(_, lat)| lat).collect(),
        wal_commits: r.metrics.counter("engine.wal.commits"),
        wal_forces: r.metrics.counter("engine.wal.forces"),
        duration_us: r.duration_us,
    }
}

/// The virtual-clock replay of the admission machinery over `schedule`.
pub fn load_simulate(w: &LoadWorkloadParams, schedule: &ArrivalSchedule) -> Duration {
    let cfg = SimConfig {
        servers: w.workers,
        queue_cap: w.queue_cap,
        service_us: w.force_latency_us,
        deadline_us: w.deadline_us,
        policy: ShedPolicy::Drop,
    };
    let t0 = Instant::now();
    black_box(simulate(schedule, &cfg));
    t0.elapsed()
}

// ------------------------------------------------------- trace, prof, obs

/// `n` `Recorder::record` calls into an unbounded or a ring recorder.
pub fn trace_record(ring: bool, n: usize) -> Duration {
    let rec: Arc<Recorder> = if ring { Recorder::ring(4_096) } else { Recorder::unbounded() };
    let lane = rec.lane();
    let t0 = Instant::now();
    for i in 0..n {
        black_box(rec.record(lane, 0, None, EventKind::Commit { txn: i as u64 }));
    }
    t0.elapsed()
}

/// `n` `Profiler::record` calls of a two-phase timeline.
pub fn prof_record(n: usize) -> Duration {
    let prof = Profiler::new();
    let mut tl = Timeline::new(1);
    tl.add(Phase::Execute, 700);
    tl.add(Phase::WalForce, 300);
    tl.total_ns = 1_000;
    let t0 = Instant::now();
    for i in 0..n {
        tl.txn = i as u64;
        prof.record(black_box(&tl));
    }
    t0.elapsed()
}

/// `n` `Histogram::record` calls into the engine's latency histogram.
pub fn hist_record(n: usize) -> Duration {
    let mut h: Histogram = mcv_engine::latency_histogram();
    let t0 = Instant::now();
    for i in 0..n {
        h.record(black_box((i as u64 * 37) % 20_000));
    }
    let elapsed = t0.elapsed();
    black_box(h.mean());
    elapsed
}

// ---------------------------------------------------- core, logic, blocks

/// `n` `SpecLibrary::load` calls.
pub fn library_load(n: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(SpecLibrary::load());
    }
    t0.elapsed()
}

/// The three Chapter 5 goals in script order.
pub const GOALS: [&str; 3] = ["serialize", "csm", "rbr"];

/// `(proved, vacuous)` per goal as the seed commit proves them: `p2`
/// (CSM) is proved only vacuously — its support set is contradictory,
/// a reproduction finding recorded in EXPERIMENTS.md — so the gate is
/// "verdicts unchanged", not "all non-vacuous".
pub const EXPECTED_VERDICTS: [(bool, bool); 3] = [(true, false), (true, true), (true, false)];

/// One full replay: parse, colimit, translate and prove all three
/// scripts. Returns `(proved, vacuous)` per goal (`None`: no proof ran).
pub fn replay_chapter5() -> Vec<Option<(bool, bool)>> {
    let runs = run_chapter5_scripts().expect("chapter 5 scripts run");
    runs.iter().map(|r| r.proof.as_ref().map(|(_, proved, vacuous)| (*proved, *vacuous))).collect()
}

/// One replay taken apart at the script interpreter's public seam.
#[derive(Debug, Default)]
pub struct ReplayParts {
    /// Per goal: everything before the `prove` statement (parse,
    /// colimit, translate, print).
    pub compose: [Duration; 3],
    /// Per goal: the `prove` statement alone.
    pub prove: [Duration; 3],
}

/// Replays each script in two `ScriptEngine::run` calls: the
/// statements before the final `prove`, then the `prove`.
pub fn replay_parts<T: Tracer>(tr: &mut T) -> ReplayParts {
    let scripts = [serializability_script(), csm_script(), rbr_script()];
    let mut parts = ReplayParts::default();
    for (g, source) in scripts.iter().enumerate() {
        let cut = source.trim_end().rfind('\n').expect("script has many statements") + 1;
        let (compose, prove) = source.split_at(cut);
        assert!(prove.contains("= prove "), "last statement of script {g} is not a proof");
        let mut engine = ScriptEngine::new();
        tr.enter("blocks.script", g as u64);
        let t0 = Instant::now();
        tr.leaf("core.compose", g as u64, || engine.run(compose).expect("script composes"));
        let t1 = Instant::now();
        let events = tr.leaf("logic.prove", g as u64, || engine.run(prove).expect("proves"));
        let t2 = Instant::now();
        tr.exit();
        assert!(matches!(events.last(), Some(ScriptEventKind::Proved { .. })));
        parts.compose[g] = t1 - t0;
        parts.prove[g] = t2 - t1;
    }
    parts
}

/// Clauses the prover generates over one full replay, read from the
/// prover's own counter through an `mcv_obs` collector (untimed: the
/// collector switches the program's instrumentation on).
pub fn clauses_generated() -> u64 {
    let (_, collected) = mcv_obs::collect(replay_chapter5);
    collected.metrics.counter("prover.generated")
}

/// `n` colimits of the last (largest) Chapter 5 diagram, `RCOV`, taken
/// from the environment script 5.1.3 leaves behind.
pub fn colimit_rcov(n: usize) -> Duration {
    let mut engine = ScriptEngine::new();
    engine.run(&rbr_script()).expect("script 5.1.3 runs");
    let Some(ScriptValue::Diagram(diagram)) = engine.get("RCOV") else {
        panic!("script 5.1.3 no longer binds the RCOV diagram");
    };
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(colimit(diagram, "RECO").expect("RCOV has a colimit"));
    }
    t0.elapsed()
}
