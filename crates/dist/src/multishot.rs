//! The cross-shard runtime: per-shard engines on their own node
//! threads, the coordinator, the network thread, the submission pump
//! and the stop monitor. [`run_pipeline`] is the only assembly; serial,
//! all-at-once and pipelined commit are values of [`PipelineConfig`]:
//!
//! - a **submission pump** streams [`TxnPlan`](mcv_commit::TxnPlan)s
//!   to the coordinator through
//!   [`NodeEvent::Submit`](crate::NodeEvent::Submit), holding at most
//!   `max_inflight` undecided transactions open — the coordinator's
//!   commit log ([`CommitLogEntry`]) totally orders their decisions.
//!   `max_inflight: 1` is single-shot commit (the serial reference:
//!   one transaction at a time), `max_inflight: n_txns` starts every
//!   plan at once;
//! - the transport runs with a per-link **batching window**: messages
//!   submitted while a link's batch head is still in flight ride along
//!   at the head's delivery instant, so concurrent transactions share
//!   hop delays instead of queuing behind FIFO clamps.
//!   `batch_window_us: 0` is the per-message schedule;
//! - shard stores **stage** commit records and each delivery (batch)
//!   pays one WAL force for all of them (`engine.wal.forces` collapses
//!   below `engine.wal.commits` once deliveries batch; unbatched, it
//!   is one force per commit), with acknowledgements held until the
//!   force completes;
//! - the run ends on **quiescence** (every submitted transaction
//!   decided everywhere, plus a quiet tail); only a run with faults
//!   scheduled also waits out their horizon.

use crate::node::{run_node, NodeSeat, NodeTally};
use crate::runtime::{fault_horizon, DistConfig, DistStats, Ledger};
use crate::store::{CoordStore, EngineStore};
use crate::transport::{NodeEvent, TransportConfig, Wiring};
use mcv_chaos::{Campaign, FaultPlan, FaultSchedule, OracleResult, Target};
use mcv_commit::{Protocol, Site, SiteConfig};
use mcv_engine::{Engine, EngineConfig};
use mcv_sim::ProcId;
use mcv_txn::TxnId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one run: a [`DistConfig`] (topology, workload,
/// faults, protocol knobs) plus the submission schedule. Serializable,
/// so a violating run ships as a replayable artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    /// The underlying distributed configuration. Its `n_txns` plans
    /// are streamed by the pump; its `horizon` only matters when faults
    /// are scheduled.
    pub dist: DistConfig,
    /// Maximum undecided transactions in flight at once (0 is read as
    /// 1). `1` commits one transaction at a time; `dist.n_txns` starts
    /// them all at once.
    pub max_inflight: usize,
    /// Per-link transport batching window in microseconds; 0 is the
    /// unbatched per-message schedule.
    pub batch_window_us: u64,
    /// Open-loop arrival offsets in microseconds since run start, one
    /// per transaction (`None` = submit as fast as the window allows).
    /// Shorter vectors leave the tail unconstrained.
    pub arrival_us: Option<Vec<u64>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dist: DistConfig::default(),
            max_inflight: 16,
            batch_window_us: 1_000,
            arrival_us: None,
        }
    }
}

/// A campaign over `base` within the thesis' tolerated failure model
/// over its nodes and horizon: crashes that recover, healing
/// partitions, and transient drop windows. Duplication and reordering
/// stay off (they break assumptions the protocol makes), and so do torn
/// writes — the engine adapter models the redo-logged stable prepared
/// state the thesis assumes, so there is no byte image to tear; the
/// transport degrades a `TornWrite` to a plain crash when replaying
/// foreign schedules.
pub fn tolerated_campaign(base: PipelineConfig) -> Campaign<PipelineConfig> {
    let plan = FaultPlan {
        torn_writes: false,
        ..FaultPlan::tolerated(base.dist.n_nodes(), base.dist.horizon)
    };
    Campaign::new(base, plan)
}

/// The threaded runtime as a campaign target. A threaded run is not
/// bit-deterministic: scheduling jitter can mask a violation on any
/// single run, so a candidate gets two. Reductions change the `dist`
/// half of the configuration only: every candidate replays under the
/// submission schedule that found the violation.
impl Target for PipelineConfig {
    type Outcome = PipelineOutcome;
    const KIND: &'static str = "dist";
    const REPLAY_EXAMPLE: &'static str = "dist_stress";
    const RUNS_PER_CHECK: usize = 2;
    const SHRINK_BUDGET: usize = 60;
    const REDUCTIONS: &'static [fn(&Self) -> Option<Self>] = &[
        // Fewer transactions; the window and the arrival offsets are
        // clamped to the plans that remain.
        |c| {
            (c.dist.n_txns > 1).then(|| {
                let mut c = c.clone();
                c.dist.n_txns -= 1;
                c.max_inflight = c.max_inflight.min(c.dist.n_txns);
                if let Some(arrivals) = &mut c.arrival_us {
                    arrivals.truncate(c.dist.n_txns);
                }
                c
            })
        },
        // Fewer shards: two is the floor of a cross-shard
        // counterexample.
        |c| {
            (c.dist.n_shards > 2).then(|| {
                let mut c = c.clone();
                c.dist.n_shards -= 1;
                c
            })
        },
    ];

    fn run(&self) -> PipelineOutcome {
        run_pipeline(self)
    }
    fn oracles(out: &PipelineOutcome) -> &[OracleResult] {
        &out.oracles
    }
    fn trace(out: PipelineOutcome) -> mcv_trace::CausalTrace {
        out.trace
    }
    fn seed(&self) -> u64 {
        self.dist.seed
    }
    fn set_seed(&mut self, seed: u64) {
        self.dist.seed = seed;
    }
    fn schedule(&self) -> &FaultSchedule {
        &self.dist.schedule
    }
    fn schedule_mut(&mut self) -> &mut FaultSchedule {
        &mut self.dist.schedule
    }
    fn n_procs(&self) -> usize {
        self.dist.n_nodes()
    }
}

/// The run has settled once no note has landed for this long with
/// every plan streamed and every up participant decided.
const QUIET_TAIL_US: u64 = 4_000;
/// A run that has been that quiet for this long with plans still held
/// back by the in-flight window is blocked: give up.
const JAMMED_GIVE_UP_US: u64 = 250_000;

/// One entry of the coordinator's commit log: the `index`-th decision
/// node 0 reached, at ledger tick `tick`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommitLogEntry {
    /// Position in the coordinator's total decision order.
    pub index: usize,
    /// Tick at which the coordinator recorded the decision.
    pub tick: u64,
    /// Global transaction id.
    pub txn: u64,
    /// `true` = commit.
    pub commit: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Aggregate statistics.
    pub stats: DistStats,
    /// Every oracle's verdict.
    pub oracles: Vec<OracleResult>,
    /// First decision per `(node, txn)`; `true` = commit.
    pub decisions: BTreeMap<(usize, u64), bool>,
    /// The coordinator's totally-ordered commit log.
    pub commit_log: Vec<CommitLogEntry>,
    /// The run's causal trace.
    pub trace: mcv_trace::CausalTrace,
    /// Plans actually handed to the coordinator (fewer than `n_txns`
    /// if the in-flight window jammed against a blocked protocol).
    pub submitted: u64,
    /// Commit records appended across all shard WALs.
    pub wal_commits: u64,
    /// Device forces paid across all shard WALs; batching shows as
    /// `wal_forces` well below `wal_commits`.
    pub wal_forces: u64,
}

impl PipelineOutcome {
    /// The first violated oracle, if any.
    pub fn violated(&self) -> Option<&OracleResult> {
        self.oracles.iter().find(|o| !o.pass)
    }

    /// Whether the named oracle failed.
    pub fn violates(&self, name: &str) -> bool {
        self.oracles.iter().any(|o| o.name == name && !o.pass)
    }
}

/// Runs one distributed execution to completion and evaluates every
/// oracle over it.
///
/// Topology: node 0 is the coordinator (no shard), nodes
/// `1..=n_shards` each own a live [`Engine`] reached through the
/// [`EngineStore`] adapter, so the commit FSMs govern real 2PL locks
/// and per-shard group-commit WALs. All protocol traffic crosses the
/// threaded transport with seeded delays and the configured faults;
/// plans reach the coordinator through the submission pump.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineOutcome {
    let _span = mcv_obs::Span::enter("dist.pipeline");
    let d = &cfg.dist;
    // A window of zero (a hand-edited or foreign artifact) would never
    // submit; read it as one transaction at a time.
    let max_inflight = cfg.max_inflight.max(1);
    let n = d.n_nodes();
    let rec = mcv_trace::Recorder::unbounded();
    // Node threads record at sites `0..n`; engine-side events (WAL,
    // locks) pick lanes above them.
    rec.reserve_lanes(n);
    // Sized from measured traces: 37-58 events per transaction per
    // shard at 1-8 writes. Too small a hint only brings regrowth back.
    rec.reserve_events(d.n_txns * d.n_shards * (40 + 3 * d.writes_per_shard));
    let start = Instant::now();
    let ledger = Ledger::new(n);
    let engines: Vec<Engine> = mcv_trace::with_recorder(Arc::clone(&rec), || {
        (0..d.n_shards)
            .map(|_| {
                Engine::new(EngineConfig {
                    shards: 4,
                    force_latency_us: d.force_latency_us,
                    sample_every: 1,
                    ..Default::default()
                })
            })
            .collect()
    });

    let mut wiring = Wiring::spawn(
        n,
        start,
        &TransportConfig {
            tick_us: d.tick_us,
            delay_ticks: d.delay_ticks,
            seed: d.seed,
            batch_window_us: cfg.batch_window_us,
        },
        &d.schedule,
        Some(Arc::clone(&rec)),
        mcv_prof::installed(),
    );

    let site_cfg = |node: usize| SiteConfig {
        protocol: Protocol::ThreePhase,
        coordinator: ProcId(0),
        timeout: d.timeout,
        crash_at: d.crash_at.and_then(|(who, p)| (who == node).then_some(p)),
        vote_no: d.vote_no == Some(node),
        // Pumped, not planned: the coordinator starts idle.
        plans: Vec::new(),
        naive_timeouts: d.naive_timeouts,
        quorum_termination: d.quorum_termination,
    };

    let mut handles = Vec::with_capacity(n);
    for (node, rx) in std::mem::take(&mut wiring.node_rxs).into_iter().enumerate() {
        let seat = NodeSeat {
            id: node,
            n,
            tick_us: d.tick_us,
            start,
            rx,
            net: wiring.net.clone(),
            ledger: Arc::clone(&ledger),
        };
        let scfg = site_cfg(node);
        let rec = Arc::clone(&rec);
        let engine = (node > 0).then(|| engines[node - 1].clone());
        let h = std::thread::Builder::new()
            .name(format!("dist-node-{node}"))
            .spawn(move || {
                mcv_trace::with_recorder(rec, || match engine {
                    Some(e) => run_node(seat, Site::with_store(scfg, EngineStore::new(e))),
                    None => run_node(seat, Site::with_store(scfg, CoordStore)),
                })
            })
            .expect("spawn node thread");
        handles.push(h);
    }
    let node_txs = &wiring.node_txs;

    // Submission pump + stop monitor, event-driven: the loop runs once
    // per ledger change it acts on (a transaction's first decision, a
    // decision that settles the run, a node going down or up) and once
    // per instant at which the clock alone changes its verdict (the
    // next due arrival, the end of the quiet tail, the deadline), and
    // parks on the ledger in between. Success needs every plan
    // streamed, every up participant decided, and a short quiet tail
    // (no note for `QUIET_TAIL_US`) so in-flight messages that would
    // pull a late node into the protocol get to land first. Fault-free
    // runs owe no horizon wait — quiescence alone ends them; faulted
    // runs still wait out the schedule so late fault windows get their
    // chance to bite. The first pass pumps before any wait, so the
    // plans the window admits start at tick 0 — the instant a
    // campaign's tick-timed fault schedule is laid out against.
    let plans = d.plans();
    let txns = d.global_txns();
    let tick_us = d.tick_us.max(1);
    let fault_free = d.schedule.events.is_empty() && d.crash_at.is_none();
    let horizon = if fault_free { 0 } else { d.horizon.max(fault_horizon(&d.schedule)) };
    // The first instant whose tick lies past the horizon.
    let past_horizon_us = horizon.saturating_add(1).saturating_mul(tick_us);
    let deadline_us = d.deadline_ms.saturating_mul(1_000);
    let mut submitted = 0usize;
    let mut last_submit_us = 0u64;
    let mut timed_out = false;
    let mut pulse = ledger.pulse();
    let settle_ms = loop {
        let now_us = start.elapsed().as_micros() as u64;
        // Pump: respect the in-flight window and the arrival schedule.
        let mut next_arrival_us = None;
        while submitted < plans.len() && submitted.saturating_sub(pulse.decided_txns) < max_inflight
        {
            if let Some(&at) = cfg.arrival_us.as_ref().and_then(|a| a.get(submitted)) {
                if now_us < at {
                    next_arrival_us = Some(at);
                    break;
                }
            }
            let _ = node_txs[0].send(NodeEvent::Submit(plans[submitted].clone()));
            submitted += 1;
            last_submit_us = now_us;
        }
        let all_out = submitted == plans.len();
        // Quiet since the latest of: the last note, the last plan
        // handed over (its first note is still to come), the horizon.
        let idle = next_arrival_us.is_none() && pulse.settled;
        let quiet_from_us =
            pulse.last_note_tick.saturating_mul(tick_us).max(last_submit_us).max(past_horizon_us);
        let quiet_us = if idle { now_us.saturating_sub(quiet_from_us) } else { 0 };
        // Success: everything streamed and the system went quiet. A
        // long quiet spell with plans still jammed behind the window
        // means the protocol blocked — stop early, the deadline is
        // only the failsafe against live churn.
        if all_out && quiet_us >= QUIET_TAIL_US {
            break now_us / 1_000;
        }
        if quiet_us >= JAMMED_GIVE_UP_US {
            timed_out = true;
            break now_us / 1_000;
        }
        if now_us >= deadline_us {
            timed_out = !all_out || !pulse.settled;
            break now_us / 1_000;
        }
        let mut wake_us = deadline_us.min(next_arrival_us.unwrap_or(u64::MAX));
        if idle {
            let tail = if all_out { QUIET_TAIL_US } else { JAMMED_GIVE_UP_US };
            wake_us = wake_us.min(quiet_from_us.saturating_add(tail));
        }
        pulse = ledger.wait_change(pulse.epoch, start + Duration::from_micros(wake_us));
    };
    for tx in node_txs {
        let _ = tx.send(NodeEvent::Shutdown);
    }
    let node_tallies: Vec<NodeTally> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect();
    let net_tally = wiring.shutdown().expect("network thread panicked");

    let led = ledger.snapshot();
    let trace = rec.snapshot();
    // One WAL scan per engine; the tally and the oracles share it.
    let durable: Vec<BTreeSet<TxnId>> = engines.iter().map(Engine::committed_ids).collect();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut undecided = 0u64;
    for t in &txns {
        let all_committed = durable.iter().all(|ids| ids.contains(t));
        let any_decided = led.decided_txns.contains(&t.0);
        if all_committed {
            committed += 1;
        } else if any_decided {
            aborted += 1;
        } else {
            undecided += 1;
        }
    }
    let stats = DistStats {
        txns: txns.len() as u64,
        committed,
        aborted,
        undecided,
        wall_ms: settle_ms,
        timed_out,
    };
    mcv_obs::counter("dist.txn.committed", committed);
    mcv_obs::counter("dist.txn.aborted", aborted);
    node_tallies.iter().for_each(NodeTally::emit);
    net_tally.emit();
    let (wal_commits, wal_forces) = engines
        .iter()
        .map(|e| {
            let m = e.metrics_snapshot();
            (m.counter("engine.wal.commits"), m.counter("engine.wal.forces"))
        })
        .fold((0, 0), |(c, f), (dc, df)| (c + dc, f + df));
    let oracles = crate::oracle::evaluate(d, &stats, &led, &engines, &durable, &trace);
    let commit_log = led
        .decision_log
        .iter()
        .enumerate()
        .map(|(index, &(tick, txn, commit))| CommitLogEntry { index, tick, txn, commit })
        .collect();
    PipelineOutcome {
        stats,
        oracles,
        decisions: led.decided,
        commit_log,
        trace,
        submitted: submitted as u64,
        wal_commits,
        wal_forces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two shards, no fault scheduled, and a protocol timeout far above
    /// any scheduler stall — which would otherwise surface as a
    /// legitimate timeout abort in tests that assert commits.
    fn patient(n_txns: usize, seed: u64) -> DistConfig {
        DistConfig { n_shards: 2, n_txns, seed, timeout: 2_000, ..DistConfig::default() }
    }

    #[test]
    fn pipeline_fault_free_commits_everything() {
        let cfg = PipelineConfig {
            dist: patient(8, 7),
            max_inflight: 4,
            batch_window_us: 600,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 8);
        assert_eq!(out.submitted, 8);
        assert_eq!(out.commit_log.len(), 8, "coordinator logs one decision per txn");
        assert!(
            out.commit_log.windows(2).all(|w| w[0].index + 1 == w[1].index),
            "commit log indices are dense"
        );
    }

    #[test]
    fn pipeline_batches_wal_forces() {
        let cfg = PipelineConfig {
            dist: DistConfig { force_latency_us: 50, ..patient(12, 3) },
            max_inflight: 12,
            batch_window_us: 1_000,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.wal_commits, 24, "12 txns x 2 shards");
        assert!(
            out.wal_forces < out.wal_commits,
            "batched forces ({}) must undercut commits ({})",
            out.wal_forces,
            out.wal_commits
        );
    }

    #[test]
    fn zero_window_is_read_as_one_at_a_time() {
        let cfg = PipelineConfig {
            dist: patient(3, 5),
            max_inflight: 0,
            batch_window_us: 0,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.submitted, 3);
        assert_eq!(out.stats.committed, 3);
        assert_eq!(out.wal_forces, out.wal_commits, "unbatched: one force per commit");
    }

    #[test]
    fn a_paced_run_never_decides_a_transaction_before_it_is_due() {
        // Tick-aligned arrivals, so a decision tick converts back to
        // microseconds without rounding below the arrival.
        let dist = DistConfig { tick_us: 10, delay_ticks: 1, ..patient(60, 9) };
        let arrivals: Vec<u64> = (0..60).map(|i| i * 300).collect();
        let cfg = PipelineConfig {
            dist,
            max_inflight: 32,
            batch_window_us: 200,
            arrival_us: Some(arrivals.clone()),
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 60);
        assert_eq!(out.commit_log.len(), 60);
        assert!(out.commit_log.iter().enumerate().all(|(i, e)| e.index == i), "dense log");
        for e in &out.commit_log {
            let due = arrivals[(e.txn - crate::GLOBAL_TXN_BASE) as usize];
            assert!(
                e.tick * cfg.dist.tick_us >= due,
                "T{} decided at {} us, due at {due} us",
                e.txn,
                e.tick * cfg.dist.tick_us
            );
        }
    }

    #[test]
    fn the_trace_shows_the_window_never_overfilled() {
        for max_inflight in [1usize, 4, 32] {
            let cfg = PipelineConfig {
                dist: patient(24, 13),
                max_inflight,
                batch_window_us: 600,
                arrival_us: None,
            };
            let out = run_pipeline(&cfg);
            assert!(out.violated().is_none(), "{:?}", out.violated());
            assert_eq!(out.stats.committed, 24);
            // The coordinator's own notes, in recording order: a plan it
            // starts enters `q`, a decision closes it.
            let (mut open, mut peak, mut started) = (0usize, 0usize, 0usize);
            for e in out.trace.events.iter().filter(|e| e.site == 0) {
                let mcv_trace::EventKind::Note { text } = &e.kind else { continue };
                let mut words = text.split_whitespace();
                match (words.next(), words.next(), words.next()) {
                    (Some("state"), Some(_), Some("q")) => {
                        open += 1;
                        started += 1;
                    }
                    (Some("decide"), ..) => open -= 1,
                    _ => {}
                }
                peak = peak.max(open);
            }
            assert_eq!(started, 24, "every plan reached the coordinator");
            assert_eq!(open, 0, "every started plan was decided");
            assert!(peak <= max_inflight, "window {max_inflight} held {peak} undecided plans");
            if max_inflight < 24 {
                assert_eq!(peak, max_inflight, "an eager pump fills its window");
            }
        }
    }

    #[test]
    fn out_of_topology_events_are_inert() {
        // The simulator's rule: an event naming a process the topology
        // lacks is skipped, not delivered to a node that is not there.
        let mut cfg =
            PipelineConfig { dist: patient(2, 3), max_inflight: 2, ..PipelineConfig::default() };
        cfg.dist.schedule.events.push(mcv_chaos::FaultEvent::Crash { proc: 99, at: 10 });
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 2);
    }

    #[test]
    fn pipeline_vote_no_aborts_everywhere() {
        let cfg = PipelineConfig {
            dist: DistConfig { vote_no: Some(1), ..patient(4, 11) },
            max_inflight: 4,
            batch_window_us: 600,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 0);
        assert_eq!(out.stats.aborted, 4);
    }
}
