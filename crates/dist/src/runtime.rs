//! What one distributed run is made of besides its assembly: the
//! configuration, the shared decision ledger and the run statistics.
//! The assembly itself is [`run_pipeline`](crate::run_pipeline).

use mcv_chaos::{FaultEvent, FaultSchedule};
use mcv_commit::{CrashPoint, TxnPlan};
use mcv_sim::ProcId;
use mcv_txn::TxnId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Global (cross-shard) transaction ids start here. The per-shard
/// engines' own allocators count up from 1, so the two id spaces never
/// collide; `Engine::begin_at` relies on the caller maintaining this
/// split.
pub const GLOBAL_TXN_BASE: u64 = 1_000_000;

/// Full configuration of one distributed run. Serializable, so a
/// violating run ships as a replayable artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistConfig {
    /// Number of data shards; the topology is node 0 (coordinator,
    /// no shard) plus nodes `1..=n_shards` (one engine each).
    pub n_shards: usize,
    /// Number of cross-shard transactions the submission pump streams
    /// to the coordinator.
    pub n_txns: usize,
    /// Items each transaction writes at each shard.
    pub writes_per_shard: usize,
    /// Seed for delays, fault schedules and workload generation.
    pub seed: u64,
    /// Per-phase protocol timeout in ticks.
    pub timeout: u64,
    /// Real microseconds per simulation tick — the bridge between the
    /// chaos schedules' tick times and the threaded transport.
    pub tick_us: u64,
    /// Uniform per-hop network delay, in `1..=delay_ticks` ticks.
    pub delay_ticks: u64,
    /// Modeled device-force latency of each shard engine's WAL, in
    /// microseconds (the participants' commit-point durability cost).
    pub force_latency_us: u64,
    /// Use the naive Figure 3.2 timeout transitions instead of
    /// election + termination — unsafe with two or more shards.
    pub naive_timeouts: bool,
    /// Quorum-checked termination (the hardened default). Without it
    /// a recovered yes-voter whose decision requests go unanswered
    /// applies the thesis' `w2 -> abort` failure transition — a guess
    /// that splits the brain when its yes vote already enabled a
    /// commit (the cross-shard campaign finds this within 300 seeds).
    pub quorum_termination: bool,
    /// Targeted crash: `(node, point)` — the classic coordinator
    /// windows, injected at protocol positions rather than wall times.
    pub crash_at: Option<(usize, CrashPoint)>,
    /// This node votes no on everything (AC2 probes).
    pub vote_no: Option<usize>,
    /// Timed faults (ticks), in the `mcv-chaos` vocabulary.
    pub schedule: FaultSchedule,
    /// All scheduled faults lie before this tick; a run with a
    /// non-empty `schedule` or a `crash_at` only declares success after
    /// it has passed (a fault-free run ends on quiescence alone).
    pub horizon: u64,
    /// Hard wall-clock stop in milliseconds.
    pub deadline_ms: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            n_shards: 3,
            n_txns: 2,
            writes_per_shard: 2,
            seed: 0,
            timeout: 40,
            tick_us: 200,
            delay_ticks: 3,
            force_latency_us: 20,
            naive_timeouts: false,
            quorum_termination: true,
            crash_at: None,
            vote_no: None,
            schedule: FaultSchedule::none(),
            horizon: 150,
            deadline_ms: 5_000,
        }
    }
}

impl DistConfig {
    /// Total node count (coordinator + shards).
    pub fn n_nodes(&self) -> usize {
        self.n_shards + 1
    }

    /// The global transaction ids this run drives.
    pub fn global_txns(&self) -> Vec<TxnId> {
        (0..self.n_txns as u64).map(|i| TxnId(GLOBAL_TXN_BASE + i)).collect()
    }

    /// The coordinator's transaction plans. Every shard appears as a
    /// cohort in every plan (3PC needs `WorkDone` from all cohorts);
    /// item names are namespaced per transaction so concurrent global
    /// transactions never contend for the same 2PL locks across shards
    /// — a distributed deadlock would otherwise stall node threads,
    /// and cross-engine cycles are invisible to each engine's local
    /// detector.
    pub fn plans(&self) -> Vec<TxnPlan> {
        self.global_txns()
            .iter()
            .enumerate()
            .map(|(i, txn)| TxnPlan {
                txn: *txn,
                writes: (1..=self.n_shards)
                    .map(|s| {
                        let writes = (0..self.writes_per_shard)
                            .map(|j| (format!("g{i}_s{s}_{j}"), (i * 100 + j) as i64))
                            .collect();
                        (ProcId(s), writes)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Shared run ledger: decisions, liveness, and raw notes — the input
/// to the cross-node oracles.
#[derive(Debug)]
pub(crate) struct Ledger {
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Clone)]
pub(crate) struct LedgerInner {
    /// `(tick, node, text)` in arrival order.
    pub notes: Vec<(u64, usize, String)>,
    pub up: Vec<bool>,
    /// First decision per `(node, txn)`; `true` = commit.
    pub decided: BTreeMap<(usize, u64), bool>,
    /// Transactions with a decision at any node, kept alongside
    /// `decided` so the pump's window accounting is a length read.
    pub decided_txns: BTreeSet<u64>,
    /// Nodes that entered the protocol for a transaction (noted a
    /// state transition for it). A node that crashed or was
    /// partitioned away before the vote request arrived never joins
    /// and owes no decision — the same exemption the simulator's
    /// termination oracle grants via `local_state(txn).is_none()`.
    pub participated: BTreeSet<(usize, u64)>,
    /// Evidence of a decision flipping after it was made (AC3).
    pub flips: Vec<String>,
    /// The coordinator's commit log: node 0's first decisions in
    /// arrival order, `(tick, txn, commit)` — the observable spine of
    /// the multi-shot protocol (many in-flight transactions, one
    /// totally-ordered decision sequence).
    pub decision_log: Vec<(u64, u64, bool)>,
}

impl Ledger {
    pub fn new(n_nodes: usize) -> Arc<Ledger> {
        Arc::new(Ledger {
            inner: Mutex::new(LedgerInner {
                notes: Vec::new(),
                up: vec![true; n_nodes],
                decided: BTreeMap::new(),
                decided_txns: BTreeSet::new(),
                participated: BTreeSet::new(),
                flips: Vec::new(),
                decision_log: Vec::new(),
            }),
        })
    }

    pub fn note(&self, node: usize, tick: u64, text: &str) {
        let mut g = self.inner.lock().expect("ledger mutex");
        // The site note grammar: `decide T<n> commit|abort` drives the
        // monitors, `state T<n> <s>` marks protocol participation.
        let mut parts = text.split_whitespace();
        let head = parts.next();
        if head == Some("decide") {
            if let (Some(txn_text), Some(verdict)) = (parts.next(), parts.next()) {
                if let Some(Ok(txn)) = txn_text.strip_prefix('T').map(str::parse::<u64>) {
                    g.participated.insert((node, txn));
                    g.decided_txns.insert(txn);
                    let commit = verdict == "commit";
                    match g.decided.insert((node, txn), commit) {
                        None => {
                            if node == 0 {
                                g.decision_log.push((tick, txn, commit));
                            }
                        }
                        Some(prev) => {
                            if prev != commit {
                                g.decided.insert((node, txn), prev);
                                g.flips.push(format!(
                                    "node {node} flipped T{txn}: {} then {}",
                                    if prev { "commit" } else { "abort" },
                                    verdict
                                ));
                            }
                        }
                    }
                }
            }
        } else if head == Some("state") {
            if let Some(Ok(txn)) =
                parts.next().and_then(|t| t.strip_prefix('T')).map(str::parse::<u64>)
            {
                g.participated.insert((node, txn));
            }
        }
        g.notes.push((tick, node, text.to_owned()));
    }

    pub fn set_up(&self, node: usize, up: bool) {
        self.inner.lock().expect("ledger mutex").up[node] = up;
    }

    /// Whether every currently-up node that joined a transaction's
    /// protocol has decided it. Up nodes that never participated
    /// (crashed or partitioned away before the vote request) owe no
    /// decision.
    pub fn settled(&self, txns: &[TxnId]) -> bool {
        let g = self.inner.lock().expect("ledger mutex");
        g.up.iter().enumerate().filter(|(_, u)| **u).all(|(node, _)| {
            txns.iter().all(|t| {
                !g.participated.contains(&(node, t.0)) || g.decided.contains_key(&(node, t.0))
            })
        })
    }

    /// Total notes recorded so far — the stop monitor's quiescence
    /// probe.
    pub fn notes_len(&self) -> usize {
        self.inner.lock().expect("ledger mutex").notes.len()
    }

    /// Distinct transactions with a decision anywhere — the
    /// submission pump's window accounting.
    pub fn decided_txn_count(&self) -> usize {
        self.inner.lock().expect("ledger mutex").decided_txns.len()
    }

    pub fn snapshot(&self) -> LedgerInner {
        self.inner.lock().expect("ledger mutex").clone()
    }
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistStats {
    /// Cross-shard transactions driven.
    pub txns: u64,
    /// Committed at every shard engine.
    pub committed: u64,
    /// Uniformly aborted.
    pub aborted: u64,
    /// No decision recorded anywhere (blocked or shut down early).
    pub undecided: u64,
    /// Settle time: run start to quiescence (or to the stop rule
    /// giving up), excluding thread teardown and oracle evaluation —
    /// the denominator of every throughput figure.
    pub wall_ms: u64,
    /// The hard deadline fired before the run settled.
    pub timed_out: bool,
}

/// The tick after which no scheduled fault is still pending.
pub(crate) fn fault_horizon(schedule: &FaultSchedule) -> u64 {
    schedule
        .events
        .iter()
        .map(|e| match e {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::TornWrite { at, .. } => *at,
            FaultEvent::Partition { until, .. }
            | FaultEvent::DropWindow { until, .. }
            | FaultEvent::DupWindow { until, .. }
            | FaultEvent::ReorderWindow { until, .. } => *until,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_each_decided_transaction_once() {
        let led = Ledger::new(3);
        led.note(1, 4, "state T1000000 w");
        assert_eq!(led.decided_txn_count(), 0);
        led.note(0, 5, "decide T1000000 commit");
        led.note(1, 6, "decide T1000000 commit");
        led.note(1, 7, "decide T1000000 commit");
        assert_eq!(led.decided_txn_count(), 1);
        led.note(2, 8, "decide T1000001 abort");
        assert_eq!(led.decided_txn_count(), 2);
        assert_eq!(led.snapshot().decision_log, vec![(5, 1_000_000, true)]);
    }
}
