//! What one distributed run is made of besides its assembly: the
//! configuration, the shared decision ledger and the run statistics.
//! The assembly itself is [`run_pipeline`](crate::run_pipeline).

use crate::wait::wait_until;
use mcv_chaos::{FaultEvent, FaultSchedule};
use mcv_commit::{CrashPoint, TxnPlan};
use mcv_sim::ProcId;
use mcv_txn::TxnId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
/// to the cross-node oracles, and the state the submission pump parks
/// on.
#[derive(Debug)]
pub(crate) struct Ledger {
    inner: Mutex<LedgerInner>,
    /// Signalled when `LedgerInner::epoch` moves.
    changed: Condvar,
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
    /// Per node, the transactions it joined and has not decided yet:
    /// `participated` minus `decided`, kept as a count so the pump's
    /// settled check is one pass over the nodes.
    pub owing: Vec<usize>,
    /// Evidence of a decision flipping after it was made (AC3).
    pub flips: Vec<String>,
    /// The coordinator's commit log: node 0's first decisions in
    /// arrival order, `(tick, txn, commit)` — the observable spine of
    /// the multi-shot protocol (many in-flight transactions, one
    /// totally-ordered decision sequence).
    pub decision_log: Vec<(u64, u64, bool)>,
    /// Counts the changes the pump acts on: a transaction's first
    /// decision anywhere (the window opens), a decision that settles
    /// the run, a node going down or coming up.
    pub epoch: u64,
}

impl LedgerInner {
    /// Whether every currently-up node has decided every transaction
    /// whose protocol it joined. Up nodes that never participated
    /// (crashed or partitioned away before the vote request) owe no
    /// decision.
    pub fn settled(&self) -> bool {
        self.up.iter().zip(&self.owing).all(|(up, owing)| !up || *owing == 0)
    }

    fn pulse(&self) -> Pulse {
        Pulse {
            epoch: self.epoch,
            decided_txns: self.decided_txns.len(),
            settled: self.settled(),
            last_note_tick: self.notes.last().map_or(0, |(tick, ..)| *tick),
        }
    }
}

/// What the submission pump reads of the ledger, once per wake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pulse {
    /// Pass back to [`Ledger::wait_change`] to park until it moves.
    pub epoch: u64,
    /// Distinct transactions with a decision anywhere — the window
    /// accounting.
    pub decided_txns: usize,
    /// [`LedgerInner::settled`].
    pub settled: bool,
    /// Tick of the latest note — the quiescence probe.
    pub last_note_tick: u64,
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
                owing: vec![0; n_nodes],
                flips: Vec::new(),
                decision_log: Vec::new(),
                epoch: 0,
            }),
            changed: Condvar::new(),
        })
    }

    pub fn note(&self, node: usize, tick: u64, text: &str) {
        let mut g = self.inner.lock().expect("ledger mutex");
        let before = g.epoch;
        // The site note grammar: `decide T<n> commit|abort` drives the
        // monitors, `state T<n> <s>` marks protocol participation.
        let mut parts = text.split_whitespace();
        let head = parts.next();
        if head == Some("decide") {
            if let (Some(txn_text), Some(verdict)) = (parts.next(), parts.next()) {
                if let Some(Ok(txn)) = txn_text.strip_prefix('T').map(str::parse::<u64>) {
                    let joined_before = !g.participated.insert((node, txn));
                    if g.decided_txns.insert(txn) {
                        g.epoch += 1;
                    }
                    let commit = verdict == "commit";
                    match g.decided.insert((node, txn), commit) {
                        None => {
                            if node == 0 {
                                g.decision_log.push((tick, txn, commit));
                            }
                            if joined_before {
                                g.owing[node] -= 1;
                                if g.owing[node] == 0 && g.settled() {
                                    g.epoch += 1;
                                }
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
                if g.participated.insert((node, txn)) {
                    g.owing[node] += 1;
                }
            }
        }
        g.notes.push((tick, node, text.to_owned()));
        let moved = g.epoch != before;
        // Signal with the mutex released, so the woken pump does not
        // run straight into it.
        drop(g);
        if moved {
            self.changed.notify_one();
        }
    }

    pub fn set_up(&self, node: usize, up: bool) {
        let mut g = self.inner.lock().expect("ledger mutex");
        g.up[node] = up;
        g.epoch += 1;
        drop(g);
        self.changed.notify_one();
    }

    /// The pump's view of the ledger right now.
    pub fn pulse(&self) -> Pulse {
        self.inner.lock().expect("ledger mutex").pulse()
    }

    /// Parks the caller until the ledger's epoch differs from `seen` or
    /// `deadline` passes, whichever is first, and returns the view at
    /// that moment.
    pub fn wait_change(&self, seen: u64, deadline: Instant) -> Pulse {
        wait_until(&self.inner, &self.changed, deadline, |g| g.epoch != seen).pulse()
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
    use proptest::prelude::*;
    use std::time::Duration;

    #[test]
    fn ledger_counts_each_decided_transaction_once() {
        let led = Ledger::new(3);
        led.note(1, 4, "state T1000000 w");
        assert_eq!(led.pulse().decided_txns, 0);
        led.note(0, 5, "decide T1000000 commit");
        led.note(1, 6, "decide T1000000 commit");
        led.note(1, 7, "decide T1000000 commit");
        assert_eq!(led.pulse().decided_txns, 1);
        led.note(2, 8, "decide T1000001 abort");
        assert_eq!(led.pulse().decided_txns, 2);
        assert_eq!(led.pulse().last_note_tick, 8);
        assert_eq!(led.snapshot().decision_log, vec![(5, 1_000_000, true)]);
    }

    #[test]
    fn a_decide_note_wakes_a_thread_parked_on_the_ledger() {
        let led = Ledger::new(2);
        led.note(1, 1, "state T7 w");
        let seen = led.pulse();
        assert!(!seen.settled);
        // The channel forces the order: the waiter has read its epoch
        // before the note is written (whether it has parked yet or not,
        // the epoch check under the mutex catches the change).
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = {
            let led = Arc::clone(&led);
            std::thread::spawn(move || {
                ready_tx.send(()).expect("main thread alive");
                let t0 = Instant::now();
                let pulse = led.wait_change(seen.epoch, t0 + Duration::from_secs(60));
                (pulse, t0.elapsed())
            })
        };
        ready_rx.recv().expect("waiter started");
        led.note(1, 2, "decide T7 commit");
        let (pulse, waited) = waiter.join().expect("waiter thread");
        assert!(waited < Duration::from_secs(30), "woken by the note, not the timeout");
        assert_ne!(pulse.epoch, seen.epoch);
        assert_eq!(pulse.decided_txns, 1);
        assert!(pulse.settled);
        // Nothing further happens: the next wait runs to its deadline.
        let t0 = Instant::now();
        assert_eq!(led.wait_change(pulse.epoch, t0 + Duration::from_millis(2)), pulse);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    /// The set-based definition `settled` had before the per-node
    /// counts: every up node has decided every transaction it joined.
    fn settled_by_sets(g: &LedgerInner) -> bool {
        g.participated
            .iter()
            .all(|&(node, txn)| !g.up[node] || g.decided.contains_key(&(node, txn)))
    }

    proptest! {
        /// Random note sequences — joins, decisions, duplicate and
        /// flipped decisions, decisions by nodes that never joined,
        /// crashes and recoveries — keep `owing` equal to the joined-
        /// and-undecided sets they summarise.
        #[test]
        fn owing_counts_agree_with_the_set_definition(
            steps in prop::collection::vec((0usize..3, 0u64..4, 0u8..5), 0..60),
        ) {
            let led = Ledger::new(3);
            for (tick, (node, txn, what)) in steps.into_iter().enumerate() {
                match what {
                    0 => led.note(node, tick as u64, &format!("state T{txn} w")),
                    1 => led.note(node, tick as u64, &format!("decide T{txn} commit")),
                    2 => led.note(node, tick as u64, &format!("decide T{txn} abort")),
                    3 => led.set_up(node, false),
                    _ => led.set_up(node, true),
                }
                let g = led.snapshot();
                for n in 0..3 {
                    let owed = g
                        .participated
                        .iter()
                        .filter(|&&(p, t)| p == n && !g.decided.contains_key(&(p, t)))
                        .count();
                    prop_assert_eq!(g.owing[n], owed);
                }
                prop_assert_eq!(g.settled(), settled_by_sets(&g));
                prop_assert_eq!(led.pulse().settled, g.settled());
            }
        }
    }
}
