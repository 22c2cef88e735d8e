//! Cross-shard invariant oracles over a finished distributed run.
//!
//! The headline property is **atomicity**: no shard durably commits a
//! cross-shard transaction while another shard settles on abort. The
//! remaining oracles re-check the AC properties, termination,
//! per-shard conflict-serializability, WAL-image recovery, and the
//! causal well-formedness of the run's trace — the same invariant
//! vocabulary as `mcv-chaos`, evaluated against live engines instead
//! of the simulator's stores.

use crate::runtime::{DistConfig, DistStats, LedgerInner};
use mcv_chaos::OracleResult;
use mcv_engine::Engine;
use mcv_sim::{ProcId, SimTime, Trace, TraceEvent};
use mcv_txn::{TxnId, Wal};
use std::collections::BTreeSet;

/// Every dist oracle, in evaluation order.
pub const DIST_ORACLE_NAMES: [&str; 8] = [
    "atomicity",
    "ac1_agreement",
    "ac2_validity",
    "ac3_stability",
    "termination",
    "serializability",
    "recovery",
    "causal_order",
];

fn result(name: &str, pass: bool, detail: String) -> OracleResult {
    mcv_obs::counter(&format!("dist.oracle.{name}.{}", if pass { "pass" } else { "fail" }), 1);
    OracleResult { name: name.to_owned(), pass, detail }
}

/// Rebuilds a simulator trace from the ledger's notes so the
/// `mcv-commit` monitors (which consume `decide` notes) apply
/// unchanged to distributed executions.
fn sim_trace(led: &LedgerInner) -> Trace {
    let mut t = Trace::new();
    for (tick, node, text) in &led.notes {
        t.push(
            SimTime::from_ticks(*tick),
            TraceEvent::Note { proc: ProcId(*node), text: text.clone() },
        );
    }
    t
}

/// Evaluates every oracle. `durable[i]` is the set of transactions
/// `engines[i]` durably committed, scanned once by the caller.
pub(crate) fn evaluate(
    cfg: &DistConfig,
    stats: &DistStats,
    led: &LedgerInner,
    engines: &[Engine],
    durable: &[BTreeSet<TxnId>],
    trace: &mcv_trace::CausalTrace,
) -> Vec<OracleResult> {
    let mut out = Vec::new();
    let txns = cfg.global_txns();

    // Atomicity: per transaction, the set of shard engines that
    // durably committed it must not coexist with a shard that decided
    // abort; and a shard-site commit decision must be backed by its
    // engine's durable commit.
    {
        let mut bad = Vec::new();
        for t in &txns {
            let committed_shards: Vec<usize> = durable
                .iter()
                .enumerate()
                .filter(|(_, ids)| ids.contains(t))
                .map(|(i, _)| i + 1)
                .collect();
            let abort_nodes: Vec<usize> = led
                .decided
                .iter()
                .filter(|((node, txn), commit)| *txn == t.0 && !**commit && *node > 0)
                .map(|((node, _), _)| *node)
                .collect();
            if !committed_shards.is_empty() && !abort_nodes.is_empty() {
                bad.push(format!(
                    "T{}: committed at shard(s) {committed_shards:?} but aborted at node(s) {abort_nodes:?}",
                    t.0
                ));
            }
            for ((node, txn), commit) in &led.decided {
                if *txn == t.0 && *commit && *node > 0 && !committed_shards.contains(node) {
                    bad.push(format!(
                        "T{}: node {node} decided commit but its engine has no durable commit",
                        t.0
                    ));
                }
            }
        }
        out.push(result("atomicity", bad.is_empty(), bad.join("; ")));
    }

    // AC1 (agreement): every node that decides, decides the same way.
    {
        let st = sim_trace(led);
        let detail = match mcv_commit::monitor::check_uniformity(&st) {
            Ok(()) => String::new(),
            Err(vs) => vs
                .iter()
                .map(|v| {
                    format!(
                        "T{} committed at node {} / aborted at node {}",
                        v.txn.0, v.committed_at.0, v.aborted_at.0
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
        };
        out.push(result("ac1_agreement", detail.is_empty(), detail));
    }

    // AC2 (validity): a no-vote forbids commit; a fault-free run with
    // only yes votes must commit everything.
    {
        let mut bad = Vec::new();
        if cfg.vote_no.is_some() {
            for t in &txns {
                if led.decided.iter().any(|((_, txn), commit)| *txn == t.0 && *commit) {
                    bad.push(format!("T{} committed despite a no vote", t.0));
                }
            }
        }
        let fault_free = cfg.schedule.is_empty() && cfg.crash_at.is_none() && cfg.vote_no.is_none();
        if fault_free {
            for t in &txns {
                if !durable.iter().all(|ids| ids.contains(t)) {
                    bad.push(format!("T{} did not commit in a fault-free all-yes run", t.0));
                }
            }
        }
        out.push(result("ac2_validity", bad.is_empty(), bad.join("; ")));
    }

    // AC3 (stability): no node ever reverses a decision it made.
    out.push(result("ac3_stability", led.flips.is_empty(), led.flips.join("; ")));

    // Termination: the run settled before the deadline, with every
    // operational node that joined a transaction's protocol decided
    // on it. A node that crashed or was cut off before the vote
    // request never participates and owes no decision — the same
    // exemption the simulator's oracle grants via
    // `local_state(txn).is_none()`.
    {
        let mut bad = Vec::new();
        if stats.timed_out {
            bad.push("deadline fired before the run settled".to_owned());
        }
        for (node, up) in led.up.iter().enumerate() {
            if !up {
                continue;
            }
            for t in &txns {
                if led.participated.contains(&(node, t.0))
                    && !led.decided.contains_key(&(node, t.0))
                {
                    bad.push(format!("up node {node} undecided on T{}", t.0));
                }
            }
        }
        out.push(result("termination", bad.is_empty(), bad.join("; ")));
    }

    // Serializability: each shard's sampled history must stay
    // conflict-serializable.
    {
        let bad: Vec<String> = engines
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.sampled_history().is_conflict_serializable())
            .map(|(i, _)| format!("shard {} history not conflict-serializable", i + 1))
            .collect();
        out.push(result("serializability", bad.is_empty(), bad.join("; ")));
    }

    // Recovery: replaying each shard's durable WAL image must
    // reproduce exactly its committed state.
    {
        let mut bad = Vec::new();
        for (i, e) in engines.iter().enumerate() {
            let recovered = Wal::recover_bytes(&e.durable_image());
            let state = e.state();
            let diverged = recovered
                .keys()
                .chain(state.keys())
                .find(|item| recovered.get(*item) != state.get(*item));
            if let Some(item) = diverged {
                bad.push(format!(
                    "shard {}: WAL replay diverges from committed state at {item:?} ({:?} vs {:?})",
                    i + 1,
                    recovered.get(item),
                    state.get(item)
                ));
            }
        }
        out.push(result("recovery", bad.is_empty(), bad.join("; ")));
    }

    // Causal order: the trace satisfies the happens-before rules
    // (Deliver cites its Send, forces precede commit acks, Lamport
    // clocks monotone, ...).
    {
        let hb = mcv_trace::check(trace);
        let detail =
            hb.violations.iter().take(5).map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
        out.push(result("causal_order", hb.ok(), detail));
    }

    debug_assert_eq!(out.len(), DIST_ORACLE_NAMES.len());
    out
}
