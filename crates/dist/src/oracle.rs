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
use mcv_txn::{TxnId, Wal};
use std::collections::{BTreeMap, BTreeSet};

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

/// Atomicity: per transaction, the set of shard engines that durably
/// committed it must not coexist with a shard that decided abort; and a
/// shard-site commit decision must be backed by its engine's durable
/// commit. `decided` holds each transaction's `(node, commit)`
/// decisions in node order; `durable[i]` is shard `i + 1`'s durably
/// committed set. Returns one line per violation, naming the
/// transaction.
fn atomicity(
    txns: &[TxnId],
    decided: &BTreeMap<u64, Vec<(usize, bool)>>,
    durable: &[BTreeSet<TxnId>],
) -> Vec<String> {
    let mut bad = Vec::new();
    for t in txns {
        let committed_shards: Vec<usize> = durable
            .iter()
            .enumerate()
            .filter(|(_, ids)| ids.contains(t))
            .map(|(i, _)| i + 1)
            .collect();
        let decisions = decided.get(&t.0).map_or(&[][..], Vec::as_slice);
        let abort_nodes: Vec<usize> = decisions
            .iter()
            .filter(|&&(node, commit)| !commit && node > 0)
            .map(|&(n, _)| n)
            .collect();
        if !committed_shards.is_empty() && !abort_nodes.is_empty() {
            bad.push(format!(
                "T{}: committed at shard(s) {committed_shards:?} but aborted at node(s) {abort_nodes:?}",
                t.0
            ));
        }
        for &(node, commit) in decisions {
            if commit && node > 0 && !committed_shards.contains(&node) {
                bad.push(format!(
                    "T{}: node {node} decided commit but its engine has no durable commit",
                    t.0
                ));
            }
        }
    }
    bad
}

fn result(name: &str, pass: bool, detail: String) -> OracleResult {
    mcv_obs::counter(&format!("dist.oracle.{name}.{}", if pass { "pass" } else { "fail" }), 1);
    OracleResult { name: name.to_owned(), pass, detail }
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

    // Every decision, grouped by transaction once; AC2 reuses it.
    let by_txn = {
        let _span = mcv_obs::Span::enter("dist.oracle.atomicity");
        let mut by_txn: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();
        for (&(node, txn), &commit) in &led.decided {
            by_txn.entry(txn).or_default().push((node, commit));
        }
        let bad = atomicity(&txns, &by_txn, durable);
        out.push(result("atomicity", bad.is_empty(), bad.join("; ")));
        by_txn
    };

    // AC1 (agreement): every node that decides, decides the same way.
    {
        let _span = mcv_obs::Span::enter("dist.oracle.ac1_agreement");
        let detail = match mcv_commit::monitor::check_uniformity(&led.trace) {
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
        let _span = mcv_obs::Span::enter("dist.oracle.ac2_validity");
        let mut bad = Vec::new();
        if cfg.vote_no.is_some() {
            for t in &txns {
                if by_txn.get(&t.0).is_some_and(|ds| ds.iter().any(|&(_, commit)| commit)) {
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
    {
        let _span = mcv_obs::Span::enter("dist.oracle.ac3_stability");
        let flips: Vec<String> = mcv_commit::monitor::flips(&led.trace)
            .iter()
            .map(|d| {
                let to = if d.commit { "commit" } else { "abort" };
                format!("node {} flipped T{} to {to}", d.site.0, d.txn.0)
            })
            .collect();
        out.push(result("ac3_stability", flips.is_empty(), flips.join("; ")));
    }

    // Termination: the run settled before the deadline, with every
    // operational node that joined a transaction's protocol decided
    // on it. A node that crashed or was cut off before the vote
    // request never participates and owes no decision — the same
    // exemption the simulator's oracle grants via
    // `local_state(txn).is_none()`.
    {
        let _span = mcv_obs::Span::enter("dist.oracle.termination");
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
        let _span = mcv_obs::Span::enter("dist.oracle.serializability");
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
        let _span = mcv_obs::Span::enter("dist.oracle.recovery");
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
        let _span = mcv_obs::Span::enter("dist.oracle.causal_order");
        let hb = mcv_trace::check(trace);
        let detail =
            hb.violations.iter().take(5).map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
        out.push(result("causal_order", hb.ok(), detail));
    }

    debug_assert_eq!(out.len(), DIST_ORACLE_NAMES.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ts: &[u64]) -> BTreeSet<TxnId> {
        ts.iter().map(|&t| TxnId(t)).collect()
    }

    #[test]
    fn agreeing_shards_pass() {
        let decided = BTreeMap::from([(7, vec![(0, true), (1, true), (2, true)])]);
        assert!(atomicity(&[TxnId(7)], &decided, &[ids(&[7]), ids(&[7])]).is_empty());
        let aborted = BTreeMap::from([(7, vec![(0, false), (1, false), (2, false)])]);
        assert!(atomicity(&[TxnId(7)], &aborted, &[ids(&[]), ids(&[])]).is_empty());
    }

    #[test]
    fn commit_at_one_shard_with_abort_at_another_fails() {
        let decided = BTreeMap::from([(7, vec![(0, true), (1, true), (2, false)])]);
        let bad = atomicity(&[TxnId(7), TxnId(8)], &decided, &[ids(&[7]), ids(&[])]);
        assert_eq!(bad, ["T7: committed at shard(s) [1] but aborted at node(s) [2]"]);
    }

    #[test]
    fn commit_decision_without_a_durable_commit_fails() {
        let decided = BTreeMap::from([(9, vec![(0, true), (1, true), (2, true)])]);
        let bad = atomicity(&[TxnId(9)], &decided, &[ids(&[9]), ids(&[])]);
        assert_eq!(bad, ["T9: node 2 decided commit but its engine has no durable commit"]);
    }
}
