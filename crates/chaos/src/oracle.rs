//! Invariant oracles evaluated over a finished chaos run.
//!
//! The atomic-commitment properties follow Chockler & Gotsman's
//! AC1–AC5 formulation (and Chapter 4 of the thesis): agreement,
//! validity, decision stability, termination of correct processes —
//! plus the two storage-level properties the thesis proves from local
//! axioms: conflict-serializability of every site history and
//! WAL-recovery consistency.

use mcv_commit::monitor::{check_uniformity, decisions, flips};
use mcv_commit::{Msg, Scenario, Site};
use mcv_sim::{ProcId, World};
use mcv_txn::{TxnId, Wal};

/// One oracle's verdict for one run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OracleResult {
    /// Oracle name (stable identifier, see [`ORACLE_NAMES`]).
    pub name: String,
    /// Whether the invariant held.
    pub pass: bool,
    /// Human-readable evidence when it did not.
    pub detail: String,
}

impl OracleResult {
    fn pass(name: &str) -> Self {
        OracleResult { name: name.to_string(), pass: true, detail: String::new() }
    }

    fn fail(name: &str, detail: String) -> Self {
        OracleResult { name: name.to_string(), pass: false, detail }
    }

    fn check(name: &str, violations: Vec<String>) -> Self {
        if violations.is_empty() {
            OracleResult::pass(name)
        } else {
            OracleResult::fail(name, violations.join("; "))
        }
    }
}

/// Canonical oracle names, in evaluation order.
pub const ORACLE_NAMES: &[&str] = &[
    "ac1_agreement",
    "ac2_validity",
    "ac3_stability",
    "termination",
    "serializability",
    "wal_consistency",
    "causal_order",
];

/// Evaluates every oracle over the finished world of scenario `sc`.
/// `faulted` says whether the run deviated from the thesis' failure
/// model (a fault was injected, or hops could outlast the timeout); a
/// scenario crash point counts as a fault either way;
/// `wal_damage` holds violations the runner detected at torn-write
/// injection time; `trace` is the run's causal event trace (possibly a
/// flight-recorder window).
pub fn evaluate(
    world: &World<Msg, Site>,
    sc: &Scenario,
    faulted: bool,
    wal_damage: &[String],
    trace: &mcv_trace::CausalTrace,
) -> Vec<OracleResult> {
    let faulted = faulted || sc.coordinator_crash.is_some() || sc.cohort_crash.is_some();
    let ds = decisions(world.trace());
    let txns: Vec<TxnId> = (1..=sc.n_transactions.max(1) as u64).map(TxnId).collect();
    let mut out = Vec::new();

    // AC1 — agreement: no two sites decide differently on the same
    // transaction.
    out.push(match check_uniformity(world.trace()) {
        Ok(()) => OracleResult::pass("ac1_agreement"),
        Err(vs) => OracleResult::fail(
            "ac1_agreement",
            vs.iter()
                .map(|v| {
                    format!(
                        "{} committed at {} but aborted at {}",
                        v.txn, v.committed_at, v.aborted_at
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
        ),
    });

    // AC2 — validity: commit is only possible if every cohort voted
    // yes; and a fault-free unanimous-yes run must commit.
    let mut validity = Vec::new();
    if sc.vote_no_cohort.is_some() {
        for d in ds.iter().filter(|d| d.commit) {
            validity.push(format!("{} committed {} despite a no vote", d.site, d.txn));
        }
    } else if !faulted {
        for t in &txns {
            if !ds.iter().any(|d| d.txn == *t && d.commit) {
                validity.push(format!("fault-free unanimous-yes run did not commit {t}"));
            }
        }
    }
    out.push(OracleResult::check("ac2_validity", validity));

    // AC3/AC4 — stability: a site never reverses its own decision.
    let flipped = flips(world.trace())
        .iter()
        .map(|d| format!("{} flipped its decision on {}", d.site, d.txn))
        .collect();
    out.push(OracleResult::check("ac3_stability", flipped));

    // Termination: every site that is operational at the deadline and
    // participated in a transaction has decided it. (Crashed-forever
    // sites are exempt; the fault horizon is far below the deadline,
    // so survivors have a long quiet tail to finish in.)
    let mut undecided = Vec::new();
    for i in 0..world.n_procs() {
        let id = ProcId(i);
        if !world.is_up(id) {
            continue;
        }
        for t in &txns {
            let participated = world.process(id).local_state(*t).is_some();
            let decided = ds.iter().any(|d| d.site == id && d.txn == *t);
            if participated && !decided {
                undecided.push(format!("{id} never decided {t}"));
            }
        }
    }
    out.push(OracleResult::check("termination", undecided));

    // Serializability: each operational site's observed history has an
    // acyclic conflict graph.
    let mut non_ser = Vec::new();
    for i in 0..world.n_procs() {
        let id = ProcId(i);
        if !world.is_up(id) {
            continue;
        }
        if let Some(h) = world.process(id).db.history() {
            if !h.is_conflict_serializable() {
                non_ser.push(format!("{id} history not conflict-serializable: {h}"));
            }
        }
    }
    out.push(OracleResult::check("serializability", non_ser));

    // WAL consistency: torn writes never disturbed recovered state
    // (checked at injection time), every log round-trips through its
    // byte image, recovery is idempotent, and no transaction is both
    // committed and aborted in one log.
    let mut wal_bad: Vec<String> = wal_damage.to_vec();
    for i in 0..world.n_procs() {
        let id = ProcId(i);
        let wal = world.process(id).db.wal();
        if Wal::from_bytes_lossy(&wal.to_bytes()) != *wal {
            wal_bad.push(format!("{id} WAL does not round-trip through its byte image"));
        }
        if wal.recover() != wal.recover() {
            wal_bad.push(format!("{id} WAL recovery is not idempotent"));
        }
        let both: Vec<TxnId> = wal.committed().intersection(&wal.aborted()).copied().collect();
        if !both.is_empty() {
            wal_bad.push(format!("{id} WAL has both commit and abort for {both:?}"));
        }
    }
    out.push(OracleResult::check("wal_consistency", wal_bad));

    // Causal order: the recorded event trace satisfies happens-before
    // — no deliver precedes its send, per-site Lamport clocks are
    // strictly monotone, and no commit ack precedes the force that
    // made it durable. Ring-buffer windows are checked in the
    // eviction-tolerant mode.
    let hb = mcv_trace::check(trace);
    let causal: Vec<String> = hb.violations.iter().take(5).map(|v| v.to_string()).collect();
    out.push(OracleResult::check("causal_order", causal));

    debug_assert_eq!(out.len(), ORACLE_NAMES.len());
    for o in &out {
        mcv_obs::counter(
            &format!("chaos.oracle.{}.{}", o.name, if o.pass { "pass" } else { "fail" }),
            1,
        );
    }
    out
}
