//! Trace-based property monitors: the three global properties of
//! Chapter 4, checked on executions instead of proved on specs.
//!
//! - **Uniform outcome / atomicity**: every site that decides a
//!   transaction decides the same way (the executable face of the
//!   *Consistent State Maintenance* rule "no two concurrent local
//!   states hold commit and abort").
//! - **Non-blocking**: every operational site reaches a decision
//!   without waiting for failed sites to recover.
//! - **Validity**: if all sites voted yes and nobody failed, the
//!   outcome is commit; if anyone voted no, abort.

use mcv_sim::{ProcId, SimTime, Trace};
use mcv_trace::EventKind;
use mcv_txn::TxnId;
use std::collections::BTreeMap;

/// A decision observed in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedDecision {
    /// When.
    pub time: SimTime,
    /// Which site.
    pub site: ProcId,
    /// Which transaction.
    pub txn: TxnId,
    /// `true` = commit.
    pub commit: bool,
}

/// Extracts every site decision from a trace: its `Commit` and
/// `Abort` events, in order.
///
/// Sites report decisions through [`mcv_sim::Ctx::record`] as typed
/// events, so there is nothing to parse: a free-form note is a note,
/// whatever its text says, and never counts as a decision.
pub fn decisions(trace: &Trace) -> Vec<ObservedDecision> {
    trace
        .entries()
        .iter()
        .filter_map(|e| {
            let (txn, commit) = match e.event {
                EventKind::Commit { txn } => (txn, true),
                EventKind::Abort { txn } => (txn, false),
                _ => return None,
            };
            Some(ObservedDecision { time: e.time, site: e.proc, txn: TxnId(txn), commit })
        })
        .collect()
}

/// The decisions that reverse an earlier decision of the same site on
/// the same transaction — what stability (AC3) forbids.
pub fn flips(trace: &Trace) -> Vec<ObservedDecision> {
    let mut first: BTreeMap<(ProcId, TxnId), bool> = BTreeMap::new();
    decisions(trace)
        .into_iter()
        .filter(|d| *first.entry((d.site, d.txn)).or_insert(d.commit) != d.commit)
        .collect()
}

/// Violations found by [`check_uniformity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformityViolation {
    /// The split transaction.
    pub txn: TxnId,
    /// A site that committed.
    pub committed_at: ProcId,
    /// A site that aborted.
    pub aborted_at: ProcId,
}

/// Checks that no transaction was committed at one site and aborted at
/// another — the uniform-commitment (atomicity) property.
pub fn check_uniformity(trace: &Trace) -> Result<(), Vec<UniformityViolation>> {
    let mut first_commit: BTreeMap<TxnId, ProcId> = BTreeMap::new();
    let mut first_abort: BTreeMap<TxnId, ProcId> = BTreeMap::new();
    for d in decisions(trace) {
        if d.commit {
            first_commit.entry(d.txn).or_insert(d.site);
        } else {
            first_abort.entry(d.txn).or_insert(d.site);
        }
    }
    let violations: Vec<UniformityViolation> = first_commit
        .iter()
        .filter_map(|(txn, c)| {
            first_abort.get(txn).map(|a| UniformityViolation {
                txn: *txn,
                committed_at: *c,
                aborted_at: *a,
            })
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_sim::{Ctx, Process, World, WorldConfig};

    fn decided(time: u64, proc: usize, txn: u64, commit: bool) -> (u64, usize, EventKind) {
        let kind = if commit { EventKind::Commit { txn } } else { EventKind::Abort { txn } };
        (time, proc, kind)
    }

    fn trace_with(events: &[(u64, usize, EventKind)]) -> Trace {
        let mut t = Trace::new();
        for (time, proc, kind) in events {
            t.push(SimTime::from_ticks(*time), ProcId(*proc), kind.clone());
        }
        t
    }

    #[test]
    fn decisions_read_typed_events() {
        let t = trace_with(&[decided(3, 1, 7, true), decided(4, 2, 7, false)]);
        let ds = decisions(&t);
        let seen: Vec<_> =
            ds.iter().map(|d| (d.time.ticks(), d.site.0, d.txn.0, d.commit)).collect();
        assert_eq!(seen, [(3, 1, 7, true), (4, 2, 7, false)]);
    }

    #[test]
    fn uniformity_catches_split_brain() {
        let t = trace_with(&[decided(3, 1, 7, true), decided(4, 2, 7, false)]);
        let v = check_uniformity(&t).unwrap_err();
        assert_eq!(v[0].txn, TxnId(7));
    }

    #[test]
    fn uniform_traces_pass() {
        let t =
            trace_with(&[decided(3, 1, 7, true), decided(4, 2, 7, true), decided(5, 0, 8, false)]);
        assert!(check_uniformity(&t).is_ok());
        assert!(flips(&t).is_empty());
        let flipped = trace_with(&[decided(3, 1, 7, true), decided(4, 1, 7, false)]);
        assert_eq!(flips(&flipped), decisions(&flipped)[1..]);
    }

    #[test]
    fn unrelated_notes_ignored() {
        let t = trace_with(&[
            (1, 0, EventKind::State { txn: 1, state: "c1".into() }),
            (2, 0, EventKind::Note { text: "election T1 candidate p2".into() }),
        ]);
        assert!(decisions(&t).is_empty());
    }

    /// Site 0 writes notes that read like decisions on T7; site 1
    /// records the one real (typed) decision.
    struct LookAlike;
    impl Process<()> for LookAlike {
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            if ctx.id() == ProcId(0) {
                ctx.note("decide T7 maybe");
                ctx.note("decide T7 abort");
            } else {
                ctx.record(EventKind::Commit { txn: 7 });
            }
        }
        fn on_message(&mut self, _: &mut Ctx<()>, _: ProcId, _: ()) {}
        fn on_timer(&mut self, _: &mut Ctx<()>, _: u64) {}
    }

    #[test]
    fn a_note_shaped_like_a_decision_is_not_one() {
        let mut w = World::new(WorldConfig::default());
        w.add_process(LookAlike);
        w.add_process(LookAlike);
        w.run();
        let ds = decisions(w.trace());
        assert_eq!(ds.len(), 1, "only the typed commit is a decision: {ds:?}");
        assert_eq!((ds[0].site, ds[0].commit), (ProcId(1), true));
        assert!(check_uniformity(w.trace()).is_ok());
    }
}
