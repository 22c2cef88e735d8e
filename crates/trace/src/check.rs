//! The happens-before checker: replays a trace and verifies causal
//! sanity. Reused as the `causal_order` chaos oracle.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{CausalTrace, Event, EventKind};

/// How strict the replay is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Full traces: sequence numbers start at 1, every cited cause
    /// must be present, every deliver must cite its send.
    Strict,
    /// Flight-recorder windows: the prefix may have been evicted, so
    /// causes older than the window and delivers without visible sends
    /// are tolerated. Everything visible is still checked.
    Window,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HbViolation {
    /// Id of the offending event (`None` for trace-level problems).
    pub event: Option<u64>,
    /// Short rule name (`seq_contiguous`, `lamport_monotone`,
    /// `cause_order`, `deliver_has_send`, `deliver_seq`,
    /// `force_before_ack`, `force_has_append`).
    pub rule: String,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for HbViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            Some(id) => write!(f, "[{}] event {}: {}", self.rule, id, self.detail),
            None => write!(f, "[{}] {}", self.rule, self.detail),
        }
    }
}

/// Outcome of one checker replay.
#[derive(Debug, Clone, PartialEq)]
pub struct HbReport {
    /// Mode the check ran in.
    pub mode: CheckMode,
    /// Events examined.
    pub checked: usize,
    /// Every violation found, in trace order.
    pub violations: Vec<HbViolation>,
}

impl HbReport {
    /// True when the trace is causally sane.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        if self.ok() {
            format!("hb-check ok: {} events, 0 violations", self.checked)
        } else {
            format!(
                "hb-check FAILED: {} events, {} violations",
                self.checked,
                self.violations.len()
            )
        }
    }
}

/// Checks `trace`, picking [`CheckMode::Strict`] for complete traces
/// and [`CheckMode::Window`] for flight-recorder windows.
pub fn check(trace: &CausalTrace) -> HbReport {
    let mode = if trace.complete() { CheckMode::Strict } else { CheckMode::Window };
    check_mode(trace, mode)
}

/// Checks `trace` under an explicit mode.
pub fn check_mode(trace: &CausalTrace, mode: CheckMode) -> HbReport {
    let strict = mode == CheckMode::Strict;
    let mut violations = Vec::new();
    let mut viol = |event: Option<u64>, rule: &str, detail: String| {
        violations.push(HbViolation { event, rule: rule.to_owned(), detail });
    };

    let first_id = trace.events.first().map_or(0, |e| e.id);
    // Where an earlier event sits, by id. While ids increase (the rule
    // checked below) that is a binary search over the events already
    // replayed, after one probe at the id's offset from the first id
    // (a recorder numbers its events densely). A trace breaking the
    // rule switches to a map of every id seen, so its remaining causes
    // resolve as before.
    let mut pos_of: Option<BTreeMap<u64, usize>> = None;
    let lookup = |pos_of: &Option<BTreeMap<u64, usize>>, pos: usize, cid: u64| match pos_of {
        None => {
            let seen = &trace.events[..pos];
            let dense = usize::try_from(cid.wrapping_sub(first_id)).ok();
            dense
                .filter(|&p| seen.get(p).is_some_and(|e| e.id == cid))
                .or_else(|| seen.binary_search_by_key(&cid, |e| e.id).ok())
        }
        Some(map) => map.get(&cid).copied(),
    };
    let mut last_id = 0u64;
    // Per site: the last sequence number, Lamport clock and delivery
    // sequence number seen (0 = none yet).
    let mut sites: BTreeMap<usize, [u64; 3]> = BTreeMap::new();
    // Per-(wal, txn) lsn of the txn's WAL commit record, and the
    // highest lsn forced so far per wal. Lsn spaces are per-log:
    // concurrent per-shard WALs (mcv-dist) overlap, so the global-max
    // shortcut is only sound when the trace contains a single wal.
    let mut commit_lsn: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut forced: BTreeMap<u64, u64> = BTreeMap::new();
    // Every wal the trace names, and the highest appended lsn per wal
    // over the WHOLE trace (not just the prefix before a force): append
    // and force come from different threads, so an append's trace event
    // may legitimately land after the force that covered it. A force
    // claiming an lsn no append anywhere in the trace reaches is
    // corruption — lsns are record counts, so `forced_records` can
    // never exceed them.
    let mut wal_ids = std::collections::BTreeSet::new();
    let mut max_append: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &trace.events {
        match &e.kind {
            EventKind::WalAppend { lsn, wal, .. } => {
                wal_ids.insert(*wal);
                let m = max_append.entry(*wal).or_insert(0);
                *m = (*m).max(*lsn);
            }
            EventKind::WalForce { wal, .. } => {
                wal_ids.insert(*wal);
            }
            _ => {}
        }
    }
    let multi_wal = wal_ids.len() > 1;

    for (pos, e) in trace.events.iter().enumerate() {
        if e.id <= last_id {
            viol(Some(e.id), "cause_order", format!("event id not increasing (after {last_id})"));
            pos_of.get_or_insert_with(|| {
                trace.events[..pos].iter().enumerate().map(|(p, e)| (e.id, p)).collect()
            });
        }
        last_id = e.id;

        // Per-site sequence numbers are contiguous; strict traces
        // start every site at 1.
        let [seq, lam, deliver_seq] = sites.entry(e.site).or_default();
        if *seq == 0 {
            if strict && e.seq != 1 {
                viol(
                    Some(e.id),
                    "seq_contiguous",
                    format!("site {} starts at seq {}", e.site, e.seq),
                );
            }
        } else if e.seq != *seq + 1 {
            viol(
                Some(e.id),
                "seq_contiguous",
                format!("site {} seq {} after {} (expected {})", e.site, e.seq, *seq, *seq + 1),
            );
        }
        *seq = e.seq;

        // Lamport clocks are strictly monotone per site.
        if e.lamport <= *lam {
            viol(
                Some(e.id),
                "lamport_monotone",
                format!("site {} clock {} after {}", e.site, e.lamport, *lam),
            );
        }
        *lam = e.lamport;

        // A cited cause happened before: recorded earlier, with a
        // strictly smaller Lamport clock.
        if let Some(cid) = e.cause {
            if cid >= e.id {
                viol(Some(e.id), "cause_order", format!("cause {cid} does not precede event"));
            } else if let Some(cpos) = lookup(&pos_of, pos, cid) {
                let c: &Event = &trace.events[cpos];
                if c.lamport >= e.lamport {
                    viol(
                        Some(e.id),
                        "cause_order",
                        format!("cause {cid} clock {} >= effect clock {}", c.lamport, e.lamport),
                    );
                }
                if let EventKind::Deliver { from, label, .. } = &e.kind {
                    match &c.kind {
                        EventKind::Send { to, label: slabel }
                            if c.site == *from && *to == e.site && slabel == label => {}
                        _ => viol(
                            Some(e.id),
                            "deliver_has_send",
                            format!("cause {cid} is not the matching send"),
                        ),
                    }
                }
            } else if strict || cid >= first_id {
                viol(Some(e.id), "cause_order", format!("cause {cid} not in trace"));
            }
        } else if strict {
            if let EventKind::Deliver { from, .. } = &e.kind {
                viol(
                    Some(e.id),
                    "deliver_has_send",
                    format!("deliver from site {from} cites no send"),
                );
            }
        }

        // Per-site delivery sequence numbers are contiguous.
        if let EventKind::Deliver { deliver_seq: ds, .. } = &e.kind {
            let prev = deliver_seq;
            if *prev == 0 {
                if strict && *ds != 1 {
                    viol(
                        Some(e.id),
                        "deliver_seq",
                        format!("site {} first delivery has seq {}", e.site, ds),
                    );
                }
            } else if *ds != *prev + 1 {
                viol(
                    Some(e.id),
                    "deliver_seq",
                    format!("site {} delivery seq {} after {}", e.site, ds, *prev),
                );
            }
            *prev = *ds;
        }

        // Every commit-point force precedes its ack: a Commit whose WAL
        // commit record is visible must be preceded by a force covering
        // that record's lsn. Engine acks cite the covering WalForce
        // directly (the `wal.force.<id>` mark), which pins the check to
        // the right log even when several shard WALs interleave; an
        // uncited Commit falls back to the single-wal global check and
        // is skipped in multi-wal traces (an FSM-level decision there
        // says nothing about which log covered it — the dist atomicity
        // oracle owns that property).
        match &e.kind {
            EventKind::WalAppend { txn, lsn, what, wal } if what == "commit" => {
                commit_lsn.insert((*wal, *txn), *lsn);
            }
            EventKind::WalForce { upto, wal } => {
                // Strict traces carry every append, so a force mark
                // covering records with no matching append is a hole
                // in the log, not an evicted prefix.
                let appended = max_append.get(wal).copied().unwrap_or(0);
                if strict && *upto > appended {
                    viol(
                        Some(e.id),
                        "force_has_append",
                        format!(
                            "force covers lsn {upto} on wal{wal} but highest appended lsn is \
                             {appended}"
                        ),
                    );
                }
                let f = forced.entry(*wal).or_insert(0);
                *f = (*f).max(*upto);
            }
            EventKind::Commit { txn } => {
                let cited_force = e
                    .cause
                    .and_then(|cid| lookup(&pos_of, pos, cid))
                    .map(|cpos| &trace.events[cpos])
                    .and_then(|c| match &c.kind {
                        EventKind::WalForce { upto, wal } => Some((*upto, *wal)),
                        _ => None,
                    });
                if let Some((upto, wal)) = cited_force {
                    if let Some(lsn) = commit_lsn.get(&(wal, *txn)) {
                        if upto < *lsn {
                            viol(
                                Some(e.id),
                                "force_before_ack",
                                format!(
                                    "t{txn} ack at wal{wal} lsn {lsn} but cited force covers \
                                     only {upto}"
                                ),
                            );
                        }
                    }
                } else if let (false, Some(&wal)) = (multi_wal, wal_ids.first()) {
                    if let Some(&lsn) = commit_lsn.get(&(wal, *txn)) {
                        let forced_upto = forced.get(&wal).copied().unwrap_or(0);
                        if forced_upto < lsn {
                            viol(
                                Some(e.id),
                                "force_before_ack",
                                format!("t{txn} ack at lsn {lsn} but only {forced_upto} forced"),
                            );
                        }
                    }
                }
            }
            _ => {}
        }

        if let Some(map) = &mut pos_of {
            map.insert(e.id, pos);
        }
    }

    HbReport { mode, checked: trace.events.len(), violations }
}

/// Localizes a split-brain: if any transaction has both a COMMIT and an
/// ABORT decision in `trace`, renders the divergent decisions and their
/// backward causal chains.
pub fn explain_divergence(trace: &CausalTrace) -> Option<String> {
    let mut decisions: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Commit { txn } | EventKind::Abort { txn } => {
                decisions.entry(txn).or_default().push(e)
            }
            _ => {}
        }
    }
    for (txn, evs) in decisions {
        let commits: Vec<&&Event> =
            evs.iter().filter(|e| matches!(e.kind, EventKind::Commit { .. })).collect();
        let aborts: Vec<&&Event> =
            evs.iter().filter(|e| matches!(e.kind, EventKind::Abort { .. })).collect();
        if commits.is_empty() || aborts.is_empty() {
            continue;
        }
        let mut out = format!(
            "divergent decisions on txn {txn}: {} site(s) committed, {} aborted\n",
            commits.len(),
            aborts.len()
        );
        for e in commits.iter().chain(aborts.iter()) {
            out.push_str(&format!("  site {} decided {} — causal chain:\n", e.site, e.kind));
            for link in trace.chain(e.id) {
                out.push_str(&format!(
                    "    [{:>4}] t={:<5} s{} {}\n",
                    link.lamport, link.time, link.site, link.kind
                ));
            }
        }
        return Some(out);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{emit, emit_caused, record_trace, Recorder};

    fn clean_trace() -> CausalTrace {
        let ((), trace) = record_trace(None, || {
            let s = emit(0, 0, EventKind::Send { to: 1, label: "Prepare".into() });
            emit_caused(
                1,
                2,
                s,
                EventKind::Deliver { from: 0, label: "Prepare".into(), deliver_seq: 1 },
            );
            emit(1, 2, EventKind::State { txn: 1, state: "prepared".into() });
        });
        trace
    }

    #[test]
    fn accepts_clean_traces() {
        let report = check(&clean_trace());
        assert_eq!(report.mode, CheckMode::Strict);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn rejects_deliver_before_send() {
        let mut t = clean_trace();
        t.events[1].cause = Some(99); // later/never event
        let report = check(&t);
        assert!(report.violations.iter().any(|v| v.rule == "cause_order"), "{report:?}");
    }

    #[test]
    fn rejects_clock_regression() {
        let mut t = clean_trace();
        t.events[2].lamport = 1; // site 1 already saw clock 2
        let report = check(&t);
        assert!(report.violations.iter().any(|v| v.rule == "lamport_monotone"));
    }

    #[test]
    fn rejects_seq_gap() {
        let mut t = clean_trace();
        t.events[2].seq = 5;
        let report = check(&t);
        assert!(report.violations.iter().any(|v| v.rule == "seq_contiguous"));
    }

    #[test]
    fn causes_still_resolve_after_ids_stop_increasing() {
        let ((), mut t) = record_trace(None, || {
            for i in 0..4 {
                emit(0, i, EventKind::Note { text: format!("n{i}") });
            }
        });
        for (e, id) in t.events.iter_mut().zip([1, 5, 3, 4]) {
            e.id = id;
        }
        // Event 3 sits behind event 5: only the id map finds it.
        t.events[3].cause = Some(3);
        let report = check(&t);
        assert_eq!(report.violations.len(), 1, "{report:?}");
        assert!(report.violations[0].detail.starts_with("event id not increasing"), "{report:?}");
    }

    #[test]
    fn rejects_ack_before_force() {
        let ((), mut t) = record_trace(None, || {
            emit(0, 0, EventKind::WalAppend { txn: 3, lsn: 7, what: "commit".into(), wal: 0 });
            emit(1, 0, EventKind::WalForce { upto: 7, wal: 0 });
            emit(0, 0, EventKind::Commit { txn: 3 });
        });
        assert!(check(&t).ok());
        // Mutate: the force no longer covers the commit record.
        t.events[1].kind = EventKind::WalForce { upto: 6, wal: 0 };
        let report = check(&t);
        assert!(report.violations.iter().any(|v| v.rule == "force_before_ack"), "{report:?}");
    }

    #[test]
    fn rejects_force_without_matching_append() {
        let ((), t) = record_trace(None, || {
            emit(0, 0, EventKind::WalAppend { txn: 3, lsn: 7, what: "commit".into(), wal: 0 });
            emit(1, 0, EventKind::WalForce { upto: 7, wal: 0 });
            emit(0, 0, EventKind::Commit { txn: 3 });
        });
        assert!(check(&t).ok());
        // Hand-mutate the serialized trace the way a corrupt or
        // truncated capture would look: the force mark claims lsn 9
        // durable, but no append in the file ever reaches it.
        let mutated = t.to_jsonl().replace("\"upto\":7", "\"upto\":9");
        let t = CausalTrace::from_jsonl(&mutated).expect("mutated trace still parses");
        let report = check(&t);
        assert!(!report.ok(), "corrupt force mark accepted");
        let v = report
            .violations
            .iter()
            .find(|v| v.rule == "force_has_append")
            .expect("force_has_append violation");
        assert!(v.detail.contains("lsn 9"), "{v}");
        assert!(v.detail.contains("highest appended lsn is 7"), "{v}");
    }

    #[test]
    fn force_with_no_appends_at_all_is_rejected() {
        // Dropping every append line entirely is the other corruption
        // shape: the force cites a log the trace knows nothing about.
        let ((), t) = record_trace(None, || {
            emit(0, 0, EventKind::WalAppend { txn: 3, lsn: 2, what: "commit".into(), wal: 0 });
            emit(1, 0, EventKind::WalForce { upto: 2, wal: 0 });
        });
        let mutated: String = t
            .to_jsonl()
            .lines()
            .filter(|l| !l.contains("WalAppend"))
            .map(|l| format!("{l}\n"))
            .collect();
        let t = CausalTrace::from_jsonl(&mutated).expect("mutated trace still parses");
        // The append's site evaporated with its only event, so run the
        // wal rule in Strict explicitly (seq holes are flagged
        // separately and are not what this test pins).
        let report = check_mode(&t, CheckMode::Strict);
        assert!(report.violations.iter().any(|v| v.rule == "force_has_append"), "{report:?}");
        // Window mode stays tolerant: an evicted prefix legitimately
        // loses appends that the surviving force covered.
        let windowed = check_mode(&t, CheckMode::Window);
        assert!(windowed.violations.iter().all(|v| v.rule != "force_has_append"), "{windowed:?}");
    }

    #[test]
    fn window_mode_tolerates_evicted_prefix() {
        let rec = Recorder::ring(2);
        let s = rec.record(0, 0, None, EventKind::Send { to: 1, label: "M".into() });
        rec.record(0, 1, None, EventKind::Note { text: "fill".into() });
        rec.record(
            1,
            2,
            Some(s),
            EventKind::Deliver { from: 0, label: "M".into(), deliver_seq: 1 },
        );
        let t = rec.snapshot();
        assert_eq!(t.dropped, 1);
        let report = check(&t);
        assert_eq!(report.mode, CheckMode::Window);
        assert!(report.ok(), "{:?}", report.violations);
        // Strict mode on the same window complains.
        assert!(!check_mode(&t, CheckMode::Strict).ok());
    }

    #[test]
    fn explains_divergent_decisions() {
        let ((), t) = record_trace(None, || {
            let s = emit(0, 0, EventKind::Send { to: 1, label: "Commit".into() });
            emit(0, 0, EventKind::Commit { txn: 1 });
            let d = emit_caused(
                1,
                5,
                s,
                EventKind::Deliver { from: 0, label: "Commit".into(), deliver_seq: 1 },
            );
            crate::recorder::set_context(d);
            emit(1, 6, EventKind::Abort { txn: 1 });
            crate::recorder::set_context(None);
        });
        let text = explain_divergence(&t).expect("divergence found");
        assert!(text.contains("txn 1"), "{text}");
        assert!(text.contains("COMMIT") && text.contains("ABORT"));
        assert!(explain_divergence(&clean_trace()).is_none());
    }
}
