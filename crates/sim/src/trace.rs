//! The world trace: the ordered record of everything observable that
//! happened in a simulated run, in the one event vocabulary of the
//! workspace, [`mcv_trace::EventKind`].
//!
//! Each entry is one event the world also hands to the causal recorder
//! (when one is installed): deliveries, drops, timer fires, crashes and
//! recoveries, and whatever the sites recorded through
//! [`crate::Ctx::record`] — `State` changes, `Commit`/`Abort`
//! decisions and free-form `Note`s. The property monitors in
//! `mcv-commit` read the decisions off it, and `repro fig3.1` renders
//! it. Message labels (`Deliver`, `Drop`) are rendered only while a
//! causal recorder is installed and are empty otherwise.

use crate::time::{ProcId, SimTime};
use mcv_trace::EventKind;
use std::fmt;

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceEntry {
    /// When it happened.
    pub time: SimTime,
    /// The process that observed it (the receiver of a delivery or a
    /// drop at a dead receiver; the sender of a drop on the wire).
    pub proc: ProcId,
    /// What happened.
    pub event: EventKind,
}

/// The ordered trace of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event observed by `proc`.
    pub fn push(&mut self, time: SimTime, proc: ProcId, event: EventKind) {
        self.entries.push(TraceEntry { time, proc, event });
    }

    /// All entries in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The entries of one process, in order.
    pub fn of(&self, proc: ProcId) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.proc == proc)
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.time, self.proc, self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_filter_by_process() {
        let mut t = Trace::new();
        let note = |text: &str| EventKind::Note { text: text.into() };
        t.push(SimTime::from_ticks(1), ProcId(0), note("a"));
        t.push(SimTime::from_ticks(2), ProcId(1), note("b"));
        t.push(SimTime::from_ticks(3), ProcId(0), EventKind::Commit { txn: 7 });
        let of0: Vec<&EventKind> = t.of(ProcId(0)).map(|e| &e.event).collect();
        assert_eq!(of0, [&note("a"), &EventKind::Commit { txn: 7 }]);
        assert_eq!(t.entries().len(), 3);
    }

    #[test]
    fn display_is_line_per_entry() {
        let mut t = Trace::new();
        t.push(SimTime::from_ticks(1), ProcId(2), EventKind::Crash);
        t.push(SimTime::from_ticks(2), ProcId(1), EventKind::Abort { txn: 7 });
        let lines: Vec<String> = t.entries().iter().map(ToString::to_string).collect();
        assert_eq!(lines, ["t1 p2: CRASH", "t2 p1: t7 ABORT"]);
    }
}
