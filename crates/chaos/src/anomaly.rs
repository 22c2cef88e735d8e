//! Isolation verdicts over causal traces.
//!
//! The engine's MVCC paths emit `SnapshotRead` (the version a read saw),
//! `VersionInstall` (the version a commit installed) and `Commit` events.
//! [`detect_anomalies`] feeds those of the committed transactions to
//! [`ConflictGraph::multi_version`], the one dependency graph of the
//! workspace, and records its ReadCommitted, SnapshotIsolation and
//! Serializable verdicts with a witness cycle for each level refuted. A
//! write skew is the cycle `T1 -rw-> T2 -rw-> T1`, which SI admits and
//! Serializable refutes; a long fork or a lost update is a cycle that SI
//! refutes. Pure-2PL runs emit none of these events and come out clean:
//! their isolation is judged on the sampled single-version history.

use mcv_trace::{CausalTrace, EventKind};
use mcv_txn::{ConflictGraph, Dependency, Isolation, TxnId};
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// The three isolation verdicts on one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyReport {
    /// Committed MVCC transactions examined.
    pub txns: usize,
    /// Dependency edges between them.
    pub edges: usize,
    /// A cycle refuting ReadCommitted, if the run violates it.
    pub rc: Option<Vec<Dependency>>,
    /// A cycle refuting SnapshotIsolation, if the run violates it.
    pub si: Option<Vec<Dependency>>,
    /// A cycle refuting Serializable, if the run violates it.
    pub ser: Option<Vec<Dependency>>,
}

impl AnomalyReport {
    /// The cycle refuting `level`, or `None` when the run satisfies it.
    pub fn violation(&self, level: Isolation) -> Option<&[Dependency]> {
        match level {
            Isolation::ReadCommitted => &self.rc,
            Isolation::SnapshotIsolation => &self.si,
            Isolation::Serializable => &self.ser,
        }
        .as_deref()
    }
}

/// Judges the committed MVCC transactions of `trace` at every level.
pub fn detect_anomalies(trace: &CausalTrace) -> AnomalyReport {
    let committed: HashSet<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Commit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    let (mut reads, mut installs) = (Vec::new(), Vec::new());
    for e in &trace.events {
        let (to, txn, item, ts) = match &e.kind {
            EventKind::SnapshotRead { txn, item, ts } => (&mut reads, txn, item, ts),
            EventKind::VersionInstall { txn, item, ts } => (&mut installs, txn, item, ts),
            _ => continue,
        };
        if committed.contains(txn) {
            to.push((TxnId(*txn), item.as_str(), *ts));
        }
    }
    let graph = ConflictGraph::multi_version(&reads, &installs);
    let [rc, si, ser] = Isolation::ALL.map(|level| graph.check(level).err());
    AnomalyReport { txns: graph.transactions().len(), edges: graph.edge_count(), rc, si, ser }
}

/// A shrunk, replayable anomaly counterexample packaged as JSON —
/// `mcv-mvcc`'s analogue of [`crate::Artifact`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyArtifact {
    /// Artifact identifier (refuted level + isolation + seed).
    pub id: String,
    /// The level the run refutes.
    pub level: Isolation,
    /// Isolation level the run executed under.
    pub isolation: String,
    /// Driver seed that reproduces it.
    pub seed: u64,
    /// Concurrent clients in the shrunk run.
    pub clients: usize,
    /// Transactions in the shrunk run.
    pub txns: u64,
    /// Item pairs of the write-skew workload.
    pub pairs: usize,
    /// The verdicts, with the refuting cycles.
    pub witnesses: AnomalyReport,
    /// Shell command that replays this counterexample.
    pub replay_cmd: String,
}

impl AnomalyArtifact {
    /// Packages a run that refutes `level`.
    pub fn new(
        level: Isolation,
        isolation: &str,
        seed: u64,
        clients: usize,
        txns: u64,
        pairs: usize,
        witnesses: AnomalyReport,
    ) -> Self {
        let id = format!("anomaly-{level}-{isolation}-seed{seed}");
        let replay_cmd = crate::replay_command("engine", &format!("{id}.json"));
        AnomalyArtifact {
            id,
            level,
            isolation: isolation.to_owned(),
            seed,
            clients,
            txns,
            pairs,
            witnesses,
            replay_cmd,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Parses an artifact back from JSON, deriving `replay_cmd` from
    /// the id as [`AnomalyArtifact::new`] does.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        let artifact: Self = serde_json::from_str(text)?;
        let replay_cmd = crate::replay_command("engine", &format!("{}.json", artifact.id));
        Ok(AnomalyArtifact { replay_cmd, ..artifact })
    }

    /// Writes `<id>.json` into `dir` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcv_trace::Event;

    fn ev(id: u64, kind: EventKind) -> Event {
        Event { id, site: 0, seq: id, lamport: id, cause: None, time: 0, wall_ns: 0, kind }
    }

    /// The canonical write-skew execution: both txns snapshot at ts 2,
    /// t1 reads {x,y} writes x@3, t2 reads {x,y} writes y@4, both
    /// commit.
    fn skew_trace() -> CausalTrace {
        CausalTrace {
            events: vec![
                ev(1, EventKind::SnapshotOpen { txn: 1, ts: 2 }),
                ev(2, EventKind::SnapshotOpen { txn: 2, ts: 2 }),
                ev(3, EventKind::SnapshotRead { txn: 1, item: "x".into(), ts: 1 }),
                ev(4, EventKind::SnapshotRead { txn: 1, item: "y".into(), ts: 2 }),
                ev(5, EventKind::SnapshotRead { txn: 2, item: "x".into(), ts: 1 }),
                ev(6, EventKind::SnapshotRead { txn: 2, item: "y".into(), ts: 2 }),
                ev(7, EventKind::VersionInstall { txn: 1, item: "x".into(), ts: 3 }),
                ev(8, EventKind::Commit { txn: 1 }),
                ev(9, EventKind::VersionInstall { txn: 2, item: "y".into(), ts: 4 }),
                ev(10, EventKind::Commit { txn: 2 }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn a_write_skew_trace_refutes_only_serializable() {
        let report = detect_anomalies(&skew_trace());
        assert_eq!((report.txns, report.edges), (2, 2));
        assert_eq!(report.violation(Isolation::ReadCommitted), None);
        assert_eq!(report.violation(Isolation::SnapshotIsolation), None);
        let cycle: Vec<String> = report.ser.iter().flatten().map(ToString::to_string).collect();
        assert_eq!(cycle, ["T1 -rw(y)-> T2", "T2 -rw(x)-> T1"]);
    }

    #[test]
    fn uncommitted_transactions_never_witness() {
        let mut t = skew_trace();
        t.events.remove(9); // drop t2's commit
        let report = detect_anomalies(&t);
        assert_eq!((report.txns, report.ser), (1, None));
    }

    #[test]
    fn pure_2pl_trace_is_trivially_clean() {
        let t = CausalTrace {
            events: vec![
                ev(1, EventKind::LockAcquire { txn: 1, item: "x".into(), exclusive: true }),
                ev(2, EventKind::Commit { txn: 1 }),
            ],
            dropped: 0,
        };
        assert_eq!(detect_anomalies(&t), AnomalyReport::default(), "no MVCC events, no nodes");
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let report = detect_anomalies(&skew_trace());
        let a = AnomalyArtifact::new(Isolation::Serializable, "si", 17, 2, 8, 4, report);
        assert_eq!(a.id, "anomaly-ser-si-seed17");
        let back = AnomalyArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let old = a.to_json().replace(&a.replay_cmd, "cargo run --example engine_stress");
        assert_eq!(
            AnomalyArtifact::from_json(&old).unwrap(),
            a,
            "the stored command is re-derived"
        );
    }
}
