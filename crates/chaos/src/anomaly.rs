//! Weak-isolation anomaly detectors over causal traces.
//!
//! *Algebraic Laws for Weak Consistency* (Cerone, Gotsman & Yang)
//! characterizes isolation levels by the anomalies they admit. The two
//! detectors here decide, from an `mcv-trace` event log alone, whether
//! an execution exhibits:
//!
//! - **write skew** — two committed transactions with pinned snapshots
//!   each read an item the other wrote, both commit after the other's
//!   snapshot, and their write sets are disjoint. Admitted by
//!   SnapshotIsolation (first-committer-wins never sees the disjoint
//!   writes); excluded by SSI and 2PL.
//! - **long fork** — two readers observe two items' versions in
//!   opposite orders, i.e. their snapshots are not totally ordered.
//!   Admitted by ReadCommitted; excluded by SI and above (snapshots
//!   are prefixes of one commit order).
//!
//! The detectors consume the `SnapshotOpen` / `SnapshotRead` /
//! `VersionInstall` / `Commit` events the engine's MVCC paths emit.
//! Pure-2PL runs emit none of them and are trivially clean — which is
//! the correct verdict, since 2PL histories are serializable.

use mcv_trace::{CausalTrace, EventKind};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Per-transaction view reconstructed from the trace.
#[derive(Debug, Clone, Default)]
pub struct TxnView {
    /// Snapshot begin timestamp (`SnapshotOpen`), if one was pinned.
    pub begin_ts: Option<u64>,
    /// Commit timestamp of installed versions (`VersionInstall`).
    pub commit_ts: Option<u64>,
    /// Whether a `Commit` event was observed.
    pub committed: bool,
    /// First observed version timestamp per item read.
    pub reads: BTreeMap<String, u64>,
    /// Installed version timestamp per item written.
    pub writes: BTreeMap<String, u64>,
}

/// Extracts the MVCC transaction views from a trace. Transactions that
/// emitted no MVCC events (pure 2PL) do not appear.
pub fn txn_views(trace: &CausalTrace) -> BTreeMap<u64, TxnView> {
    let mut views: BTreeMap<u64, TxnView> = BTreeMap::new();
    let mut mvcc_txns: std::collections::BTreeSet<u64> = Default::default();
    for e in &trace.events {
        match &e.kind {
            EventKind::SnapshotOpen { txn, ts } => {
                views.entry(*txn).or_default().begin_ts = Some(*ts);
                mvcc_txns.insert(*txn);
            }
            EventKind::SnapshotRead { txn, item, ts } => {
                views.entry(*txn).or_default().reads.entry(item.clone()).or_insert(*ts);
                mvcc_txns.insert(*txn);
            }
            EventKind::VersionInstall { txn, item, ts } => {
                let v = views.entry(*txn).or_default();
                v.writes.insert(item.clone(), *ts);
                v.commit_ts = Some(*ts);
                mvcc_txns.insert(*txn);
            }
            EventKind::Commit { txn } => {
                views.entry(*txn).or_default().committed = true;
            }
            _ => {}
        }
    }
    views.retain(|txn, _| mvcc_txns.contains(txn));
    views
}

/// A write-skew witness: `t1` and `t2` committed concurrently, `t1`
/// read `x` which `t2` overwrote, `t2` read `y` which `t1` overwrote,
/// and neither wrote what the other wrote.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WriteSkew {
    /// First transaction.
    pub t1: u64,
    /// Second transaction.
    pub t2: u64,
    /// Item read by `t1`, written by `t2` after `t1`'s snapshot.
    pub x: String,
    /// Item read by `t2`, written by `t1` after `t2`'s snapshot.
    pub y: String,
}

/// A long-fork witness: `r1` saw `x` strictly newer than `r2` did,
/// while `r2` saw `y` strictly newer than `r1` did.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LongFork {
    /// First reader.
    pub r1: u64,
    /// Second reader.
    pub r2: u64,
    /// Item `r1` observed newer.
    pub x: String,
    /// Item `r2` observed newer.
    pub y: String,
}

/// Everything the detectors found in one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyReport {
    /// Write-skew witnesses (SI admits, SSI/2PL must not).
    pub write_skews: Vec<WriteSkew>,
    /// Long-fork witnesses (RC admits, SI and above must not).
    pub long_forks: Vec<LongFork>,
    /// MVCC transactions examined.
    pub txns: usize,
}

impl AnomalyReport {
    /// True when no anomaly was found.
    pub fn clean(&self) -> bool {
        self.write_skews.is_empty() && self.long_forks.is_empty()
    }
}

/// Runs both detectors over `trace` and tallies
/// `chaos.anomaly.write_skew` / `chaos.anomaly.long_fork` counters
/// into the ambient [`mcv_obs`] collector.
pub fn detect_anomalies(trace: &CausalTrace) -> AnomalyReport {
    let views = txn_views(trace);
    let report = AnomalyReport {
        write_skews: find_write_skews(&views),
        long_forks: find_long_forks(&views),
        txns: views.len(),
    };
    mcv_obs::counter("chaos.anomaly.write_skew", report.write_skews.len() as u64);
    mcv_obs::counter("chaos.anomaly.long_fork", report.long_forks.len() as u64);
    report
}

/// All write-skew witness pairs among the committed snapshot
/// transactions (each unordered pair reported once, `t1 < t2`).
pub fn find_write_skews(views: &BTreeMap<u64, TxnView>) -> Vec<WriteSkew> {
    let candidates: Vec<(&u64, &TxnView)> = views
        .iter()
        .filter(|(_, v)| {
            v.committed && v.begin_ts.is_some() && v.commit_ts.is_some() && !v.writes.is_empty()
        })
        .collect();
    let mut out = Vec::new();
    for (i, (id1, v1)) in candidates.iter().enumerate() {
        for (id2, v2) in &candidates[i + 1..] {
            if v1.writes.keys().any(|w| v2.writes.contains_key(w)) {
                continue; // overlapping write sets: not write skew
            }
            // x: an rw-antidependency t1 -> t2 (t1 read x, t2 committed
            // a newer x after t1's snapshot); y: the reverse edge. Both
            // present = the two-transaction cycle SI cannot see.
            let x = rw_edge(v1, v2);
            let y = rw_edge(v2, v1);
            if let (Some(x), Some(y)) = (x, y) {
                out.push(WriteSkew { t1: **id1, t2: **id2, x, y });
            }
        }
    }
    out
}

/// An item `reader` read whose version was overwritten by `writer`
/// committing after `reader`'s snapshot.
fn rw_edge(reader: &TxnView, writer: &TxnView) -> Option<String> {
    let begin = reader.begin_ts?;
    reader.reads.keys().find(|item| writer.writes.get(*item).is_some_and(|&ts| ts > begin)).cloned()
}

/// All long-fork witness pairs: two readers observing two items in
/// opposite version orders (each unordered pair reported once).
pub fn find_long_forks(views: &BTreeMap<u64, TxnView>) -> Vec<LongFork> {
    let readers: Vec<(&u64, &TxnView)> =
        views.iter().filter(|(_, v)| v.committed && v.reads.len() >= 2).collect();
    let mut out = Vec::new();
    for (i, (id1, v1)) in readers.iter().enumerate() {
        for (id2, v2) in &readers[i + 1..] {
            let witness = fork_witness(v1, v2);
            if let Some((x, y)) = witness {
                out.push(LongFork { r1: **id1, r2: **id2, x, y });
            }
        }
    }
    out
}

/// Items `(x, y)` such that `a` saw `x` newer than `b` did while `b`
/// saw `y` newer than `a` did — but only versions the reader did not
/// itself install (own writes are trivially "newer").
fn fork_witness(a: &TxnView, b: &TxnView) -> Option<(String, String)> {
    let common: Vec<&String> = a
        .reads
        .keys()
        .filter(|k| b.reads.contains_key(*k))
        .filter(|k| !a.writes.contains_key(*k) && !b.writes.contains_key(*k))
        .collect();
    let x = common.iter().find(|k| a.reads[**k] > b.reads[**k])?;
    let y = common.iter().find(|k| a.reads[**k] < b.reads[**k])?;
    Some(((*x).clone(), (*y).clone()))
}

/// A shrunk, replayable anomaly counterexample packaged as JSON —
/// `mcv-mvcc`'s analogue of [`crate::Artifact`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AnomalyArtifact {
    /// Artifact identifier (kind + isolation + seed).
    pub id: String,
    /// `write_skew` or `long_fork`.
    pub anomaly: String,
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
    /// The witnesses found.
    pub witnesses: AnomalyReport,
    /// Shell command that replays this counterexample.
    pub replay_cmd: String,
}

impl AnomalyArtifact {
    /// Packages a witnessed anomaly.
    pub fn new(
        anomaly: &str,
        isolation: &str,
        seed: u64,
        clients: usize,
        txns: u64,
        pairs: usize,
        witnesses: AnomalyReport,
    ) -> Self {
        let id = format!("anomaly-{anomaly}-{isolation}-seed{seed}");
        let replay_cmd = crate::replay_command("engine", &format!("{id}.json"));
        AnomalyArtifact {
            id,
            anomaly: anomaly.to_owned(),
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

    /// The canonical write-skew history: both txns snapshot at ts 2,
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
    fn detects_the_canonical_write_skew() {
        let report = detect_anomalies(&skew_trace());
        assert_eq!(report.write_skews.len(), 1);
        let ws = &report.write_skews[0];
        assert_eq!((ws.t1, ws.t2), (1, 2));
        assert!(!report.clean());
    }

    #[test]
    fn serialized_history_is_clean() {
        // Same two txns but t2 snapshots *after* t1's commit: the
        // second rw edge vanishes.
        let mut t = skew_trace();
        t.events[1] = ev(2, EventKind::SnapshotOpen { txn: 2, ts: 3 });
        t.events[4] = ev(5, EventKind::SnapshotRead { txn: 2, item: "x".into(), ts: 3 });
        let report = detect_anomalies(&t);
        assert!(report.write_skews.is_empty(), "{report:?}");
    }

    #[test]
    fn overlapping_write_sets_are_not_write_skew() {
        let mut t = skew_trace();
        // t2 also writes x: FCW territory, not write skew.
        t.events[8] = ev(9, EventKind::VersionInstall { txn: 2, item: "x".into(), ts: 4 });
        let report = detect_anomalies(&t);
        assert!(report.write_skews.is_empty());
    }

    #[test]
    fn uncommitted_transactions_never_witness() {
        let mut t = skew_trace();
        t.events.remove(9); // drop t2's commit
        let report = detect_anomalies(&t);
        assert!(report.write_skews.is_empty());
    }

    #[test]
    fn detects_a_long_fork() {
        // r1 sees x@2 y@1; r2 sees x@1 y@2: opposite orders.
        let t = CausalTrace {
            events: vec![
                ev(1, EventKind::SnapshotRead { txn: 1, item: "x".into(), ts: 2 }),
                ev(2, EventKind::SnapshotRead { txn: 1, item: "y".into(), ts: 1 }),
                ev(3, EventKind::SnapshotRead { txn: 2, item: "x".into(), ts: 1 }),
                ev(4, EventKind::SnapshotRead { txn: 2, item: "y".into(), ts: 2 }),
                ev(5, EventKind::Commit { txn: 1 }),
                ev(6, EventKind::Commit { txn: 2 }),
            ],
            dropped: 0,
        };
        let report = detect_anomalies(&t);
        assert_eq!(report.long_forks.len(), 1);
        assert_eq!(report.long_forks[0].r1, 1);
    }

    #[test]
    fn agreeing_snapshots_are_not_a_fork() {
        let t = CausalTrace {
            events: vec![
                ev(1, EventKind::SnapshotRead { txn: 1, item: "x".into(), ts: 2 }),
                ev(2, EventKind::SnapshotRead { txn: 1, item: "y".into(), ts: 2 }),
                ev(3, EventKind::SnapshotRead { txn: 2, item: "x".into(), ts: 1 }),
                ev(4, EventKind::SnapshotRead { txn: 2, item: "y".into(), ts: 1 }),
                ev(5, EventKind::Commit { txn: 1 }),
                ev(6, EventKind::Commit { txn: 2 }),
            ],
            dropped: 0,
        };
        assert!(detect_anomalies(&t).clean());
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
        let report = detect_anomalies(&t);
        assert!(report.clean());
        assert_eq!(report.txns, 0, "no MVCC events, no MVCC transactions");
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let report = detect_anomalies(&skew_trace());
        let a = AnomalyArtifact::new("write_skew", "si", 17, 2, 8, 4, report);
        let back = AnomalyArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let old = a.to_json().replace(&a.replay_cmd, "cargo run --example engine_stress");
        assert_eq!(
            AnomalyArtifact::from_json(&old).unwrap(),
            a,
            "the stored command is re-derived"
        );
        assert!(a.id.contains("seed17"));
    }
}
