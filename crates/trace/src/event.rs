//! The typed causal event model and its JSONL serialization.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// A capability to cite an already-recorded event as a causal
/// antecedent.
///
/// Returned by every record call; threading it into a later record call
/// creates a happens-before edge (`send -> deliver`,
/// `release -> acquire`, `force -> ack`) and folds the antecedent's
/// Lamport clock into the new event's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cause {
    /// Event id of the antecedent.
    pub id: u64,
    /// Lamport clock of the antecedent.
    pub lamport: u64,
}

/// What happened.
///
/// Every variant is deterministic data: message payloads are reduced to
/// a short `label` (the Debug name of the message variant), items and
/// states to their names.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    /// A message was handed to the network.
    Send {
        /// Destination site.
        to: usize,
        /// Message label.
        label: String,
    },
    /// A message arrived and was dispatched to the process.
    Deliver {
        /// Originating site.
        from: usize,
        /// Message label.
        label: String,
        /// Per-receiver-site monotone delivery sequence number (from 1).
        deliver_seq: u64,
    },
    /// A message was lost: loss, partition, drop window, or dead
    /// receiver.
    Drop {
        /// Originating site.
        from: usize,
        /// Intended destination site.
        to: usize,
        /// Message label.
        label: String,
    },
    /// A protocol FSM moved to a new state.
    State {
        /// Transaction the state belongs to.
        txn: u64,
        /// New state name.
        state: String,
    },
    /// A timer was armed.
    TimerSet {
        /// Token passed back on expiry.
        token: u64,
    },
    /// A live timer fired.
    TimerFire {
        /// Token passed at arming time.
        token: u64,
    },
    /// The site crashed.
    Crash,
    /// The site recovered.
    Recover,
    /// A lock was granted.
    LockAcquire {
        /// Owning transaction.
        txn: u64,
        /// Locked item.
        item: String,
        /// Exclusive (write) rather than shared (read).
        exclusive: bool,
    },
    /// A lock was released.
    LockRelease {
        /// Former owner.
        txn: u64,
        /// Released item.
        item: String,
    },
    /// A lock request was abandoned because the transaction was chosen
    /// as a deadlock victim.
    LockAbort {
        /// Victim transaction.
        txn: u64,
        /// Item it was waiting for.
        item: String,
    },
    /// A record was appended to the write-ahead log.
    WalAppend {
        /// Transaction the record belongs to.
        txn: u64,
        /// Log sequence number of the record.
        lsn: u64,
        /// Record kind: `update`, `commit`, or `abort`.
        what: String,
        /// Which log the record went to (0 when there is only one).
        /// Distinct per-shard WALs have overlapping lsn spaces; the
        /// identity keeps `force_before_ack` sound across them.
        wal: u64,
    },
    /// The log was forced to durable storage.
    WalForce {
        /// Every record with `lsn <= upto` is now durable.
        upto: u64,
        /// Which log was forced (0 when there is only one).
        wal: u64,
    },
    /// A commit decision. On a protocol site's lane it is the site's
    /// decision (what the Chapter 4 monitors read); on an engine lane
    /// it is the engine acknowledging a commit to its client.
    Commit {
        /// The committed transaction.
        txn: u64,
    },
    /// An abort decision: a site's decision or an engine's rollback,
    /// by lane, as for [`EventKind::Commit`].
    Abort {
        /// The aborted transaction.
        txn: u64,
    },
    /// Free-form annotation.
    Note {
        /// The text.
        text: String,
    },
    /// A transaction pinned a multi-version snapshot.
    SnapshotOpen {
        /// The reading transaction.
        txn: u64,
        /// Begin timestamp: the newest commit timestamp the snapshot
        /// sees.
        ts: u64,
    },
    /// A read was served from a version chain without touching the
    /// lock table.
    SnapshotRead {
        /// The reading transaction.
        txn: u64,
        /// The item read.
        item: String,
        /// Commit timestamp of the version the read observed (0 for
        /// the never-written default).
        ts: u64,
    },
    /// A committed version was installed at the head of an item's
    /// version chain.
    VersionInstall {
        /// The installing transaction.
        txn: u64,
        /// The written item.
        item: String,
        /// Commit timestamp of the new version.
        ts: u64,
    },
}

impl EventKind {
    /// Short kind name, used by `--filter kind=`.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send { .. } => "send",
            EventKind::Deliver { .. } => "deliver",
            EventKind::Drop { .. } => "drop",
            EventKind::State { .. } => "state",
            EventKind::TimerSet { .. } => "timer_set",
            EventKind::TimerFire { .. } => "timer_fire",
            EventKind::Crash => "crash",
            EventKind::Recover => "recover",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::LockAbort { .. } => "lock_abort",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::WalForce { .. } => "wal_force",
            EventKind::Commit { .. } => "commit",
            EventKind::Abort { .. } => "abort",
            EventKind::Note { .. } => "note",
            EventKind::SnapshotOpen { .. } => "snapshot_open",
            EventKind::SnapshotRead { .. } => "snapshot_read",
            EventKind::VersionInstall { .. } => "version_install",
        }
    }

    /// The transaction this event is about, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            EventKind::State { txn, .. }
            | EventKind::LockAcquire { txn, .. }
            | EventKind::LockRelease { txn, .. }
            | EventKind::LockAbort { txn, .. }
            | EventKind::WalAppend { txn, .. }
            | EventKind::Commit { txn }
            | EventKind::Abort { txn }
            | EventKind::SnapshotOpen { txn, .. }
            | EventKind::SnapshotRead { txn, .. }
            | EventKind::VersionInstall { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Send { to, label } => write!(f, "send {label} -> s{to}"),
            EventKind::Deliver { from, label, deliver_seq } => {
                write!(f, "recv {label} <- s{from} #{deliver_seq}")
            }
            EventKind::Drop { from, to, label } => write!(f, "drop {label} s{from}->s{to}"),
            EventKind::State { txn, state } => write!(f, "t{txn} state {state}"),
            EventKind::TimerSet { token } => write!(f, "timer+ {token}"),
            EventKind::TimerFire { token } => write!(f, "timer! {token}"),
            EventKind::Crash => write!(f, "CRASH"),
            EventKind::Recover => write!(f, "recover"),
            EventKind::LockAcquire { txn, item, exclusive } => {
                write!(f, "t{txn} lock{} {item}", if *exclusive { "X" } else { "S" })
            }
            EventKind::LockRelease { txn, item } => write!(f, "t{txn} unlock {item}"),
            EventKind::LockAbort { txn, item } => write!(f, "t{txn} victim @{item}"),
            EventKind::WalAppend { txn, lsn, what, wal: 0 } => write!(f, "t{txn} wal {what}@{lsn}"),
            EventKind::WalAppend { txn, lsn, what, wal } => {
                write!(f, "t{txn} wal{wal} {what}@{lsn}")
            }
            EventKind::WalForce { upto, wal: 0 } => write!(f, "force <={upto}"),
            EventKind::WalForce { upto, wal } => write!(f, "wal{wal} force <={upto}"),
            EventKind::Commit { txn } => write!(f, "t{txn} COMMIT"),
            EventKind::Abort { txn } => write!(f, "t{txn} ABORT"),
            EventKind::Note { text } => write!(f, "note {text}"),
            EventKind::SnapshotOpen { txn, ts } => write!(f, "t{txn} snapshot@{ts}"),
            EventKind::SnapshotRead { txn, item, ts } => {
                write!(f, "t{txn} vread {item}@{ts}")
            }
            EventKind::VersionInstall { txn, item, ts } => {
                write!(f, "t{txn} install {item}@{ts}")
            }
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Event {
    /// Global id in recording order (from 1). A linear extension of
    /// happens-before: every cause id is smaller than its effect's.
    pub id: u64,
    /// Site (simulator process) or lane (engine thread) that observed
    /// the event.
    pub site: usize,
    /// Per-site sequence number (from 1, incremented by 1).
    pub seq: u64,
    /// Lamport logical clock: `max(site clock, cause clock) + 1`.
    pub lamport: u64,
    /// Id of the causal antecedent, when one was cited.
    pub cause: Option<u64>,
    /// Simulated time in ticks (0 for engine events, which have no
    /// simulated clock).
    pub time: u64,
    /// Nanoseconds since the recorder started. Nondeterministic;
    /// zeroed by [`CausalTrace::strip_wall`].
    pub wall_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// First line of a serialized trace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct TraceHeader {
    trace: String,
    version: u64,
    dropped: u64,
    events: u64,
}

/// An ordered causal event log, as taken from a
/// [`Recorder`](crate::Recorder).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CausalTrace {
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events evicted by the flight-recorder ring before the snapshot
    /// was taken (0 for unbounded recorders).
    pub dropped: u64,
}

impl CausalTrace {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when the ring evicted nothing, i.e. the trace is complete
    /// from the first recorded event.
    pub fn complete(&self) -> bool {
        self.dropped == 0
    }

    /// Zeroes every wall-clock field. After this, same-seed runs
    /// serialize byte-identically (the `RunReport::strip_wall`
    /// contract).
    pub fn strip_wall(&mut self) {
        for e in &mut self.events {
            e.wall_ns = 0;
        }
    }

    /// Events indexed by id.
    pub fn by_id(&self) -> BTreeMap<u64, &Event> {
        self.events.iter().map(|e| (e.id, e)).collect()
    }

    /// The backward causal chain of event `id`: the event itself, its
    /// cause, the cause's cause, … oldest last. Stops at events without
    /// a cause or evicted from the window.
    pub fn chain(&self, id: u64) -> Vec<&Event> {
        let by_id = self.by_id();
        let mut out = Vec::new();
        let mut cur = by_id.get(&id).copied();
        while let Some(e) = cur {
            out.push(e);
            if out.len() > self.events.len() {
                break; // cycle guard: corrupt trace
            }
            cur = e.cause.and_then(|c| by_id.get(&c).copied());
        }
        out
    }

    /// Serializes as JSONL: one header line, then one event per line.
    ///
    /// Deterministic given the events — combined with
    /// [`strip_wall`](CausalTrace::strip_wall) this makes same-seed
    /// traces byte-identical.
    pub fn to_jsonl(&self) -> String {
        let header = TraceHeader {
            trace: "mcv-trace".to_owned(),
            version: 1,
            dropped: self.dropped,
            events: self.events.len() as u64,
        };
        let mut out = serde_json::to_string(&header).expect("trace serialization is infallible");
        out.push('\n');
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("trace serialization is infallible"));
            out.push('\n');
        }
        out
    }

    /// Parses the [`to_jsonl`](CausalTrace::to_jsonl) format.
    pub fn from_jsonl(text: &str) -> Result<CausalTrace, serde::Error> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line =
            lines.next().ok_or_else(|| serde::Error::custom("empty trace: missing header line"))?;
        let header: TraceHeader = serde_json::from_str(header_line)?;
        if header.trace != "mcv-trace" {
            return Err(serde::Error::custom(format!("not an mcv-trace file: {}", header.trace)));
        }
        let mut events = Vec::new();
        for line in lines {
            events.push(serde_json::from_str::<Event>(line)?);
        }
        Ok(CausalTrace { events, dropped: header.dropped })
    }

    /// Writes the JSONL serialization to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Reads a trace from a JSONL file.
    pub fn read_jsonl(path: &Path) -> std::io::Result<CausalTrace> {
        let text = std::fs::read_to_string(path)?;
        CausalTrace::from_jsonl(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CausalTrace {
        CausalTrace {
            events: vec![
                Event {
                    id: 1,
                    site: 0,
                    seq: 1,
                    lamport: 1,
                    cause: None,
                    time: 0,
                    wall_ns: 17,
                    kind: EventKind::Send { to: 1, label: "Vote".into() },
                },
                Event {
                    id: 2,
                    site: 1,
                    seq: 1,
                    lamport: 2,
                    cause: Some(1),
                    time: 3,
                    wall_ns: 99,
                    kind: EventKind::Deliver { from: 0, label: "Vote".into(), deliver_seq: 1 },
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample();
        let parsed = CausalTrace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn strip_wall_makes_serialization_deterministic() {
        let mut a = sample();
        let mut b = sample();
        b.events[0].wall_ns = 123_456;
        a.strip_wall();
        b.strip_wall();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(!a.to_jsonl().contains("123456"));
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(EventKind::Crash.name(), "crash");
        assert_eq!(EventKind::Commit { txn: 7 }.txn(), Some(7));
        assert_eq!(EventKind::Send { to: 0, label: String::new() }.txn(), None);
    }

    #[test]
    fn rejects_foreign_files() {
        assert!(CausalTrace::from_jsonl("").is_err());
        assert!(CausalTrace::from_jsonl(
            "{\"trace\":\"other\",\"version\":1,\"dropped\":0,\"events\":0}"
        )
        .is_err());
    }
}
