//! The undo/redo write-ahead log (the thesis' *Undo/Redo Logging
//! Protocol* building block).
//!
//! Requirements from Section 3.5.1, enforced here:
//! - *log must be kept in stable storage* — the log lives in the
//!   crash-surviving half of a site;
//! - *undo entry in stable log before writing into it / redo entry
//!   before committing* — [`Wal::log_update`] records both the old
//!   (undo) and new (redo) value, and [`crate::SiteDb`] refuses to
//!   apply a write that was not logged first;
//! - *log is a sequence of entries `[t, X, v]` plus sets of committed
//!   and aborted transactions* — exactly [`LogRecord`]'s shape.
//!
//! # Byte image
//!
//! The thesis fixes what a record is, not its bytes. The one image
//! format (see DESIGN.md, "Log image format") is a sequence of frames
//!
//! ```text
//! u32 LE body length | body | u32 LE checksum(body)
//! ```
//!
//! whose body is a tag byte followed by the record's fields: `txn` as
//! an LEB128 varint, `item` as a varint length plus UTF-8 bytes,
//! `old`/`new` as zig-zag varints; a checkpoint is a varint count plus
//! that many `item`/value pairs. Records are encoded once, when they
//! are appended ([`ForcedWal::append`]) or imaged ([`Wal::to_bytes`]);
//! a recovery scan ([`Wal::from_bytes_lossy`]) keeps the longest prefix
//! of intact frames.

use crate::ids::{Item, TxnId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One record of the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction `txn` intends to change `item` from `old` to `new`.
    /// `old` is the undo entry, `new` the redo entry.
    Update {
        /// The writing transaction.
        txn: TxnId,
        /// The data item.
        item: Item,
        /// Undo value (before-image).
        old: Value,
        /// Redo value (after-image).
        new: Value,
    },
    /// `txn` committed.
    Commit {
        /// The committed transaction.
        txn: TxnId,
    },
    /// `txn` aborted.
    Abort {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// A checkpoint completed; `state` is the checkpointed database
    /// image (kept inline so recovery can start here).
    CheckpointDone {
        /// Snapshot of all data items at the checkpoint.
        state: BTreeMap<Item, Value>,
    },
}

/// The write-ahead log. Append-only; lives in stable storage.
///
/// # Examples
///
/// ```
/// use mcv_txn::{Wal, TxnId};
/// let mut wal = Wal::new();
/// wal.log_update(TxnId(1), "X", 0, 10);
/// wal.log_commit(TxnId(1));
/// let state = wal.recover();
/// assert_eq!(state.get("X"), Some(&10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Appends an update record (undo + redo entry).
    pub fn log_update(&mut self, txn: TxnId, item: impl Into<Item>, old: Value, new: Value) {
        self.records.push(LogRecord::Update { txn, item: item.into(), old, new });
    }

    /// Appends a commit record.
    pub fn log_commit(&mut self, txn: TxnId) {
        self.records.push(LogRecord::Commit { txn });
    }

    /// Appends an abort record.
    pub fn log_abort(&mut self, txn: TxnId) {
        self.records.push(LogRecord::Abort { txn });
    }

    /// Appends a checkpoint record with the stable database image.
    pub fn log_checkpoint(&mut self, state: BTreeMap<Item, Value>) {
        self.records.push(LogRecord::CheckpointDone { state });
    }

    /// All records in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Transactions with a commit record.
    pub fn committed(&self) -> BTreeSet<TxnId> {
        self.records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    /// Transactions with an abort record.
    pub fn aborted(&self) -> BTreeSet<TxnId> {
        self.records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Abort { txn } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    /// Transactions with updates but neither commit nor abort — the
    /// in-doubt set a commit protocol must resolve after a failure.
    pub fn in_doubt(&self) -> BTreeSet<TxnId> {
        let committed = self.committed();
        let aborted = self.aborted();
        self.records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Update { txn, .. }
                    if !committed.contains(txn) && !aborted.contains(txn) =>
                {
                    Some(*txn)
                }
                _ => None,
            })
            .collect()
    }

    /// Whether `txn` logged an update for `item` (write-ahead check).
    pub fn has_update(&self, txn: TxnId, item: &str) -> bool {
        self.records.iter().any(
            |r| matches!(r, LogRecord::Update { txn: t, item: i, .. } if *t == txn && i == item),
        )
    }

    /// Recovery: rebuilds the database state after a crash.
    ///
    /// Starts from the most recent checkpoint image (or empty), then
    /// *redoes* updates of committed transactions and *undoes* (skips)
    /// updates of aborted or in-doubt transactions — "the protocol
    /// examines the log, finds the last committed values of all data
    /// items and restores them".
    ///
    /// Idempotent: recovering twice yields the same state (the thesis'
    /// "undo and redo must function even if there is a second crash
    /// during recovery").
    pub fn recover(&self) -> BTreeMap<Item, Value> {
        let committed = self.committed();
        // Find the last checkpoint.
        let mut state: BTreeMap<Item, Value> = BTreeMap::new();
        let mut start = 0;
        for (i, r) in self.records.iter().enumerate() {
            if let LogRecord::CheckpointDone { state: snap } = r {
                state = snap.clone();
                start = i + 1;
            }
        }
        // Redo committed updates after the checkpoint; note commit
        // records may come after the checkpoint for earlier updates, so
        // we replay from the beginning when any committed update precedes
        // the checkpoint but isn't reflected: the checkpoint image in this
        // design always reflects exactly the committed prefix, making the
        // suffix replay sufficient.
        for r in &self.records[start..] {
            if let LogRecord::Update { txn, item, new, .. } = r {
                if committed.contains(txn) {
                    state.insert(item.clone(), *new);
                }
            }
        }
        state
    }

    /// The encoded image plus the length of its forced prefix (the
    /// bytes through the last commit, abort, or checkpoint record).
    fn image(&self) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        let mut stable = 0;
        for r in &self.records {
            codec::encode(&mut out, r);
            if !matches!(r, LogRecord::Update { .. }) {
                stable = out.len();
            }
        }
        (out, stable)
    }

    /// The on-disk image of the log: one checksummed frame per record,
    /// in append order (layout in the module docs). This is the byte
    /// representation torn-write injection operates on.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.image().0
    }

    /// Rebuilds a log from a (possibly torn or corrupted) byte image:
    /// the longest prefix of intact frames is kept, and the scan stops
    /// at the first frame that is short, longer than the bytes that
    /// remain, fails its checksum, or does not decode to a record —
    /// the torn tail — exactly as a real recovery scan would. Accepts
    /// any byte string and never panics; a length field is checked
    /// against the bytes that remain before anything is sized by it.
    pub fn from_bytes_lossy(bytes: &[u8]) -> Self {
        let mut records = Vec::new();
        let mut rest = bytes;
        while let Some((record, tail)) = codec::decode(rest) {
            records.push(record.into_owned());
            rest = tail;
        }
        Wal { records }
    }

    /// [`Wal::recover`] of `Wal::from_bytes_lossy(bytes)` without the
    /// record list in between: two scans over the intact prefix with
    /// the item strings borrowed from `bytes` — the committed set and
    /// where the last checkpoint sits, then the redo from there — so
    /// the only strings built are the keys of the returned state.
    pub fn recover_bytes(bytes: &[u8]) -> BTreeMap<Item, Value> {
        let mut committed = BTreeSet::new();
        let (mut rest, mut start) = (bytes, bytes);
        while let Some((record, tail)) = codec::decode(rest) {
            match record {
                codec::Record::Commit { txn } => {
                    committed.insert(txn);
                }
                codec::Record::Checkpoint { .. } => start = rest,
                _ => {}
            }
            rest = tail;
        }
        let mut state = BTreeMap::new();
        let mut rest = start;
        while let Some((record, tail)) = codec::decode(rest) {
            match record {
                // Only the frame `start` points at can be one.
                codec::Record::Checkpoint { state: snap } => {
                    state =
                        snap.into_iter().map(|(item, value)| (item.to_owned(), value)).collect();
                }
                codec::Record::Update { txn, item, new, .. } if committed.contains(&txn) => {
                    match state.get_mut(item) {
                        Some(slot) => *slot = new,
                        None => {
                            state.insert(item.to_owned(), new);
                        }
                    }
                }
                _ => {}
            }
            rest = tail;
        }
        state
    }

    /// Byte length of the *forced* prefix of [`Wal::to_bytes`]: the
    /// image through the last commit, abort, or checkpoint record.
    /// Those are the force points of the undo/redo protocol (the log
    /// is flushed before a decision is durable), so a torn write can
    /// only affect bytes past this offset.
    pub fn stable_len_bytes(&self) -> usize {
        self.image().1
    }

    /// Simulates a torn (partial) write: the byte image is truncated at
    /// offset `at` and the log reloaded from the surviving prefix, with
    /// any trailing half-record discarded.
    ///
    /// The cut is clamped to [`Wal::stable_len_bytes`] — the force
    /// discipline guarantees everything up to the last decision record
    /// reached stable storage, so only the unforced tail (in-doubt
    /// updates) can be lost. Returns the number of records lost.
    pub fn torn_write(&mut self, at: usize) -> usize {
        let (bytes, stable) = self.image();
        let cut = at.max(stable).min(bytes.len());
        let survived = Wal::from_bytes_lossy(&bytes[..cut]);
        let lost = self.records.len() - survived.records.len();
        *self = survived;
        lost
    }
}

/// The log's byte format: the only encoder and decoder of records.
mod codec {
    use super::LogRecord;
    use crate::ids::{TxnId, Value};

    const UPDATE: u8 = 0;
    const COMMIT: u8 = 1;
    const ABORT: u8 = 2;
    const CHECKPOINT: u8 = 3;

    /// 32-bit FNV-1a. Every step is a bijection of the running hash,
    /// so two bodies of equal length that differ in one byte never
    /// collide: a flipped bit inside a body is always caught, a torn
    /// tail with probability 1 - 2^-32. It guards against faults, not
    /// adversaries.
    fn checksum(body: &[u8]) -> u32 {
        body.iter().fold(0x811c_9dc5, |h, b| (h ^ u32::from(*b)).wrapping_mul(0x0100_0193))
    }

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn put_item(out: &mut Vec<u8>, item: &str) {
        put_varint(out, item.len() as u64);
        out.extend_from_slice(item.as_bytes());
    }

    /// Zig-zag: small magnitudes of either sign become short varints.
    fn put_value(out: &mut Vec<u8>, v: Value) {
        put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends one frame whose body is `tag` followed by what `fields`
    /// writes.
    fn put_frame(out: &mut Vec<u8>, tag: u8, fields: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        out.push(tag);
        fields(out);
        let body = start + 4;
        let len = u32::try_from(out.len() - body).expect("log record body under 4 GiB");
        out[start..body].copy_from_slice(&len.to_le_bytes());
        let sum = checksum(&out[body..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Appends an update record's frame from borrowed fields.
    pub(super) fn encode_update(out: &mut Vec<u8>, txn: TxnId, item: &str, old: Value, new: Value) {
        put_frame(out, UPDATE, |out| {
            put_varint(out, txn.0);
            put_item(out, item);
            put_value(out, old);
            put_value(out, new);
        });
    }

    /// Appends `record`'s frame to `out`.
    pub(super) fn encode(out: &mut Vec<u8>, record: &LogRecord) {
        match record {
            LogRecord::Update { txn, item, old, new } => encode_update(out, *txn, item, *old, *new),
            LogRecord::Commit { txn } => put_frame(out, COMMIT, |out| put_varint(out, txn.0)),
            LogRecord::Abort { txn } => put_frame(out, ABORT, |out| put_varint(out, txn.0)),
            LogRecord::CheckpointDone { state } => put_frame(out, CHECKPOINT, |out| {
                put_varint(out, state.len() as u64);
                for (item, value) in state {
                    put_item(out, item);
                    put_value(out, *value);
                }
            }),
        }
    }

    /// A decoded record whose item strings still point into the image.
    pub(super) enum Record<'a> {
        Update {
            txn: TxnId,
            item: &'a str,
            old: Value,
            new: Value,
        },
        Commit {
            txn: TxnId,
        },
        Abort {
            txn: TxnId,
        },
        /// The pairs in image order; a repeated item's last value wins.
        Checkpoint {
            state: Vec<(&'a str, Value)>,
        },
    }

    impl Record<'_> {
        pub(super) fn into_owned(self) -> LogRecord {
            match self {
                Record::Update { txn, item, old, new } => {
                    LogRecord::Update { txn, item: item.to_owned(), old, new }
                }
                Record::Commit { txn } => LogRecord::Commit { txn },
                Record::Abort { txn } => LogRecord::Abort { txn },
                Record::Checkpoint { state } => LogRecord::CheckpointDone {
                    state: state
                        .into_iter()
                        .map(|(item, value)| (item.to_owned(), value))
                        .collect(),
                },
            }
        }
    }

    /// A cursor over one frame body; every read is bounds-checked and
    /// returns `None` past the end.
    struct Body<'a>(&'a [u8]);

    impl<'a> Body<'a> {
        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let (head, tail) = self.0.split_at_checked(n)?;
            self.0 = tail;
            Some(head)
        }

        fn varint(&mut self) -> Option<u64> {
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let b = self.take(1)?[0];
                let bits = u64::from(b & 0x7f);
                if shift == 63 && bits > 1 {
                    return None;
                }
                v |= bits << shift;
                if b & 0x80 == 0 {
                    return Some(v);
                }
            }
            None
        }

        fn txn(&mut self) -> Option<TxnId> {
            self.varint().map(TxnId)
        }

        fn item(&mut self) -> Option<&'a str> {
            let len = usize::try_from(self.varint()?).ok()?;
            std::str::from_utf8(self.take(len)?).ok()
        }

        fn value(&mut self) -> Option<Value> {
            let z = self.varint()?;
            Some((z >> 1) as i64 ^ -((z & 1) as i64))
        }
    }

    fn decode_body(body: &[u8]) -> Option<Record<'_>> {
        let mut b = Body(body);
        let record = match b.take(1)?[0] {
            UPDATE => {
                Record::Update { txn: b.txn()?, item: b.item()?, old: b.value()?, new: b.value()? }
            }
            COMMIT => Record::Commit { txn: b.txn()? },
            ABORT => Record::Abort { txn: b.txn()? },
            CHECKPOINT => {
                // The count is input: it bounds the loop, never an
                // allocation (each pair consumes at least two bytes of
                // a body that is already in memory).
                let mut state = Vec::new();
                for _ in 0..b.varint()? {
                    state.push((b.item()?, b.value()?));
                }
                Record::Checkpoint { state }
            }
            _ => return None,
        };
        b.0.is_empty().then_some(record)
    }

    /// Decodes the frame at the head of `bytes`; returns the record
    /// and the bytes after it, or `None` when the head is not an
    /// intact frame.
    pub(super) fn decode(bytes: &[u8]) -> Option<(Record<'_>, &[u8])> {
        let (len, rest) = bytes.split_first_chunk::<4>()?;
        let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
        let (body, rest) = rest.split_at_checked(len)?;
        let (sum, rest) = rest.split_first_chunk::<4>()?;
        if u32::from_le_bytes(*sum) != checksum(body) {
            return None;
        }
        Some((decode_body(body)?, rest))
    }
}

/// A log buffer with an explicit force (durability) cursor — the
/// group-commit hook the concurrent engine builds on.
///
/// [`Wal`] models durability implicitly: [`Wal::stable_len_bytes`]
/// assumes every decision record was forced the instant it was
/// appended, which is exactly the per-transaction force discipline the
/// thesis states — and exactly what a group-commit log amortizes away.
/// `ForcedWal` makes the force explicit: [`ForcedWal::append`] encodes
/// the record onto the volatile tail of one byte buffer, and only
/// [`ForcedWal::force`] moves the durable cursor over that tail (one
/// "device write" per call, covering *all* pending records; the bytes
/// are already encoded, so the call itself is a cursor move). A crash
/// at any instant surrenders exactly [`ForcedWal::durable_image`];
/// committers therefore must not acknowledge until their commit
/// record's index is below the forced cursor.
///
/// The buffer holds the log only as bytes; decode it with
/// [`Wal::from_bytes_lossy`] to inspect records.
///
/// # Examples
///
/// ```
/// use mcv_txn::{ForcedWal, LogRecord, TxnId, Wal};
/// let mut fw = ForcedWal::new();
/// fw.append(LogRecord::Update { txn: TxnId(1), item: "X".into(), old: 0, new: 7 });
/// let lsn = fw.append(LogRecord::Commit { txn: TxnId(1) });
/// assert!(!fw.is_forced(lsn));
/// fw.force();
/// assert!(fw.is_forced(lsn));
/// let survivor = Wal::from_bytes_lossy(fw.durable_image());
/// assert_eq!(survivor.recover().get("X"), Some(&7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ForcedWal {
    /// Every appended record, encoded, in append order.
    buf: Vec<u8>,
    /// Length of the forced prefix of `buf` — what a crash surrenders.
    durable_len: usize,
    /// Number of records in `buf`.
    records: usize,
    /// Number of records below `durable_len`.
    forced_records: usize,
    /// Number of force operations performed.
    forces: u64,
    /// Transactions with a commit record, in append order.
    committed: Vec<TxnId>,
}

impl ForcedWal {
    /// An empty log with nothing forced.
    pub fn new() -> Self {
        ForcedWal::default()
    }

    /// Encodes `record` onto the volatile tail and returns its LSN (the
    /// record count after the append): the log is forced through this
    /// record once `forced_records() >= lsn`.
    pub fn append(&mut self, record: LogRecord) -> usize {
        if let LogRecord::Commit { txn } = record {
            self.committed.push(txn);
        }
        codec::encode(&mut self.buf, &record);
        self.records += 1;
        self.records
    }

    /// [`ForcedWal::append`] of an update record from borrowed fields,
    /// for callers that hold the item as a `&str`.
    pub fn append_update(&mut self, txn: TxnId, item: &str, old: Value, new: Value) -> usize {
        codec::encode_update(&mut self.buf, txn, item, old, new);
        self.records += 1;
        self.records
    }

    /// Transactions with a commit record appended (forced or not), in
    /// append order.
    pub fn committed(&self) -> &[TxnId] {
        &self.committed
    }

    /// Number of records in the log, forced or not.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the log has no records at all.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of records covered by the durable image.
    pub fn forced_records(&self) -> usize {
        self.forced_records
    }

    /// Whether the record at `lsn` (as returned by [`ForcedWal::append`])
    /// has reached stable storage.
    pub fn is_forced(&self, lsn: usize) -> bool {
        self.forced_records >= lsn
    }

    /// How many force operations ran so far. Group commit shows up as
    /// `forces() < number of commit records`: one device write covers
    /// many committers.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Number of appended-but-unforced records.
    pub fn pending(&self) -> usize {
        self.records - self.forced_records
    }

    /// Forces the entire volatile tail to stable storage in one device
    /// write and returns the number of records newly made durable.
    /// Counts as one force even when several commit records are
    /// covered — the whole point of group commit. A force with nothing
    /// pending is a no-op and is **not** counted.
    pub fn force(&mut self) -> usize {
        let newly = self.pending();
        if newly == 0 {
            return 0;
        }
        self.durable_len = self.buf.len();
        self.forced_records = self.records;
        self.forces += 1;
        newly
    }

    /// The byte image of the forced prefix — exactly what survives a
    /// crash at this instant. Feed it to [`Wal::from_bytes_lossy`] to
    /// recover.
    pub fn durable_image(&self) -> &[u8] {
        &self.buf[..self.durable_len]
    }
}

impl fmt::Display for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            match r {
                LogRecord::Update { txn, item, old, new } => {
                    writeln!(f, "[{txn}, {item}, {old} -> {new}]")?
                }
                LogRecord::Commit { txn } => writeln!(f, "[commit {txn}]")?,
                LogRecord::Abort { txn } => writeln!(f, "[abort {txn}]")?,
                LogRecord::CheckpointDone { state } => {
                    writeln!(f, "[checkpoint, {} items]", state.len())?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_redoes_committed_only() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 10);
        wal.log_update(TxnId(2), "Y", 0, 20);
        wal.log_commit(TxnId(1));
        wal.log_abort(TxnId(2));
        let s = wal.recover();
        assert_eq!(s.get("X"), Some(&10));
        assert_eq!(s.get("Y"), None);
    }

    #[test]
    fn in_doubt_transactions_are_not_redone() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(3), "Z", 5, 50);
        let s = wal.recover();
        assert!(s.is_empty());
        assert_eq!(wal.in_doubt().len(), 1);
    }

    #[test]
    fn recovery_starts_from_checkpoint() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 10);
        wal.log_commit(TxnId(1));
        let mut snap = BTreeMap::new();
        snap.insert("X".to_string(), 10);
        wal.log_checkpoint(snap);
        wal.log_update(TxnId(2), "X", 10, 30);
        wal.log_commit(TxnId(2));
        let s = wal.recover();
        assert_eq!(s.get("X"), Some(&30));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 7);
        wal.log_commit(TxnId(1));
        assert_eq!(wal.recover(), wal.recover());
    }

    #[test]
    fn later_writes_win_within_committed() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 1);
        wal.log_commit(TxnId(1));
        wal.log_update(TxnId(2), "X", 1, 2);
        wal.log_commit(TxnId(2));
        assert_eq!(wal.recover().get("X"), Some(&2));
    }

    #[test]
    fn committed_aborted_sets() {
        let mut wal = Wal::new();
        wal.log_commit(TxnId(1));
        wal.log_abort(TxnId(2));
        assert!(wal.committed().contains(&TxnId(1)));
        assert!(wal.aborted().contains(&TxnId(2)));
        assert!(wal.in_doubt().is_empty());
    }

    #[test]
    fn has_update_checks_write_ahead() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 1);
        assert!(wal.has_update(TxnId(1), "X"));
        assert!(!wal.has_update(TxnId(1), "Y"));
        assert!(!wal.has_update(TxnId(2), "X"));
    }

    #[test]
    fn byte_image_round_trips() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 10);
        wal.log_commit(TxnId(1));
        let mut snap = BTreeMap::new();
        snap.insert("X".to_string(), 10);
        wal.log_checkpoint(snap);
        wal.log_update(TxnId(2), "Y", 0, 5);
        wal.log_abort(TxnId(2));
        assert_eq!(Wal::from_bytes_lossy(&wal.to_bytes()), wal);
    }

    #[test]
    fn frame_layout_is_length_body_checksum() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(300), "X", 0, -1);
        let bytes = wal.to_bytes();
        // tag 0, txn 300 as LEB128, item length 1 + "X", zig-zag 0 and -1.
        let body = [0, 0xac, 0x02, 1, b'X', 0, 1];
        assert_eq!(bytes[..4], (body.len() as u32).to_le_bytes());
        assert_eq!(bytes[4..4 + body.len()], body);
        // FNV-1a of the body, little-endian, closes the frame.
        let sum =
            body.iter().fold(0x811c_9dc5u32, |h, b| (h ^ *b as u32).wrapping_mul(0x0100_0193));
        assert_eq!(bytes[4 + body.len()..], sum.to_le_bytes());
    }

    #[test]
    fn from_bytes_discards_trailing_partial_record() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 10);
        wal.log_commit(TxnId(1));
        wal.log_update(TxnId(2), "Y", 0, 5);
        let bytes = wal.to_bytes();
        // Cut mid-way through the last record's line.
        let survived = Wal::from_bytes_lossy(&bytes[..bytes.len() - 3]);
        assert_eq!(survived.len(), 2);
        assert_eq!(survived.records()[..], wal.records()[..2]);
    }

    #[test]
    fn stable_prefix_covers_through_last_decision() {
        let mut wal = Wal::new();
        assert_eq!(wal.stable_len_bytes(), 0);
        wal.log_update(TxnId(1), "X", 0, 10);
        assert_eq!(wal.stable_len_bytes(), 0);
        wal.log_commit(TxnId(1));
        let forced = wal.stable_len_bytes();
        assert_eq!(forced, wal.to_bytes().len());
        // An unforced tail update does not extend the stable prefix.
        wal.log_update(TxnId(2), "Y", 0, 5);
        assert_eq!(wal.stable_len_bytes(), forced);
        assert!(wal.to_bytes().len() > forced);
    }

    #[test]
    fn torn_write_is_clamped_to_forced_prefix() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 10);
        wal.log_commit(TxnId(1));
        wal.log_update(TxnId(2), "Y", 0, 5);
        // Tearing at offset 0 cannot lose the forced commit record.
        let lost = wal.clone().torn_write(0);
        assert_eq!(lost, 1);
        let mut torn = wal.clone();
        torn.torn_write(0);
        assert_eq!(torn.committed().len(), 1);
        assert_eq!(torn.len(), 2);
        // Recovery is unchanged: only the in-doubt tail was lost.
        assert_eq!(torn.recover(), wal.recover());
    }

    #[test]
    fn torn_write_mid_record_drops_the_half_record() {
        let mut wal = Wal::new();
        wal.log_commit(TxnId(1));
        wal.log_update(TxnId(2), "Y", 0, 5);
        let full = wal.to_bytes().len();
        // Tear a few bytes into the unforced update record.
        let lost = wal.torn_write(full - 2);
        assert_eq!(lost, 1);
        assert_eq!(wal.len(), 1);
    }

    #[test]
    fn torn_write_past_end_loses_nothing() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 1);
        wal.log_commit(TxnId(1));
        let lost = wal.torn_write(usize::MAX);
        assert_eq!(lost, 0);
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn forced_wal_batches_many_commits_into_one_force() {
        let mut fw = ForcedWal::new();
        let mut last = 0;
        for t in 1..=5u64 {
            fw.append(LogRecord::Update { txn: TxnId(t), item: "X".into(), old: 0, new: t as i64 });
            last = fw.append(LogRecord::Commit { txn: TxnId(t) });
        }
        assert_eq!(fw.pending(), 10);
        assert!(!fw.is_forced(last));
        assert_eq!(fw.force(), 10);
        assert_eq!(fw.forces(), 1);
        assert!(fw.is_forced(last));
        assert_eq!(fw.pending(), 0);
        // Forcing with nothing pending neither writes nor counts.
        assert_eq!(fw.force(), 0);
        assert_eq!(fw.forces(), 1);
    }

    #[test]
    fn forced_wal_durable_image_is_the_forced_prefix() {
        let mut fw = ForcedWal::new();
        fw.append(LogRecord::Update { txn: TxnId(1), item: "X".into(), old: 0, new: 10 });
        fw.append(LogRecord::Commit { txn: TxnId(1) });
        fw.force();
        fw.append(LogRecord::Update { txn: TxnId(2), item: "Y".into(), old: 0, new: 20 });
        fw.append(LogRecord::Commit { txn: TxnId(2) });
        // T2's commit is appended but unforced: a crash now loses it.
        let crash = Wal::from_bytes_lossy(fw.durable_image());
        assert_eq!(crash.committed(), BTreeSet::from([TxnId(1)]));
        assert_eq!(crash.recover().get("X"), Some(&10));
        assert_eq!(crash.recover().get("Y"), None);
        fw.force();
        let after = Wal::from_bytes_lossy(fw.durable_image());
        assert_eq!(after, Wal::from_bytes_lossy(&fw.buf));
        assert_eq!(after.recover().get("Y"), Some(&20));
    }

    #[test]
    fn display_renders_entries() {
        let mut wal = Wal::new();
        wal.log_update(TxnId(1), "X", 0, 1);
        wal.log_commit(TxnId(1));
        let text = wal.to_string();
        assert!(text.contains("[T1, X, 0 -> 1]"));
        assert!(text.contains("[commit T1]"));
    }
}
