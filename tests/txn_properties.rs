//! Property tests of the transaction substrate: the executable
//! counterparts of the thesis' SP6–SP10 sub-properties, checked on
//! randomized workloads and crash points.

use mcv::txn::{History, LockManager, LockMode, LockTable, LogRecord, OpKind, SiteDb, TxnId, Wal};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A randomly generated operation.
#[derive(Debug, Clone)]
struct GenOp {
    txn: u64,
    item: u8,
    write: bool,
    value: i64,
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<GenOp>> {
    prop::collection::vec(
        (1u64..5, 0u8..4, any::<bool>(), -50i64..50).prop_map(|(txn, item, write, value)| GenOp {
            txn,
            item,
            write,
            value,
        }),
        1..max_ops,
    )
}

/// Items that stress the length-prefixed UTF-8 field: empty, control
/// characters, multi-byte code points.
fn item_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![Just('X'), Just('\0'), Just('\n'), Just('é'), Just('項'), Just('🔑')],
        0..6,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Values at both ends of every zig-zag varint length.
fn value_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), -64i64..64, any::<i64>()]
}

fn txn_strategy() -> impl Strategy<Value = TxnId> {
    prop_oneof![Just(u64::MAX), Just(0u64), 1u64..200, any::<u64>()].prop_map(TxnId)
}

fn wal_strategy(max_records: usize) -> impl Strategy<Value = Wal> {
    let record = prop_oneof![
        (txn_strategy(), item_strategy(), value_strategy(), value_strategy())
            .prop_map(|(txn, item, old, new)| LogRecord::Update { txn, item, old, new }),
        txn_strategy().prop_map(|txn| LogRecord::Commit { txn }),
        txn_strategy().prop_map(|txn| LogRecord::Abort { txn }),
        prop::collection::vec((item_strategy(), value_strategy()), 0..4)
            .prop_map(|pairs| LogRecord::CheckpointDone { state: pairs.into_iter().collect() }),
    ];
    prop::collection::vec(record, 0..max_records).prop_map(|records| {
        let mut wal = Wal::new();
        for r in records {
            match r {
                LogRecord::Update { txn, item, old, new } => wal.log_update(txn, item, old, new),
                LogRecord::Commit { txn } => wal.log_commit(txn),
                LogRecord::Abort { txn } => wal.log_abort(txn),
                LogRecord::CheckpointDone { state } => wal.log_checkpoint(state),
            }
        }
        wal
    })
}

/// One frame of the documented image format around an arbitrary body:
/// `u32 LE length | body | u32 LE FNV-1a(body)`. Written out here so
/// the fuzz reaches the body decoder behind a valid checksum, and so
/// the format's framing is pinned by a test outside the codec.
fn frame(body: &[u8]) -> Vec<u8> {
    let sum =
        body.iter().fold(0x811c_9dc5u32, |h, b| (h ^ u32::from(*b)).wrapping_mul(0x0100_0193));
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn is_prefix_of(survived: &Wal, original: &Wal) -> bool {
    original.records().starts_with(survived.records())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Global property 1, executably: any history produced *through* the
    /// strict-2PL database is conflict-serializable.
    #[test]
    fn histories_through_2pl_are_serializable(ops in ops_strategy(40)) {
        let mut db = SiteDb::new();
        let mut began = std::collections::BTreeSet::new();
        for op in &ops {
            let txn = TxnId(op.txn);
            if began.insert(txn) {
                db.begin(txn);
            }
            let item = format!("X{}", op.item);
            // Busy (lock conflict) aborts the requester — wound-wait-ish;
            // either way the surviving history must stay serializable.
            let result = if op.write {
                db.write(txn, &item, op.value).map(|_| 0)
            } else {
                db.read(txn, &item)
            };
            if result.is_err() && db.status(txn) == Some(mcv::txn::TxnStatus::Active) {
                let _ = db.abort(txn);
            }
        }
        for txn in began {
            if db.status(txn) == Some(mcv::txn::TxnStatus::Active) {
                let _ = db.commit(txn);
            }
        }
        let h = db.history().expect("site is up");
        prop_assert!(h.is_conflict_serializable(), "history: {h}");
    }

    /// Global property 3, executably: after a crash at *any* prefix of
    /// the workload, recovery reconstructs exactly the committed-prefix
    /// state (SP10 Recover).
    #[test]
    fn recovery_equals_committed_prefix(
        ops in ops_strategy(30),
        crash_after in 0usize..30,
    ) {
        let mut db = SiteDb::new();
        let mut reference = Wal::new(); // shadow log of committed effects
        let mut began = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            if i == crash_after {
                break;
            }
            let txn = TxnId(op.txn);
            if began.insert(txn) {
                db.begin(txn);
                reference.log_update(txn, "marker", 0, 0); // placeholder, removed below
            }
            let item = format!("X{}", op.item);
            if op.write {
                let _ = db.write(txn, &item, op.value);
            } else {
                let _ = db.read(txn, &item);
            }
            // Commit every third op's transaction to create a mix.
            if i % 3 == 2 && db.status(txn) == Some(mcv::txn::TxnStatus::Active) {
                let _ = db.commit(txn);
            }
        }
        // The recovery contract: recovered state == WAL's committed view.
        let expected = db.wal().recover();
        db.crash();
        db.recover();
        for (item, value) in &expected {
            prop_assert_eq!(db.value(item), Some(*value));
        }
    }

    /// SP7/SP8: the lock manager never grants incompatible locks,
    /// whatever the request sequence, and keeps no entry for an item
    /// nobody holds or awaits. The table is hashed, yet nothing it
    /// returns shows it: a release reports its items ascending and
    /// grants in (item ascending, queue order).
    #[test]
    fn lock_table_invariants(ops in ops_strategy(40)) {
        let mut lm = LockManager::new();
        // The same requests, driven into a bare table as the engine's
        // shards drive it, for what `release_all` itself returns.
        let mut table = LockTable::default();
        // Who waits for each item, in arrival order.
        let mut queues: BTreeMap<String, Vec<TxnId>> = BTreeMap::new();
        let mut finished = std::collections::BTreeSet::new();
        let txns = || (1u64..5).map(TxnId);
        for op in &ops {
            let txn = TxnId(op.txn);
            if finished.contains(&txn) {
                continue;
            }
            let item = format!("X{}", op.item);
            let mode = if op.write { LockMode::Exclusive } else { LockMode::Shared };
            let _ = table.try_or_enqueue(txn, &item, mode);
            let queue = queues.entry(item.clone()).or_default();
            // A holder asking again is granted on the spot and keeps
            // whatever stronger request it has queued.
            let held_already = lm.holds(txn, &item, mode);
            match lm.acquire(txn, item.clone(), mode) {
                Ok(mcv::txn::LockOutcome::WouldDeadlock { .. }) => {
                    for queue in queues.values_mut() {
                        queue.retain(|t| *t != txn);
                    }
                    let granted = lm.release_all(txn);
                    prop_assert!(
                        granted.windows(2).all(|w| w[0].1 <= w[1].1),
                        "grants not ascending by item: {:?}", granted
                    );
                    for (item, queue) in &mut queues {
                        let now: Vec<TxnId> =
                            granted.iter().filter(|g| &g.1 == item).map(|g| g.0).collect();
                        prop_assert!(
                            queue.starts_with(&now),
                            "{} granted to {:?}, queued {:?}", item, now, queue
                        );
                        queue.drain(..now.len());
                    }
                    let mut released = vec!["A".to_owned()];
                    let contended = table.release_all(txn, Some(&mut released));
                    prop_assert!(contended.windows(2).all(|w| w[0] < w[1]), "{:?}", contended);
                    prop_assert!(released[1..].windows(2).all(|w| w[0] < w[1]), "{:?}", released);
                    prop_assert_eq!(&released[0], "A", "release_all reordered the caller's list");
                    finished.insert(txn);
                }
                Ok(mcv::txn::LockOutcome::Queued) => {
                    prop_assert!(!lm.holds(txn, &item, mode), "{} queued for a lock it holds", txn);
                    if !queue.contains(&txn) {
                        queue.push(txn);
                    }
                }
                Ok(_) if held_already => {}
                Ok(_) => queue.retain(|t| *t != txn),
                Err(_) => {}
            }
            // Invariant: write-locked => no readers.
            if lm.write_locked(&item) {
                prop_assert_eq!(lm.read_count(&item), 0, "readers under a write lock on {}", item);
            }
            // Invariant, on every item: at most one exclusive holder,
            // and it excludes every other sharer.
            for i in 0u8..4 {
                let item = format!("X{i}");
                let writers: Vec<TxnId> =
                    txns().filter(|t| lm.holds(*t, &item, LockMode::Exclusive)).collect();
                prop_assert!(writers.len() <= 1, "{:?} all write-lock {}", writers, item);
                if let Some(w) = writers.first() {
                    for t in txns().filter(|t| t != w) {
                        prop_assert!(
                            !lm.holds(t, &item, LockMode::Shared),
                            "{} shares {} under {}'s write lock", t, item, w
                        );
                    }
                }
            }
        }
        // Once everybody has released, the table is empty: it is
        // bounded by the locks in flight, not by the items ever seen.
        for t in txns() {
            lm.release_all(t);
        }
        prop_assert_eq!(lm.table().len(), 0);
    }

    /// The WAL recovery function is idempotent and monotone in commits.
    #[test]
    fn wal_recovery_laws(ops in ops_strategy(25)) {
        let mut wal = Wal::new();
        for (i, op) in ops.iter().enumerate() {
            let txn = TxnId(op.txn);
            wal.log_update(txn, format!("X{}", op.item), 0, op.value);
            if i % 4 == 3 {
                wal.log_commit(txn);
            }
        }
        let once = wal.recover();
        let twice = wal.recover();
        prop_assert_eq!(&once, &twice);
        // Committing one more in-doubt txn only adds/overwrites keys.
        if let Some(t) = wal.in_doubt().iter().next().copied() {
            wal.log_commit(t);
            let after = wal.recover();
            for k in once.keys() {
                prop_assert!(after.contains_key(k));
            }
        }
    }

    /// The byte image round-trips every record shape, including
    /// checkpoints, empty and non-ASCII items, and the extreme values
    /// of every varint field.
    #[test]
    fn wal_image_round_trips(wal in wal_strategy(12)) {
        prop_assert_eq!(Wal::from_bytes_lossy(&wal.to_bytes()), wal);
    }

    /// Torn tail: cutting the image at *any* offset leaves a prefix of
    /// the original records, and only the full image yields them all.
    #[test]
    fn wal_image_cut_anywhere_yields_a_record_prefix(wal in wal_strategy(8)) {
        let bytes = wal.to_bytes();
        for cut in 0..=bytes.len() {
            let survived = Wal::from_bytes_lossy(&bytes[..cut]);
            prop_assert!(is_prefix_of(&survived, &wal), "cut at {cut} of {}", bytes.len());
            prop_assert_eq!(survived.len() == wal.len(), survived.to_bytes().len() == bytes.len());
        }
    }

    /// Bit rot: one flipped bit anywhere in the image never panics the
    /// scan and never yields a record the log did not hold.
    #[test]
    fn wal_image_with_a_flipped_bit_yields_a_record_prefix(
        wal in wal_strategy(8),
        at in any::<usize>(),
    ) {
        let mut bytes = wal.to_bytes();
        if !bytes.is_empty() {
            let bit = at % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let survived = Wal::from_bytes_lossy(&bytes);
            prop_assert!(is_prefix_of(&survived, &wal), "bit {bit} flipped");
            prop_assert!(survived.len() < wal.len(), "bit {bit} flipped unnoticed");
        }
    }

    /// Arbitrary bytes — bare, and as the body of a well-formed frame
    /// so the record decoder itself is reached — decode to *some* log
    /// without panicking, and a decoded log re-encodes to a prefix of
    /// what was read.
    #[test]
    fn wal_decoder_accepts_arbitrary_bytes(
        junk in prop::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..5,
    ) {
        let mut body = vec![tag];
        body.extend_from_slice(&junk);
        for bytes in [junk.clone(), frame(&junk), frame(&body)] {
            let wal = Wal::from_bytes_lossy(&bytes);
            prop_assert!(wal.to_bytes().len() <= bytes.len());
        }
    }

    /// Recovery straight from the image is recovery of the decoded
    /// log, whatever the bytes: round-tripped logs with checkpoints cut
    /// at every offset, with one bit flipped, and arbitrary bytes bare
    /// and behind a valid frame.
    #[test]
    fn recover_bytes_is_recover_of_the_decoded_log(
        wal in wal_strategy(10),
        at in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..5,
    ) {
        let decoded_first = |bytes: &[u8]| Wal::from_bytes_lossy(bytes).recover();
        let mut bytes = wal.to_bytes();
        for cut in 0..=bytes.len() {
            prop_assert_eq!(Wal::recover_bytes(&bytes[..cut]), decoded_first(&bytes[..cut]), "cut at {}", cut);
        }
        if !bytes.is_empty() {
            let bit = at % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(Wal::recover_bytes(&bytes), decoded_first(&bytes), "bit {} flipped", bit);
        }
        let mut body = vec![tag];
        body.extend_from_slice(&junk);
        for bytes in [junk.clone(), frame(&junk), frame(&body)] {
            prop_assert_eq!(Wal::recover_bytes(&bytes), decoded_first(&bytes));
        }
    }

    /// Conflict-graph serializability detector agrees with a serial
    /// reference on serial histories.
    #[test]
    fn serial_histories_always_pass(ops in ops_strategy(30)) {
        let mut h = History::new();
        // Group ops by txn: a fully serial schedule.
        let mut sorted = ops.clone();
        sorted.sort_by_key(|o| o.txn);
        for op in sorted {
            h.push(TxnId(op.txn), format!("X{}", op.item), if op.write { OpKind::Write } else { OpKind::Read });
        }
        prop_assert!(h.is_conflict_serializable());
    }
}

#[test]
fn double_crash_during_recovery_is_harmless() {
    // "Undo and redo must function even if there is a second crash
    // during recovery."
    let mut db = SiteDb::new();
    db.begin(TxnId(1));
    db.write(TxnId(1), "X", 10).unwrap();
    db.commit(TxnId(1)).unwrap();
    db.begin(TxnId(2));
    db.write(TxnId(2), "X", 99).unwrap();
    db.crash();
    db.recover();
    db.crash(); // second crash immediately after recovery
    db.recover();
    assert_eq!(db.value("X"), Some(10));
    assert_eq!(db.in_doubt(), vec![TxnId(2)]);
}

#[test]
fn wal_decoder_rejects_hostile_lengths_without_allocating() {
    // A frame header claiming 4 GiB of body over 3 bytes of input.
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0, 1, 2]);
    assert!(Wal::from_bytes_lossy(&bytes).is_empty());
    // Well-framed bodies whose inner lengths lie: an update whose item
    // claims u64::MAX bytes, a checkpoint claiming u64::MAX pairs, and
    // a txn id varint that overflows 64 bits.
    let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let mut update = vec![0u8, 1];
    update.extend_from_slice(&huge);
    let mut checkpoint = vec![3u8];
    checkpoint.extend_from_slice(&huge);
    let overflow = [1u8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
    for body in [&update[..], &checkpoint[..], &overflow[..], &[][..], &[9][..]] {
        assert!(Wal::from_bytes_lossy(&frame(body)).is_empty(), "body {body:?}");
    }
    // The same framing around a real body is accepted: commit of T300.
    let wal = Wal::from_bytes_lossy(&frame(&[1, 0xac, 0x02]));
    assert_eq!(wal.committed().into_iter().collect::<Vec<_>>(), vec![TxnId(300)]);
}

/// A hand-framed checkpoint may repeat an item (the encoder never
/// does): both recovery paths keep the pair that comes last.
#[test]
fn checkpoint_with_a_repeated_item_recovers_its_last_value() {
    // Two pairs, ("X", 1) then ("X", 2), values zig-zagged.
    let bytes = frame(&[3, 2, 1, b'X', 2, 1, b'X', 4]);
    let expected = BTreeMap::from([("X".to_owned(), 2)]);
    assert_eq!(Wal::recover_bytes(&bytes), expected);
    assert_eq!(Wal::from_bytes_lossy(&bytes).recover(), expected);
}
