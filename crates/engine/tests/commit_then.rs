//! `Txn::commit_then`: the committer leaves, the log writer
//! acknowledges. What must hold whoever does the waiting: a commit is
//! acknowledged only after the force that covers it, in log order,
//! with the transaction's locks held until then, and on the caller's
//! thread where there is no writer to hand it to.

use mcv_engine::{Engine, EngineConfig, EngineError};
use mcv_mvcc::IsolationLevel;
use mcv_prof::Phase;
use mcv_txn::{TxnId, Wal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const LONG: Duration = Duration::from_secs(20);

fn device(force_latency_us: u64) -> Engine {
    Engine::new(EngineConfig { force_latency_us, ..Default::default() })
}

#[test]
fn ack_finds_its_commit_record_in_the_durable_image() {
    let engine = device(300);
    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let (engine, tx) = (engine.clone(), tx.clone());
            std::thread::spawn(move || {
                for i in 0..50 {
                    let mut t = engine.begin();
                    t.write(&format!("k{c}.{i}"), i).expect("private key");
                    let (id, engine, tx) = (t.id(), engine.clone(), tx.clone());
                    t.commit_then(move |r| {
                        let durable = Wal::from_bytes_lossy(&engine.durable_image()).committed();
                        tx.send((r, durable.contains(&id))).expect("test is listening");
                    });
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client");
    }
    for _ in 0..200 {
        let (r, durable) = rx.recv_timeout(LONG).expect("every commit is acknowledged");
        assert_eq!(r, Ok(()));
        assert!(durable, "acknowledged before its record was forced");
    }
    let m = engine.metrics_snapshot();
    assert_eq!(m.counter("engine.txn.committed"), 200);
    assert_eq!(m.counter("engine.wal.deferred_acks"), 200);
}

#[test]
fn one_thread_alone_gets_group_commit_and_acks_in_log_order() {
    let engine = device(2_000);
    let acked = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel();
    let mut staged = Vec::new();
    for i in 0..8 {
        let mut t = engine.begin();
        t.write(&format!("k{i}"), i).expect("private key");
        staged.push(t.id());
        let (id, acked, tx) = (t.id(), Arc::clone(&acked), tx.clone());
        t.commit_then(move |r| {
            acked.lock().expect("acked").push(id);
            tx.send(r).expect("test is listening");
        });
    }
    for _ in 0..8 {
        assert_eq!(rx.recv_timeout(LONG).expect("acknowledged"), Ok(()));
    }
    assert_eq!(*acked.lock().expect("acked"), staged, "acknowledgements follow the log");
    let m = engine.metrics_snapshot();
    let (forces, commits) = (m.counter("engine.wal.forces"), m.counter("engine.wal.commits"));
    assert_eq!(commits, 8);
    assert!(forces < commits, "a lone committer must batch: {forces} forces / {commits} commits");
}

/// The writer runs acknowledgements one at a time, so one that waits
/// on the test holds back every later one: the reader below is known
/// to be blocked while the writer's transaction is still
/// unacknowledged, and to come back only once it is.
#[test]
fn staged_commit_keeps_its_locks_until_it_is_acknowledged() {
    let engine = device(0);
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let mut first = engine.begin();
    first.write("other", 1).expect("write");
    first.commit_then(move |_| gate_rx.recv_timeout(LONG).expect("gate opens"));

    let (done_tx, done_rx) = mpsc::channel();
    let mut writer = engine.begin();
    writer.write("X", 7).expect("write");
    let writer_id = writer.id();
    // Appends while the log writer sits in `first`'s acknowledgement:
    // acknowledgements run outside the log's mutex.
    writer.commit_then(move |r| done_tx.send(r).expect("test is listening"));

    let reader = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut t = engine.begin();
            let v = t.read("X").expect("read");
            let durable = Wal::from_bytes_lossy(&engine.durable_image()).committed();
            t.commit().expect("commit");
            (v, durable)
        })
    };
    while engine.metrics_snapshot().counter("engine.locks.conflicts") == 0 {
        std::thread::yield_now();
    }
    assert!(!reader.is_finished(), "read a value whose commit nobody acknowledged");
    assert!(done_rx.try_recv().is_err());

    gate_tx.send(()).expect("first's acknowledgement is waiting");
    assert_eq!(done_rx.recv_timeout(LONG).expect("acknowledged"), Ok(()));
    let (v, durable) = reader.join().expect("reader");
    assert_eq!(v, 7);
    assert!(durable.contains(&writer_id), "read data that was not durable");
}

#[test]
fn an_acknowledgement_may_use_the_engine() {
    let engine = device(200);
    let (tx, rx) = mpsc::channel();
    let mut t = engine.begin();
    t.write("X", 1).expect("write");
    let inner = engine.clone();
    t.commit_then(move |r| {
        assert_eq!(r, Ok(()));
        let image = inner.durable_image();
        let mut next = inner.begin();
        next.write("Y", image.len() as i64).expect("write");
        next.commit_then(move |r| tx.send(r).expect("test is listening"));
    });
    assert_eq!(rx.recv_timeout(LONG).expect("the chained commit is acknowledged"), Ok(()));
    assert!(engine.value("Y") > 0);
}

#[test]
fn without_group_commit_done_runs_on_the_callers_thread() {
    let engine = Engine::new(EngineConfig { group_commit: false, ..Default::default() });
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    for i in 0..5 {
        let mut t = engine.begin();
        t.write("X", i).expect("write");
        let ran_on = Arc::clone(&ran_on);
        t.commit_then(move |r| {
            assert_eq!(r, Ok(()));
            ran_on.lock().expect("ran_on").push(std::thread::current().id());
        });
    }
    assert_eq!(*ran_on.lock().expect("ran_on"), vec![std::thread::current().id(); 5]);
    let m = engine.metrics_snapshot();
    assert_eq!(m.counter("engine.wal.forces"), 5);
    assert_eq!(m.counter("engine.wal.commits"), 5);
    assert_eq!(m.counter("engine.wal.deferred_acks"), 0);
}

/// Commit-time certification can only fail on the read set: a written
/// item stays locked from its (eagerly certified) write to the commit,
/// so under plain snapshot isolation nobody loses this late.
#[test]
fn a_certification_loser_is_told_once() {
    let engine = Engine::new(EngineConfig {
        isolation: IsolationLevel::SerializableSsi,
        ..Default::default()
    });
    let mut loser = engine.begin();
    assert_eq!(loser.read("X").expect("read"), 0);
    let mut winner = engine.begin();
    winner.write("X", 1).expect("write");
    winner.commit().expect("first committer");
    loser.write("Y", 1).expect("write");
    let told = Arc::new(AtomicU64::new(0));
    let (told2, id) = (Arc::clone(&told), loser.id());
    loser.commit_then(move |r| {
        assert!(
            matches!(&r, Err(EngineError::Certification { txn, item }) if *txn == id && item == "X"),
            "{r:?}"
        );
        told2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(told.load(Ordering::Relaxed), 1);
    assert_eq!(engine.value("Y"), 0);
    assert_eq!(engine.metrics_snapshot().counter("engine.mvcc.cert_aborts"), 1);
}

#[test]
fn traced_run_keeps_force_before_ack_and_cause_order() {
    let ((), trace) = mcv_trace::record_trace(None, || {
        let engine = device(100);
        let (tx, rx) = mpsc::channel();
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (engine, tx) = (engine.clone(), tx.clone());
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let mut t = engine.begin();
                        let r = t
                            .read("ctr")
                            .and_then(|v| t.write("ctr", v + 1))
                            .and_then(|()| t.write(&format!("w{c}.{i}"), i));
                        match r {
                            Ok(()) => {
                                let tx = tx.clone();
                                t.commit_then(move |r| tx.send(r).expect("test is listening"));
                            }
                            Err(_) => {
                                t.abort();
                                tx.send(Ok(())).expect("test is listening");
                            }
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client");
        }
        for _ in 0..20 {
            assert_eq!(rx.recv_timeout(LONG).expect("resolved"), Ok(()));
        }
    });
    let report = mcv_trace::check(&trace);
    assert!(report.ok(), "{}", report.summary());
    let index = trace.by_id();
    let commits: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, mcv_trace::EventKind::Commit { .. }))
        .collect();
    assert!(!commits.is_empty());
    for c in commits {
        let cause = c.cause.and_then(|id| index.get(&id).copied()).expect("commit has a cause");
        assert!(matches!(cause.kind, mcv_trace::EventKind::WalForce { .. }), "{}", cause.kind);
    }
}

/// Both ways of not waiting in `commit` book the wait they skipped:
/// the device operation as `WalForce`, the rest as `WalDwell`.
#[test]
fn deferred_and_batched_commits_split_dwell_from_force() {
    let profiler = mcv_prof::Profiler::new();
    let (deferred, batched) = mcv_prof::with_profiler(&profiler, || {
        let engine = device(1_000);
        let (tx, rx) = mpsc::channel();
        let mut t = engine.begin();
        t.write("X", 1).expect("write");
        let deferred = t.id();
        t.commit_then(move |r| tx.send(r).expect("test is listening"));
        assert_eq!(rx.recv_timeout(LONG).expect("acknowledged"), Ok(()));
        let mut t = engine.begin();
        t.write("Y", 1).expect("write");
        let batched = t.id();
        engine.finish_commits(vec![t.commit_stage().expect("stage")]);
        (deferred, batched)
    });
    let samples = profiler.harvest();
    for TxnId(id) in [deferred, batched] {
        let tl = samples.timelines.iter().find(|tl| tl.txn == id).expect("one timeline per commit");
        let force = tl.phase_ns[Phase::WalForce.index()];
        assert!(force >= 900_000, "txn {id}: device time {force} ns of a 1 ms operation");
        assert!(tl.attributed_ns() <= tl.total_ns, "txn {id}: {tl:?}");
    }
}
