//! The acknowledgement of a deferred commit owns an engine handle, and
//! it can be the last one: the load driver's crash plan swaps an
//! engine out while its commits are still waiting for the device. The
//! engine then shuts down *on* its log-writer thread, which must
//! neither join itself nor leave the acknowledgement undelivered.
//!
//! One test, alone in its file: it counts the process's threads and
//! hooks its panics.

use mcv_engine::{Engine, EngineConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

#[test]
fn dropping_the_last_handle_with_a_commit_staged_still_acknowledges_it() {
    static PANICKED: AtomicBool = AtomicBool::new(false);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        default_hook(info);
    }));

    let before = threads();
    let engine = Engine::new(EngineConfig { force_latency_us: 5_000, ..Default::default() });
    let (tx, rx) = mpsc::channel();
    let mut t = engine.begin();
    t.write("X", 1).expect("write");
    t.commit_then(move |r| tx.send(r).expect("test is listening"));
    drop(engine);

    let r = rx.recv_timeout(Duration::from_secs(20)).expect("the staged commit is acknowledged");
    assert_eq!(r, Ok(()));
    // The writer is on its own now; it must wind down, not die. (Where
    // there is no /proc both counts read 0 and only the hook judges.)
    let deadline = Instant::now() + Duration::from_secs(20);
    while threads() > before {
        assert!(Instant::now() < deadline, "the log writer never returned");
        std::thread::yield_now();
    }
    assert!(!PANICKED.load(Ordering::SeqCst), "a thread panicked while the engine shut down");
}
