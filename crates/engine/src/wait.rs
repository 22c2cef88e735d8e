//! The one wait primitive of the workspace: park for all but the last
//! stretch before a deadline, poll that stretch.
//!
//! A timed park on this class of machine returns late by more than the
//! intervals it is supposed to time (`thread::sleep(10 us)` after 79 us,
//! `recv_timeout(50 us)` after 127 us — DESIGN.md "Wait discipline"),
//! so a wait that must end *at* an instant cannot be one park. Every
//! timed wait goes through this module instead — the modeled log
//! device and the group-commit dwell here, the pump, network thread
//! and node loop of `mcv-dist`, the open-loop pacer of `mcv-load`: the
//! park is cut short by `POLL_STRETCH`, its overshoot lands inside
//! the stretch, and the rest is polled against the clock. The stretch
//! is bounded so a waiter burns at most that much CPU per deadline
//! however far away the deadline is. These are the workspace's only
//! `thread::sleep` / `recv_timeout` / `wait_timeout` call sites outside
//! test code (`xtask docsync` checks).

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The stretch before a deadline that is polled rather than parked:
/// the measured overshoot of a timed park (70 us on a 10 us park,
/// 115 us on a 1 ms one) with a margin for a busy box.
const POLL_STRETCH: Duration = Duration::from_micros(150);

/// How long to park with `left` to go before the deadline: everything
/// but the polled stretch. `None` inside the stretch.
fn park_budget(left: Duration) -> Option<Duration> {
    left.checked_sub(POLL_STRETCH).filter(|park| !park.is_zero())
}

/// How a [`recv_until`] ended.
#[derive(Debug, PartialEq)]
pub enum Received<T> {
    /// A message arrived (or was already queued).
    Msg(T),
    /// The deadline passed with the channel empty.
    Deadline,
    /// Every sender hung up.
    Disconnected,
}

/// Receives from `rx` until `deadline` (`None`: until a message or
/// hang-up). A queued message is returned without parking; a timeout is
/// never reported before the deadline.
pub fn recv_until<T>(rx: &Receiver<T>, deadline: Option<Instant>) -> Received<T> {
    let Some(deadline) = deadline else {
        return rx.recv().map_or(Received::Disconnected, Received::Msg);
    };
    loop {
        match rx.try_recv() {
            Ok(msg) => return Received::Msg(msg),
            Err(TryRecvError::Disconnected) => return Received::Disconnected,
            Err(TryRecvError::Empty) => {}
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Received::Deadline;
        }
        match park_budget(left) {
            Some(park) => match rx.recv_timeout(park) {
                Ok(msg) => return Received::Msg(msg),
                Err(RecvTimeoutError::Disconnected) => return Received::Disconnected,
                // Woke inside (or past) the stretch: poll the rest.
                Err(RecvTimeoutError::Timeout) => {}
            },
            None => std::hint::spin_loop(),
        }
    }
}

/// Blocks the thread until `deadline`, to the accuracy of a clock read.
pub fn sleep_until(deadline: Instant) {
    if let Some(park) = park_budget(deadline.saturating_duration_since(Instant::now())) {
        std::thread::sleep(park);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Parks on `cv` until `ready` holds of the state behind `lock` or
/// `deadline` passes, and returns the re-taken guard. `ready` is
/// checked under the lock on every wake; the polled stretch runs with
/// the lock released (it polls the clock, not the state — a change
/// landing inside the stretch is seen at the deadline), so a waiter
/// never spins on a mutex the signalling threads need.
pub fn wait_until<'a, T>(
    lock: &'a Mutex<T>,
    cv: &Condvar,
    deadline: Instant,
    ready: impl Fn(&T) -> bool,
) -> MutexGuard<'a, T> {
    let mut guard = lock.lock().expect("waited-on mutex poisoned");
    loop {
        if ready(&guard) {
            return guard;
        }
        match park_budget(deadline.saturating_duration_since(Instant::now())) {
            Some(park) => {
                guard = cv.wait_timeout(guard, park).expect("waited-on mutex poisoned").0;
            }
            None => {
                drop(guard);
                sleep_until(deadline);
                return lock.lock().expect("waited-on mutex poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_timeout_is_never_reported_before_its_deadline() {
        let (_tx, rx) = mpsc::channel::<u8>();
        // Inside the stretch (pure poll), just past it, and well past it
        // (park, then poll).
        for us in [0, 20, 140, 160, 400, 2_000] {
            let deadline = Instant::now() + Duration::from_micros(us);
            assert_eq!(recv_until(&rx, Some(deadline)), Received::Deadline);
            assert!(Instant::now() >= deadline, "{us} us wait reported its timeout early");
        }
    }

    #[test]
    fn a_queued_message_is_returned_without_parking() {
        let (tx, rx) = mpsc::channel();
        tx.send(7u8).expect("receiver alive");
        // A park of any length would outlast this bound by hours.
        let far = Instant::now() + Duration::from_secs(3_600);
        let t0 = Instant::now();
        assert_eq!(recv_until(&rx, Some(far)), Received::Msg(7));
        assert!(t0.elapsed() < Duration::from_secs(60));
        tx.send(8).expect("receiver alive");
        assert_eq!(recv_until(&rx, None), Received::Msg(8));
    }

    #[test]
    fn a_hang_up_ends_the_wait() {
        let (tx, rx) = mpsc::channel::<u8>();
        drop(tx);
        let far = Instant::now() + Duration::from_secs(3_600);
        assert_eq!(recv_until(&rx, Some(far)), Received::Disconnected);
        assert_eq!(recv_until(&rx, None), Received::Disconnected);
    }

    #[test]
    fn sleep_until_reaches_its_deadline() {
        for us in [0, 50, 300, 1_500] {
            let deadline = Instant::now() + Duration::from_micros(us);
            sleep_until(deadline);
            assert!(Instant::now() >= deadline);
        }
    }

    #[test]
    fn wait_until_returns_at_the_deadline_when_nothing_changes() {
        let (lock, cv) = (Mutex::new(0u32), Condvar::new());
        for us in [50, 1_000] {
            let deadline = Instant::now() + Duration::from_micros(us);
            let guard = wait_until(&lock, &cv, deadline, |v| *v > 0);
            assert!(Instant::now() >= deadline);
            assert_eq!(*guard, 0);
        }
    }
}
