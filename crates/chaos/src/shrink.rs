//! Delta-debugging shrinker: reduces a violating configuration of any
//! [`Target`] to a minimal counterexample that still violates the same
//! oracle.
//!
//! Three reductions are applied to a fixpoint, cheapest first:
//! dropping fault events one at a time, the target's topology
//! reductions (the schedule restricted to the processes left), and
//! tightening fault windows by binary search. Every candidate is
//! re-executed, up to [`Target::RUNS_PER_CHECK`] times — the shrinker
//! never assumes a smaller schedule fails just because a larger one did.

use crate::campaign::{violates, Target};

/// Outcome of a shrink: the minimal configuration found plus how much
/// work it took.
#[derive(Debug, Clone)]
pub struct Shrunk<T> {
    /// The minimized configuration (still violates the oracle).
    pub config: T,
    /// Runs spent shrinking.
    pub runs: usize,
}

/// Shrinks `cfg` while `oracle` keeps failing, within a run budget.
/// `cfg` itself must already violate `oracle`.
pub fn shrink<T: Target>(cfg: &T, oracle: &str, budget: usize) -> Shrunk<T> {
    let mut best = cfg.clone();
    let mut runs = 0;
    let fails = |cand: &T, runs: &mut usize| -> bool {
        (0..T::RUNS_PER_CHECK).any(|_| {
            if *runs >= budget {
                return false;
            }
            *runs += 1;
            violates::<T>(&cand.run(), oracle)
        })
    };

    loop {
        let mut progressed = false;

        // Greedy single-event removal. Scanning from the back first
        // tends to drop the late, irrelevant events cheaply.
        let mut i = best.schedule().len();
        while i > 0 {
            i -= 1;
            let mut cand = best.clone();
            cand.schedule_mut().events.remove(i);
            if fails(&cand, &mut runs) {
                best = cand;
                progressed = true;
            }
        }

        // Topology: each reduction while the violation survives.
        for reduce in T::REDUCTIONS {
            while let Some(mut cand) = reduce(&best) {
                let n_procs = cand.n_procs();
                cand.schedule_mut().restrict(n_procs);
                if !fails(&cand, &mut runs) {
                    break;
                }
                best = cand;
                progressed = true;
            }
        }

        // Window tightening: binary-search each window's end down.
        for i in 0..best.schedule().len() {
            let event = best.schedule().events[i].clone();
            let Some((from, until)) = event.window() else { continue };
            let (mut lo, mut hi) = (from + 1, until);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mut cand = best.clone();
                cand.schedule_mut().events[i] = event.with_until(mid);
                if fails(&cand, &mut runs) {
                    best = cand;
                    hi = mid;
                    progressed = true;
                } else {
                    lo = mid + 1;
                }
            }
        }

        if !progressed || runs >= budget {
            break;
        }
    }
    Shrunk { config: best, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_chaos, ChaosConfig};
    use crate::schedule::{FaultEvent, FaultSchedule};

    #[test]
    fn shrink_drops_irrelevant_events() {
        // A naive-timeout split brain caused by one drop window (the
        // prepare to cohort 3 is lost, so it aborts on its PrepareWait
        // timeout while the others commit), padded with noise events
        // that change nothing.
        let essential = FaultEvent::DropWindow { src: None, dst: Some(3), from: 13, until: 20 };
        let cfg = ChaosConfig {
            naive_timeouts: true,
            schedule: FaultSchedule {
                events: vec![
                    FaultEvent::DupWindow { src: None, dst: None, from: 500, until: 600 },
                    essential.clone(),
                    FaultEvent::Crash { proc: 3, at: 700 },
                    FaultEvent::Recover { proc: 3, at: 900 },
                ],
            },
            ..ChaosConfig::default()
        };
        let out = run_chaos(&cfg);
        assert!(out.violates("ac1_agreement"), "setup must fail: {:?}", out.oracles);
        let shrunk = shrink(&cfg, "ac1_agreement", 300);
        assert!(run_chaos(&shrunk.config).violates("ac1_agreement"));
        assert!(
            shrunk.config.schedule.len() <= 2,
            "expected the noise gone, got {:?}",
            shrunk.config.schedule
        );
    }
}
