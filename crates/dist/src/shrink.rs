//! Counterexample shrinking for distributed runs.
//!
//! Unlike the simulator, a threaded run is not bit-deterministic: real
//! scheduling jitter can mask a violation on any single replay. The
//! reproduction check therefore allows up to [`REPRO_ATTEMPTS`] runs
//! per candidate and accepts the candidate if *any* of them violates
//! the target oracle. The passes themselves mirror `mcv-chaos`:
//! fault-event removal (newest first), transaction-count reduction,
//! and fault-window tightening. They reduce the `dist` half of the
//! configuration only: every candidate replays under the submission
//! schedule (`max_inflight`, `batch_window_us`, `arrival_us`) that
//! found the violation.

use crate::multishot::{run_pipeline, PipelineConfig};

/// Replays allowed per candidate before declaring it non-reproducing.
pub const REPRO_ATTEMPTS: usize = 2;

/// A shrink result: the smallest configuration that still reproduces,
/// and how many runs it took to find.
#[derive(Debug, Clone)]
pub struct DistShrunk {
    /// The minimal violating configuration found.
    pub config: PipelineConfig,
    /// Runs spent.
    pub runs: usize,
}

fn reproduces(cfg: &PipelineConfig, oracle: &str, runs: &mut usize, budget: usize) -> bool {
    for _ in 0..REPRO_ATTEMPTS {
        if *runs >= budget {
            return false;
        }
        *runs += 1;
        if run_pipeline(cfg).violates(oracle) {
            return true;
        }
    }
    false
}

/// Shrinks `cfg` while it keeps violating `oracle`, spending at most
/// `budget` runs.
pub fn shrink(cfg: &PipelineConfig, oracle: &str, budget: usize) -> DistShrunk {
    let mut best = cfg.clone();
    let mut runs = 0usize;

    // Pass 1: drop fault events, newest first (later events are more
    // often incidental).
    let mut i = best.dist.schedule.len();
    while i > 0 && runs < budget {
        i -= 1;
        let mut cand = best.clone();
        cand.dist.schedule.events.remove(i);
        if reproduces(&cand, oracle, &mut runs, budget) {
            best = cand;
            // Indices shifted; restart from the (new) tail.
            i = best.dist.schedule.len();
        }
    }

    // Pass 2: fewer transactions; the window and the arrival offsets
    // are clamped to the plans that remain.
    while best.dist.n_txns > 1 && runs < budget {
        let mut cand = best.clone();
        cand.dist.n_txns -= 1;
        cand.max_inflight = cand.max_inflight.min(cand.dist.n_txns);
        if let Some(arrivals) = &mut cand.arrival_us {
            arrivals.truncate(cand.dist.n_txns);
        }
        if reproduces(&cand, oracle, &mut runs, budget) {
            best = cand;
        } else {
            break;
        }
    }

    // Pass 3: fewer shards (the topology floor for a cross-shard
    // counterexample is two).
    while best.dist.n_shards > 2 && runs < budget {
        let mut cand = best.clone();
        cand.dist.n_shards -= 1;
        if cand.dist.schedule.references_beyond(cand.dist.n_nodes()) {
            break;
        }
        if reproduces(&cand, oracle, &mut runs, budget) {
            best = cand;
        } else {
            break;
        }
    }

    // Pass 4: tighten every fault window to half its span.
    let mut progress = true;
    while progress && runs < budget {
        progress = false;
        for j in 0..best.dist.schedule.len() {
            let ev = &best.dist.schedule.events[j];
            let Some((from, until)) = ev.window() else { continue };
            if until <= from + 1 {
                continue;
            }
            let mut cand = best.clone();
            cand.dist.schedule.events[j] = ev.with_until(from + (until - from) / 2);
            if reproduces(&cand, oracle, &mut runs, budget) {
                best = cand;
                progress = true;
            }
        }
    }

    DistShrunk { config: best, runs }
}
