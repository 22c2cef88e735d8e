//! The open-loop cross-shard leg: pacing arrivals into `mcv_dist`.
//!
//! The cross-shard runtime accepts submissions while earlier
//! transactions are in flight, so the whole arrival schedule maps
//! directly onto [`PipelineConfig::arrival_us`] and one cluster serves
//! it — no shedding (arrivals queue at the pump behind the in-flight
//! window), per-transaction arrival-to-decision latency read off the
//! coordinator's commit log, the run judged by all eight cross-shard
//! oracles.

use std::time::Instant;

use mcv_dist::{run_pipeline, DistConfig, PipelineConfig};
use mcv_obs::Histogram;

use crate::arrivals::{ArrivalSchedule, LoadProfile};

/// Configuration for the streaming cross-shard leg.
#[derive(Debug, Clone)]
pub struct DistStreamConfig {
    /// Arrival process for cross-shard transactions. A windowed,
    /// batched schedule sustains thousands of txns/s.
    pub profile: LoadProfile,
    /// Data shards.
    pub n_shards: usize,
    /// Items each transaction writes at each shard.
    pub writes_per_shard: usize,
    /// Maximum undecided transactions in flight at once; arrivals
    /// beyond it queue at the pump (open-loop backlog, never shed).
    pub max_inflight: usize,
    /// Per-link transport batching window in microseconds.
    pub batch_window_us: u64,
    /// Per-transaction budget from arrival (µs) for goodput.
    pub deadline_us: u64,
}

impl Default for DistStreamConfig {
    fn default() -> Self {
        use crate::arrivals::ArrivalProcess;
        DistStreamConfig {
            profile: LoadProfile {
                process: ArrivalProcess::Poisson { rate_tps: 800.0 },
                duration_us: 100_000,
                sessions: 10_000,
                session_theta: 0.8,
                seed: 1,
            },
            n_shards: 2,
            writes_per_shard: 2,
            max_inflight: 32,
            batch_window_us: 600,
            deadline_us: 500_000,
        }
    }
}

/// What the streaming cross-shard leg produced.
#[derive(Debug, Clone)]
pub struct DistStreamReport {
    /// Arrivals in the schedule (every one is submitted; the pump
    /// queues behind the in-flight window instead of shedding).
    pub arrivals: u64,
    /// Committed at every shard.
    pub committed: u64,
    /// Uniformly aborted.
    pub aborted: u64,
    /// Any of the eight dist oracles violated (the run is judged once,
    /// as a whole).
    pub oracle_failures: u64,
    /// Arrival-to-coordinator-decision latency (µs), from the commit
    /// log's tick stamps.
    pub latency_us: Histogram,
    /// Decisions within the deadline budget.
    pub goodput: u64,
    /// Wall time of the leg.
    pub wall_ms: u64,
}

impl DistStreamReport {
    /// The run kept all eight oracles green.
    pub fn oracles_ok(&self) -> bool {
        self.oracle_failures == 0
    }

    /// One-line rendering.
    pub fn summary(&self) -> String {
        format!(
            "dist stream: {} arrivals -> {} committed / {} aborted, goodput {} | \
             p50/p99 {}/{} us | oracle failures {} | {} ms",
            self.arrivals,
            self.committed,
            self.aborted,
            self.goodput,
            self.latency_us.percentile(50.0),
            self.latency_us.percentile(99.0),
            self.oracle_failures,
            self.wall_ms,
        )
    }
}

/// Streams the whole arrival schedule through one pipelined cluster.
pub fn run_dist_stream(cfg: &DistStreamConfig) -> DistStreamReport {
    let schedule = ArrivalSchedule::generate(&cfg.profile);
    let arrival_us: Vec<u64> = schedule.arrivals.iter().map(|a| a.at_us).collect();
    let n_txns = arrival_us.len();
    let start = Instant::now();
    let dist = DistConfig {
        n_shards: cfg.n_shards,
        n_txns,
        writes_per_shard: cfg.writes_per_shard,
        seed: cfg.profile.seed,
        // No fault is scheduled, so a protocol timeout can only turn a
        // scheduling stall into an abort: keep it far above any stall.
        timeout: 1_000,
        // The pump owes the whole schedule; give the failsafe room.
        deadline_ms: 30_000,
        ..DistConfig::default()
    };
    let tick_us = dist.tick_us.max(1);
    let outcome = run_pipeline(&PipelineConfig {
        dist,
        max_inflight: cfg.max_inflight,
        batch_window_us: cfg.batch_window_us,
        arrival_us: Some(arrival_us.clone()),
    });

    let mut report = DistStreamReport {
        arrivals: n_txns as u64,
        committed: outcome.stats.committed,
        aborted: outcome.stats.aborted,
        oracle_failures: u64::from(outcome.violated().is_some()),
        latency_us: mcv_engine::latency_histogram(),
        goodput: 0,
        wall_ms: 0,
    };
    for e in &outcome.commit_log {
        let Some(at) = arrival_us.get((e.txn - mcv_dist::GLOBAL_TXN_BASE) as usize) else {
            continue;
        };
        let lat = (e.tick * tick_us).saturating_sub(*at);
        report.latency_us.record(lat);
        if lat <= cfg.deadline_us {
            report.goodput += 1;
        }
    }
    report.wall_ms = start.elapsed().as_millis().min(u64::MAX as u128) as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_schedule_commits_everything_without_shedding() {
        let cfg = DistStreamConfig {
            profile: LoadProfile { duration_us: 50_000, ..DistStreamConfig::default().profile },
            ..Default::default()
        };
        let report = run_dist_stream(&cfg);
        assert!(report.arrivals > 0);
        assert!(report.oracles_ok(), "{}", report.summary());
        assert_eq!(
            report.committed,
            report.arrivals,
            "fault-free streaming commits every arrival: {}",
            report.summary()
        );
        assert_eq!(report.latency_us.count, report.arrivals, "one decision latency per arrival");
    }
}
