//! SLO measurement: latency-vs-load sweeps, the saturation knee, and
//! the seeded shard-crash-during-flash-crowd campaign whose
//! recovery-time distribution `exp.slo` reports.

use mcv_obs::Histogram;

use crate::arrivals::{ArrivalProcess, ArrivalSchedule};
use crate::driver::{run_load_with_schedule, CrashPlan, LoadConfig, LoadReport};

/// One point of a latency-vs-load curve.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Offered rate this point ran at (txns/s, realized).
    pub offered_tps: f64,
    /// In-deadline commits per offered second.
    pub goodput_tps: f64,
    /// Shed events.
    pub shed: u64,
    /// Latency percentiles (µs).
    pub p50_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// All correctness oracles green at this point.
    pub oracles_ok: bool,
}

/// Runs `base` once per rate (Poisson arrivals; everything else from
/// the base config) and returns the latency-vs-load curve.
pub fn rate_sweep(base: &LoadConfig, rates_tps: &[f64]) -> Vec<SweepPoint> {
    let picker = base.profile.session_picker();
    rates_tps
        .iter()
        .map(|&rate| {
            let mut cfg = base.clone();
            cfg.profile.process = ArrivalProcess::Poisson { rate_tps: rate };
            let schedule = ArrivalSchedule::generate_with(&cfg.profile, &picker);
            let r = run_load_with_schedule(&cfg, &schedule);
            SweepPoint {
                offered_tps: r.offered_tps(),
                goodput_tps: r.goodput_tps(),
                shed: r.shed,
                p50_us: r.latency_us.percentile(50.0),
                p99_us: r.latency_us.percentile(99.0),
                p999_us: r.latency_us.percentile(99.9),
                oracles_ok: r.oracles_ok(),
            }
        })
        .collect()
}

/// The saturation knee of a sweep: the point with the highest goodput.
/// Past it, offered load only adds shedding and latency.
pub fn knee(points: &[SweepPoint]) -> &SweepPoint {
    points
        .iter()
        .max_by(|a, b| a.goodput_tps.partial_cmp(&b.goodput_tps).expect("no NaN goodput"))
        .expect("sweep has at least one point")
}

/// The shard-crash-during-flash-crowd campaign: `seeds` independent
/// open-loop runs, each crashing one engine mid-crowd, judged on
/// recovery time and oracle verdicts.
#[derive(Debug, Clone)]
pub struct SloCampaignConfig {
    /// Per-run template; the profile seed is overridden per run.
    pub base: LoadConfig,
    /// Number of seeded runs.
    pub seeds: u64,
    /// First seed; run `i` uses `seed_base + i` (disjoint seed bases
    /// give independent campaigns for the flake tier).
    pub seed_base: u64,
    /// Recovery-time SLO: a run passes when p99 is back under target
    /// within this many ms of the crash.
    pub slo_ms: u64,
}

/// Aggregated campaign verdicts.
#[derive(Debug, Clone)]
pub struct SloCampaignReport {
    /// Runs executed.
    pub runs: u64,
    /// Runs whose recovery time met the SLO.
    pub recovered_within_slo: u64,
    /// Runs where p99 never returned under target.
    pub never_recovered: u64,
    /// Runs with any correctness-oracle violation.
    pub oracle_failures: u64,
    /// Runs that left arrivals unresolved at the drain cap.
    pub unresolved_runs: u64,
    /// Total arrivals across the campaign (deterministic in the seed
    /// set, so `exp.slo` asserts it as a cross-machine anchor).
    pub arrivals_total: u64,
    /// Total shed events.
    pub shed_total: u64,
    /// Recovery-time distribution (ms) over recovered runs.
    pub recovery_ms: Histogram,
    /// Worst observed recovery (ms) among recovered runs.
    pub worst_recovery_ms: u64,
}

impl SloCampaignReport {
    /// Fraction of runs that met the recovery SLO.
    pub fn slo_fraction(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.recovered_within_slo as f64 / self.runs as f64
    }

    /// One-line rendering.
    pub fn summary(&self) -> String {
        format!(
            "slo campaign: {}/{} runs recovered within slo ({:.0}%), {} never, \
             {} oracle failures, {} unresolved | recovery p50/p99 {}/{} ms (worst {}) \
             | {} arrivals, {} shed",
            self.recovered_within_slo,
            self.runs,
            100.0 * self.slo_fraction(),
            self.never_recovered,
            self.oracle_failures,
            self.unresolved_runs,
            self.recovery_ms.percentile(50.0),
            self.recovery_ms.percentile(99.0),
            self.worst_recovery_ms,
            self.arrivals_total,
            self.shed_total,
        )
    }
}

/// Runs the campaign. The crash plan must be present in the template.
pub fn run_slo_campaign(cfg: &SloCampaignConfig) -> SloCampaignReport {
    assert!(cfg.base.crash.is_some(), "slo campaign needs a crash plan");
    let picker = cfg.base.profile.session_picker();
    let mut report = SloCampaignReport {
        runs: 0,
        recovered_within_slo: 0,
        never_recovered: 0,
        oracle_failures: 0,
        unresolved_runs: 0,
        arrivals_total: 0,
        shed_total: 0,
        // Millisecond-scale bounds.
        recovery_ms: Histogram::with_bounds(vec![
            25, 50, 75, 100, 150, 200, 300, 500, 1_000, 2_000, 5_000,
        ]),
        worst_recovery_ms: 0,
    };
    for i in 0..cfg.seeds {
        let mut run_cfg = cfg.base.clone();
        run_cfg.profile.seed = cfg.seed_base + i;
        let schedule = ArrivalSchedule::generate_with(&run_cfg.profile, &picker);
        let r = run_load_with_schedule(&run_cfg, &schedule);
        tally(&mut report, &r, cfg.slo_ms);
    }
    report
}

fn tally(report: &mut SloCampaignReport, r: &LoadReport, slo_ms: u64) {
    report.runs += 1;
    report.arrivals_total += r.arrivals;
    report.shed_total += r.shed;
    if !r.oracles_ok() {
        report.oracle_failures += 1;
    }
    if r.unresolved > 0 {
        report.unresolved_runs += 1;
    }
    match r.recovery_ms {
        Some(ms) => {
            report.recovery_ms.record(ms);
            report.worst_recovery_ms = report.worst_recovery_ms.max(ms);
            if ms <= slo_ms {
                report.recovered_within_slo += 1;
            }
        }
        None => report.never_recovered += 1,
    }
}

/// The standard flash-crowd-with-crash template the CI campaign and
/// `exp.slo` share: 2 engines, bank transfers, a 3x crowd in the
/// middle of the run, engine 1 crashing mid-crowd.
pub fn crash_campaign_template() -> LoadConfig {
    use crate::admission::ShedPolicy;
    use crate::arrivals::LoadProfile;
    use crate::driver::LoadWorkload;
    LoadConfig {
        profile: LoadProfile {
            process: ArrivalProcess::FlashCrowd {
                base_tps: 1_500.0,
                peak_tps: 4_500.0,
                start_us: 60_000,
                end_us: 160_000,
            },
            duration_us: 250_000,
            sessions: 1_000_000,
            session_theta: 0.8,
            seed: 0,
        },
        engine: mcv_engine::EngineConfig::default(),
        engines: 2,
        items_per_engine: 128,
        session_span: 8,
        workload: LoadWorkload::Bank,
        workers: 4,
        queue_cap: 64,
        policy: ShedPolicy::RetryAfter { base_us: 1_000, cap_us: 16_000 },
        deadline_us: 100_000,
        p99_target_us: 20_000,
        p99_window_us: 40_000,
        crash: Some(CrashPlan { engine: 1, at_us: 80_000, restart_after_us: 40_000 }),
        telemetry_window_us: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_picks_the_goodput_maximum() {
        let mk = |offered, goodput| SweepPoint {
            offered_tps: offered,
            goodput_tps: goodput,
            shed: 0,
            p50_us: 0,
            p99_us: 0,
            p999_us: 0,
            oracles_ok: true,
        };
        let pts = vec![mk(1000.0, 990.0), mk(2000.0, 1900.0), mk(4000.0, 1500.0)];
        assert_eq!(knee(&pts).offered_tps, 2000.0);
    }

    #[test]
    fn small_campaign_recovers_and_keeps_oracles_green() {
        let mut base = crash_campaign_template();
        // Shrink for test wall time.
        base.profile.sessions = 50_000;
        base.profile.duration_us = 200_000;
        let campaign =
            run_slo_campaign(&SloCampaignConfig { base, seeds: 3, seed_base: 9000, slo_ms: 300 });
        assert_eq!(campaign.runs, 3);
        assert_eq!(campaign.oracle_failures, 0, "{}", campaign.summary());
        assert!(campaign.shed_total > 0, "crash must shed: {}", campaign.summary());
        assert!(
            campaign.recovered_within_slo >= 2,
            "recovery mostly within slo: {}",
            campaign.summary()
        );
    }
}
