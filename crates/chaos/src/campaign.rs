//! Seed-sweeping campaigns over any [`Target`]: generate a fault
//! schedule per seed, run it, tally per-oracle verdicts into an
//! [`mcv_obs::RunReport`], and on violation shrink to a minimal,
//! replayable counterexample.

use crate::artifact::Artifact;
use crate::oracle::OracleResult;
use crate::schedule::{FaultPlan, FaultSchedule};
use crate::shrink::shrink;
use std::collections::BTreeMap;
use std::fmt;

/// A run configuration a campaign can drive: it carries a seed and a
/// fault schedule the campaign sets, runs to oracle verdicts, and names
/// the topology reductions the shrinker may try. [`ChaosConfig`]
/// (the deterministic simulator) and `mcv_dist::PipelineConfig` (real
/// threads) implement it; everything else — the sweep, the shrinker and
/// the artifact — is shared.
///
/// [`ChaosConfig`]: crate::ChaosConfig
pub trait Target:
    Clone + fmt::Debug + PartialEq + serde::Serialize + serde::Deserialize + 'static
{
    /// What one run produces.
    type Outcome;
    /// Artifact ids read `<KIND>-<oracle>-<n>ev-seed<seed>`.
    const KIND: &'static str;
    /// The example whose `--replay <file>` re-executes an artifact.
    const REPLAY_EXAMPLE: &'static str;
    /// Runs allowed per shrink candidate and per reproduction check: 1
    /// for a deterministic run, more where scheduling jitter can mask a
    /// violation on any single run.
    const RUNS_PER_CHECK: usize;
    /// Default shrink budget, in runs.
    const SHRINK_BUDGET: usize;
    /// Topology reductions, tried in order: each returns the
    /// configuration one step smaller, or `None` at its floor. A
    /// reduction only shrinks the process range from the top; the
    /// shrinker restricts the schedule to what is left.
    const REDUCTIONS: &'static [fn(&Self) -> Option<Self>];

    /// Runs the configuration once.
    fn run(&self) -> Self::Outcome;
    /// Every oracle's verdict of a run.
    fn oracles(out: &Self::Outcome) -> &[OracleResult];
    /// The causal trace of a run.
    fn trace(out: Self::Outcome) -> mcv_trace::CausalTrace;
    /// The run's seed.
    fn seed(&self) -> u64;
    /// Sets the run's seed.
    fn set_seed(&mut self, seed: u64);
    /// The fault schedule.
    fn schedule(&self) -> &FaultSchedule;
    /// The fault schedule, for the campaign and the shrinker to set.
    fn schedule_mut(&mut self) -> &mut FaultSchedule;
    /// Process count: schedules name processes `0..n_procs`.
    fn n_procs(&self) -> usize;
}

/// The first violated oracle of a run, if any.
fn first_violation<T: Target>(out: &T::Outcome) -> Option<&OracleResult> {
    T::oracles(out).iter().find(|o| !o.pass)
}

/// Whether the named oracle failed in a run.
pub(crate) fn violates<T: Target>(out: &T::Outcome, oracle: &str) -> bool {
    T::oracles(out).iter().any(|o| o.name == oracle && !o.pass)
}

/// A campaign: a base configuration (its seed and schedule are
/// overwritten per run) plus the generation plan.
#[derive(Debug, Clone)]
pub struct Campaign<T> {
    /// Scenario template; seed and schedule are set per run.
    pub base: T,
    /// Random-schedule bounds.
    pub plan: FaultPlan,
    /// Run budget for shrinking each violation.
    pub shrink_budget: usize,
}

impl<T: Target> Campaign<T> {
    /// A campaign over `base` with the given plan and the target's
    /// default shrink budget.
    pub fn new(base: T, plan: FaultPlan) -> Self {
        Campaign { base, plan, shrink_budget: T::SHRINK_BUDGET }
    }

    /// Runs each seed's configuration — the base with that seed and
    /// the schedule the plan generates from it — in order, lazily.
    fn sweep(&self, seeds: std::ops::Range<u64>) -> impl Iterator<Item = (T, T::Outcome)> + '_ {
        seeds.map(|seed| {
            let mut cfg = self.base.clone();
            cfg.set_seed(seed);
            *cfg.schedule_mut() = FaultSchedule::generate(seed, &self.plan);
            let out = cfg.run();
            mcv_obs::counter("campaign.runs", 1);
            if first_violation::<T>(&out).is_some() {
                mcv_obs::counter("campaign.violations", 1);
            }
            (cfg, out)
        })
    }

    /// Sweeps seeds `seed_base..seed_base + n_seeds`, recording
    /// per-oracle tallies. Every failure is kept (seed + violated
    /// oracle), but nothing is shrunk — use [`Campaign::hunt`] for
    /// counterexample extraction. Distinct bases give the CI flake
    /// detector disjoint seed populations per round.
    pub fn run_seeds(&self, seed_base: u64, n_seeds: u64) -> CampaignSummary {
        let _span = mcv_obs::Span::enter("campaign");
        let mut passes: BTreeMap<String, u64> = BTreeMap::new();
        let mut fails: BTreeMap<String, u64> = BTreeMap::new();
        let mut failures = Vec::new();
        for (cfg, out) in self.sweep(seed_base..seed_base + n_seeds) {
            for o in T::oracles(&out) {
                *if o.pass { &mut passes } else { &mut fails }
                    .entry(o.name.clone())
                    .or_insert(0) += 1;
            }
            if let Some(v) = first_violation::<T>(&out) {
                failures.push((cfg.seed(), v.name.clone()));
            }
        }
        CampaignSummary { runs: n_seeds, passes, fails, failures }
    }

    /// Sweeps seeds `0..n_seeds` until the first violation, shrinks it,
    /// and wraps the minimal counterexample as a replayable artifact.
    /// `None` if every run passes every oracle.
    pub fn hunt(&self, n_seeds: u64) -> Option<Violation<T>> {
        let _span = mcv_obs::Span::enter("campaign.hunt");
        let (cfg, oracle, detail) = self.sweep(0..n_seeds).find_map(|(cfg, out)| {
            let v = first_violation::<T>(&out)?;
            Some((cfg, v.name.clone(), v.detail.clone()))
        })?;
        let shrunk = shrink(&cfg, &oracle, self.shrink_budget);
        // Re-run the minimum for its authoritative detail and trace.
        let min_out = shrunk.config.run();
        let detail = T::oracles(&min_out)
            .iter()
            .find(|o| o.name == oracle && !o.pass)
            .map_or(detail, |o| o.detail.clone());
        Some(Violation {
            seed: cfg.seed(),
            oracle: oracle.clone(),
            original_events: cfg.schedule().len(),
            shrink_runs: shrunk.runs,
            trace: T::trace(min_out),
            artifact: Artifact::new(shrunk.config, oracle, detail),
        })
    }
}

/// A found-and-shrunk violation.
#[derive(Debug, Clone)]
pub struct Violation<T> {
    /// The campaign seed that first exposed it.
    pub seed: u64,
    /// The violated oracle.
    pub oracle: String,
    /// Schedule size before shrinking.
    pub original_events: usize,
    /// Runs spent shrinking.
    pub shrink_runs: usize,
    /// The causal trace of the minimal run (for the simulator, its
    /// flight-recorder window).
    pub trace: mcv_trace::CausalTrace,
    /// The minimal, replayable counterexample.
    pub artifact: Artifact<T>,
}

/// Aggregate tallies of a [`Campaign::run_seeds`] sweep.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Seeds executed.
    pub runs: u64,
    /// Per-oracle pass counts.
    pub passes: BTreeMap<String, u64>,
    /// Per-oracle fail counts.
    pub fails: BTreeMap<String, u64>,
    /// `(seed, first violated oracle)` for every failing run.
    pub failures: Vec<(u64, String)>,
}

impl CampaignSummary {
    /// Whether every run passed every oracle.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the tallies into an [`mcv_obs::RunReport`].
    pub fn to_report(&self, id: &str) -> mcv_obs::RunReport {
        let mut report = mcv_obs::RunReport::new(id)
            .fact("runs", self.runs)
            .fact("violations", self.failures.len());
        for (name, n) in &self.passes {
            report = report.fact(format!("pass.{name}"), n);
        }
        for (name, n) in &self.fails {
            report = report.fact(format!("fail.{name}"), n);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosConfig;

    #[test]
    fn fault_free_plan_yields_green_summary() {
        // An empty plan generates empty schedules: every run is the
        // failure-free protocol and must pass all oracles.
        let plan = FaultPlan {
            crashes: false,
            partitions: false,
            drop_windows: false,
            torn_writes: false,
            ..FaultPlan::tolerated(4, 200)
        };
        let c = Campaign::new(ChaosConfig::default(), plan);
        let summary = c.run_seeds(0, 5);
        assert!(summary.all_green(), "failures: {:?}", summary.failures);
        assert_eq!(summary.runs, 5);
        let report = summary.to_report("chaos-test");
        assert!(report.to_json().contains("\"runs\""));
    }
}
