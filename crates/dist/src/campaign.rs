//! Seeded fault campaigns over distributed runs: the `mcv-chaos`
//! schedule generator and summary machinery, re-aimed at the threaded
//! runtime.

use crate::artifact::DistArtifact;
use crate::multishot::{run_pipeline, PipelineConfig};
use crate::runtime::DistConfig;
use crate::shrink::shrink;
use mcv_chaos::{CampaignSummary, FaultPlan, FaultSchedule};
use std::collections::BTreeMap;

/// A campaign: a base configuration (its `dist.seed` and
/// `dist.schedule` are overwritten per run; the submission schedule is
/// kept) plus the random-schedule plan.
#[derive(Debug, Clone)]
pub struct DistCampaign {
    /// Scenario template.
    pub base: PipelineConfig,
    /// Random-schedule bounds (ticks; the runtime maps them onto real
    /// time via `tick_us`).
    pub plan: FaultPlan,
    /// Run budget for shrinking each violation.
    pub shrink_budget: usize,
}

impl DistCampaign {
    /// A campaign over `base` within the thesis' tolerated failure
    /// model: crashes that recover, healing partitions, and transient
    /// drop windows over `base.n_nodes()` nodes. Duplication and
    /// reordering stay off (they break assumptions the protocol
    /// makes), and so do torn writes — the engine adapter models the
    /// redo-logged stable prepared state the thesis assumes, so there
    /// is no byte image to tear; the transport degrades a `TornWrite`
    /// to a plain crash when replaying foreign schedules.
    pub fn tolerated(base: PipelineConfig) -> Self {
        let plan = FaultPlan {
            torn_writes: false,
            ..FaultPlan::tolerated(base.dist.n_nodes(), base.dist.horizon)
        };
        DistCampaign { base, plan, shrink_budget: 60 }
    }

    /// The configuration for one seed.
    pub fn config_for(&self, seed: u64) -> PipelineConfig {
        PipelineConfig {
            dist: DistConfig {
                seed,
                schedule: FaultSchedule::generate(seed, &self.plan),
                ..self.base.dist.clone()
            },
            ..self.base.clone()
        }
    }

    /// Sweeps seeds `seed_base..seed_base + n_seeds`, recording
    /// per-oracle tallies. Distinct bases give the flake detector
    /// disjoint seed populations per round.
    pub fn run_seeds(&self, seed_base: u64, n_seeds: u64) -> CampaignSummary {
        let _span = mcv_obs::Span::enter("dist.campaign");
        let mut passes: BTreeMap<String, u64> = BTreeMap::new();
        let mut fails: BTreeMap<String, u64> = BTreeMap::new();
        let mut failures = Vec::new();
        for seed in seed_base..seed_base + n_seeds {
            let cfg = self.config_for(seed);
            let out = run_pipeline(&cfg);
            mcv_obs::counter("dist.runs", 1);
            for o in &out.oracles {
                *if o.pass { &mut passes } else { &mut fails }
                    .entry(o.name.clone())
                    .or_insert(0) += 1;
            }
            if let Some(v) = out.violated() {
                mcv_obs::counter("dist.violations", 1);
                failures.push((seed, v.name.clone()));
            }
        }
        CampaignSummary { runs: n_seeds, passes, fails, failures }
    }

    /// Sweeps seeds until the first violation, shrinks it, and wraps
    /// the minimal counterexample as a replayable artifact. `None` if
    /// all runs pass every oracle.
    pub fn hunt(&self, n_seeds: u64) -> Option<DistViolation> {
        let _span = mcv_obs::Span::enter("dist.hunt");
        for seed in 0..n_seeds {
            let cfg = self.config_for(seed);
            let out = run_pipeline(&cfg);
            mcv_obs::counter("dist.runs", 1);
            let Some(v) = out.violated() else { continue };
            let oracle = v.name.clone();
            let detail = v.detail.clone();
            mcv_obs::counter("dist.violations", 1);
            let shrunk = shrink(&cfg, &oracle, self.shrink_budget);
            // Re-run the minimum for its authoritative detail and
            // trace.
            let min_out = run_pipeline(&shrunk.config);
            let min_detail = min_out
                .oracles
                .iter()
                .find(|o| o.name == oracle && !o.pass)
                .map(|o| o.detail.clone())
                .unwrap_or(detail);
            return Some(DistViolation {
                seed,
                oracle: oracle.clone(),
                original_events: cfg.dist.schedule.len(),
                shrink_runs: shrunk.runs,
                trace: min_out.trace,
                artifact: DistArtifact::new(shrunk.config, oracle, min_detail),
            });
        }
        None
    }
}

/// A found-and-shrunk violation of a distributed run.
#[derive(Debug)]
pub struct DistViolation {
    /// The campaign seed that first exposed it.
    pub seed: u64,
    /// The violated oracle.
    pub oracle: String,
    /// Schedule size before shrinking.
    pub original_events: usize,
    /// Runs spent shrinking.
    pub shrink_runs: usize,
    /// The causal trace of the minimal run.
    pub trace: mcv_trace::CausalTrace,
    /// The minimal, replayable counterexample.
    pub artifact: DistArtifact,
}
