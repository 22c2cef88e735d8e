//! # mcv-chaos
//!
//! Fault-injection campaign engine over the executable commit
//! protocols: randomized but fully replayable fault schedules,
//! atomic-commitment invariant oracles (AC1–AC5 after Chockler &
//! Gotsman, plus serializability and WAL-recovery consistency), and
//! delta-debugging shrinking of violations down to minimal,
//! JSON-packaged counterexamples.
//!
//! The campaign stack — [`Campaign`], [`shrink`], [`Artifact`] — is
//! generic over a [`Target`]: the simulator's `mcv_commit::Scenario`
//! here, the threaded cross-shard runtime's `PipelineConfig` in
//! `mcv-dist`.
//!
//! The thesis *proves* these properties from local axioms; this crate
//! hunts for executions that would falsify them, and — for the naive
//! Figure 3.2 timeout variant — finds the split-brain counterexample
//! automatically.
//!
//! # Examples
//!
//! ```
//! use mcv_chaos::{Campaign, FaultPlan, Target};
//! use mcv_commit::Scenario;
//!
//! // A short all-green sweep of the election + termination protocol.
//! let base = Scenario { quorum_termination: true, ..Scenario::default() };
//! let plan = FaultPlan::tolerated(base.n_procs(), 300);
//! let summary = Campaign::new(base, plan).run_seeds(0, 3);
//! assert!(summary.all_green(), "{:?}", summary.failures);
//! ```

#![warn(missing_docs)]

mod anomaly;
mod artifact;
mod campaign;
mod explore;
mod oracle;
mod runner;
mod schedule;
mod shrink;

pub use anomaly::{detect_anomalies, AnomalyArtifact, AnomalyReport};
pub use artifact::{replay_command, Artifact};
pub use campaign::{Campaign, CampaignSummary, Target, Violation};
pub use explore::{explore, Counterexample, Exploration, FaultBudget};
pub use mcv_sim::{CutKind, FaultEvent, FaultSchedule};
pub use oracle::{OracleResult, ORACLE_NAMES};
pub use runner::{run_chaos, ChaosOutcome, FLIGHT_RECORDER_CAP};
pub use schedule::FaultPlan;
pub use shrink::{shrink, Shrunk};
