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
//! generic over a [`Target`]: the simulator's [`ChaosConfig`] here, the
//! threaded cross-shard runtime's `PipelineConfig` in `mcv-dist`.
//!
//! The thesis *proves* these properties from local axioms; this crate
//! hunts for executions that would falsify them, and — for the naive
//! Figure 3.2 timeout variant — finds the split-brain counterexample
//! automatically.
//!
//! # Examples
//!
//! ```
//! use mcv_chaos::{Campaign, ChaosConfig, FaultPlan, Target};
//!
//! // A short all-green sweep of the election + termination protocol.
//! let base = ChaosConfig { quorum_termination: true, ..ChaosConfig::default() };
//! let plan = FaultPlan::tolerated(base.n_procs(), 300);
//! let summary = Campaign::new(base, plan).run_seeds(0, 3);
//! assert!(summary.all_green(), "{:?}", summary.failures);
//! ```

#![warn(missing_docs)]

mod anomaly;
mod artifact;
mod campaign;
mod oracle;
mod runner;
mod schedule;
mod shrink;

pub use anomaly::{
    detect_anomalies, find_long_forks, find_write_skews, txn_views, AnomalyArtifact, AnomalyReport,
    LongFork, TxnView, WriteSkew,
};
pub use artifact::Artifact;
pub use campaign::{Campaign, CampaignSummary, Target, Violation};
pub use oracle::{OracleResult, ORACLE_NAMES};
pub use runner::{run_chaos, ChaosConfig, ChaosOutcome, FLIGHT_RECORDER_CAP};
pub use schedule::{CutKind, FaultEvent, FaultPlan, FaultSchedule};
pub use shrink::{shrink, Shrunk};
