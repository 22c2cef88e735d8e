//! # mcv-commit
//!
//! Executable atomic-commit protocols over the `mcv-sim` substrate:
//! the thesis' case study made to run. Provides
//!
//! - [`Site`] — a coordinator/cohort process implementing **2PC** (the
//!   blocking baseline) and **3PC** per Figure 3.2, integrating the
//!   building blocks of Table 3.1: controller, broadcast, voting /
//!   election (bully, lowest id wins), snapshot (global-state
//!   collection), decision making (the non-blocking theorem's rules),
//!   termination, failure/timeout management, undo/redo logging, 2PL
//!   and recovery (via `mcv-txn`);
//! - [`Scenario`]/[`run_scenario`] — a failure-injection harness
//!   measuring atomicity, blocking and message cost;
//! - [`GlobalState`]/[`termination_decision`] — the snapshot vector and
//!   decision rules;
//! - trace [monitors](monitor) for the three global properties.
//!
//! `mcv-chaos` explores every execution of a [`Scenario`]'s sites
//! within a fault budget (`mcv_chaos::explore`); `mcv repro fig3.2`
//! builds the Figure 3.2 automaton and its verdicts from that search.
//!
//! # Examples
//!
//! Run 3PC with the coordinator crashing after collecting votes; the
//! operational cohorts still terminate (non-blocking):
//!
//! ```
//! use mcv_commit::{run_scenario, Scenario, CrashPoint};
//! let report = run_scenario(&Scenario {
//!     coordinator_crash: Some(CrashPoint::AfterVotes),
//!     recovery_at: Some(5_000),
//!     ..Scenario::default()
//! });
//! assert!(report.nonblocking);
//! assert!(report.uniform);
//! ```

#![warn(missing_docs)]

mod decision;
mod harness;
pub mod monitor;
mod msg;
mod site;

pub use decision::{termination_decision, GlobalState};
pub use harness::{build_world, run_scenario, Report, Scenario};
pub use msg::{CrashPoint, LocalState, Msg, Protocol};
pub use site::{LocalStore, Site, SiteConfig, TxnPlan};
