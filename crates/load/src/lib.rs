//! # mcv-load
//!
//! Open-loop traffic, admission control, and chaos-under-load for the
//! transaction engine — the harness that makes overload and
//! crash-recovery *latency* first-class, where every other driver in
//! the repo is closed-loop (N workers, fixed quota) and therefore
//! structurally incapable of overloading anything.
//!
//! - [`ArrivalSchedule`] — deterministic seeded arrival processes
//!   (Poisson, flash-crowd, diurnal) over millions of zipfian user
//!   sessions on a virtual clock; same profile, same bytes;
//! - [`run_load`] — the wall-clock open-loop driver: paces a schedule
//!   against live engines through the one admission rule (at most
//!   `queue_cap + workers` unresolved), with an explicit [`ShedPolicy`]
//!   (drop vs retry-after with capped exponential backoff), per-txn
//!   deadline budgets from *arrival* (queueing counts), the
//!   `engine.admit.{accepted,shed,retried,deadline_missed}` counter
//!   family, p50/p99/p999 latency-under-load, and the same
//!   serializability / recovery-equivalence / bank-sum oracles the
//!   closed-loop driver enforces;
//! - [`CrashPlan`] — crash an engine mid-run (WAL image frozen at the
//!   crash instant), rebuild it by rollback recovery while traffic
//!   shedding continues, and measure the recovery-time SLO: wall time
//!   from crash to windowed-p99-back-under-target;
//! - [`simulate`] — a deterministic discrete-event replay deciding by
//!   the same admission rule on the virtual clock: byte-identical
//!   decision sequences for the determinism suite, and a free planning
//!   tool;
//! - [`rate_sweep`] / [`knee`] / [`run_slo_campaign`] — latency-vs-load
//!   curves, the saturation knee, and the seeded
//!   shard-crash-during-flash-crowd campaign behind `exp.slo`;
//! - [`run_dist_stream`] — the cross-shard leg: the open-loop arrival
//!   schedule streamed through one `mcv_dist` cluster, judged by the
//!   eight cross-shard oracles.
//!
//! # Example
//!
//! ```
//! use mcv_load::{run_load, LoadConfig, LoadProfile, ArrivalProcess};
//! let report = run_load(&LoadConfig {
//!     profile: LoadProfile {
//!         process: ArrivalProcess::Poisson { rate_tps: 1_000.0 },
//!         duration_us: 50_000,
//!         sessions: 10_000,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! });
//! assert_eq!(report.committed, report.arrivals);
//! assert!(report.oracles_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod arrivals;
mod dist_stream;
mod driver;
mod sim;
mod slo;

pub use admission::{Decision, ShedPolicy};
pub use arrivals::{Arrival, ArrivalProcess, ArrivalSchedule, LoadProfile, Ownership};
pub use dist_stream::{run_dist_stream, DistStreamConfig, DistStreamReport};
pub use driver::{
    run_load, run_load_with_schedule, CrashPlan, LoadConfig, LoadReport, LoadWorkload,
};
pub use mcv_engine::BANK_INITIAL_BALANCE;
pub use sim::{simulate, SimConfig, SimOutcome};
pub use slo::{
    crash_campaign_template, knee, rate_sweep, run_slo_campaign, SloCampaignConfig,
    SloCampaignReport, SweepPoint,
};
