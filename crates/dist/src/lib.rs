//! # mcv-dist
//!
//! Cross-shard atomic transactions: the composed commit FSMs of
//! `mcv-commit` (3PC per Figure 3.2, bully election, termination
//! protocol) lifted off the discrete-event simulator and driven over a
//! **real threaded transport**, with one live [`mcv_engine::Engine`]
//! per shard. The same protocol code governs both worlds — the
//! simulator for exhaustiveness, this runtime for evidence that the
//! composition survives genuine concurrency:
//!
//! - each shard is an engine with its own 2PL lock tables and
//!   group-commit WAL, hosted on its own node thread; the commit FSM
//!   reaches it through the [`LocalStore`](mcv_commit::LocalStore)
//!   seam ([`EngineStore`]);
//! - protocol messages cross per-link channels with seeded delays,
//!   FIFO clamping, and injectable faults (drops, partitions,
//!   duplication, reordering, crashes) in the `mcv-chaos` schedule
//!   vocabulary, with simulation ticks mapped onto real microseconds;
//! - a shard only acknowledges a commit after its WAL force — the
//!   engine's commit path blocks on the force and cites it in the
//!   causal trace, which the `mcv-trace` checker verifies per shard
//!   via per-WAL identities;
//! - [`PipelineConfig`] is an `mcv-chaos` campaign
//!   [`Target`](mcv_chaos::Target): the same seeded campaigns sweep
//!   fault schedules and check **cross-shard atomicity** (no shard
//!   durably commits while another settles on abort), the AC
//!   properties, termination, per-shard serializability, WAL recovery,
//!   and causal well-formedness;
//! - violations shrink to minimal replayable artifacts through the
//!   same shrinker and artifact as the simulator's — and the naive
//!   Figure 3.2 timeouts, demonstrably unsafe in simulation,
//!   split-brain just as reliably over real threads.
//!
//! # Examples
//!
//! A fault-free cross-shard run commits everywhere:
//!
//! ```
//! use mcv_dist::{run_pipeline, DistConfig, PipelineConfig};
//! let out = run_pipeline(&PipelineConfig {
//!     dist: DistConfig { n_shards: 2, n_txns: 1, ..DistConfig::default() },
//!     ..PipelineConfig::default()
//! });
//! assert!(out.violated().is_none(), "{:?}", out.violated());
//! assert_eq!(out.stats.committed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fabric;
mod multishot;
mod node;
mod oracle;
mod runtime;
mod store;
mod transport;

pub use multishot::{
    run_pipeline, tolerated_campaign, CommitLogEntry, PipelineConfig, PipelineOutcome,
};
pub use runtime::{DistConfig, DistStats, GLOBAL_TXN_BASE};
pub use store::{CoordStore, EngineStore};
pub use transport::{
    DeliverItem, NodeEvent, SimTransport, ThreadedTransport, Transport, TransportConfig,
};
