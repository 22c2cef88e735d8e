//! # mcv — Modular Composition and Verification of Transaction Processing Protocols
//!
//! A Rust reproduction of Janarthanan's 2003 thesis (ICDCS 2003):
//! category-theoretic composition of transaction-processing protocol
//! building blocks, and compositional verification of the non-blocking
//! three-phase commit (3PC) protocol's three global properties —
//! serializability of transactions, consistent state maintenance, and
//! roll-back recovery — plus an executable counterpart of every block.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`logic`] — many-sorted FOL + resolution prover (stands in for SNARK);
//! - [`core`] — the category of specifications: morphisms, diagrams,
//!   pushouts, colimits (stands in for Specware);
//! - [`module`] — algebraic module specifications (PAR/EXP/IMP/BOD);
//! - [`blocks`] — the Table 3.1 building-block specs, composition
//!   pipelines, and the Chapter 5 proofs;
//! - [`sim`] — a deterministic discrete-event distributed-system simulator;
//! - [`txn`] — WAL, strict 2PL, checkpointing, rollback recovery;
//! - [`commit`] — executable 2PC/3PC with election, termination, and
//!   failure injection;
//! - [`obs`] — observability: metrics, span tracing, and
//!   machine-readable [`obs::RunReport`]s for any of the above;
//! - [`trace`] — causal event tracing: Lamport-clocked typed events,
//!   a happens-before checker, flight-recorder ring buffers, and the
//!   explorer behind the `trace` bin;
//! - [`chaos`] — randomized fault-schedule campaigns over the commit
//!   protocols with atomic-commitment oracles and delta-debugging
//!   shrinking to minimal, replayable counterexamples, and a bounded
//!   exhaustive explorer of the same sites' executions (Figure 3.2);
//! - [`engine`] — a multi-threaded transaction engine (sharded strict
//!   2PL, cross-shard deadlock detection, group-commit WAL, worker
//!   pool) whose concurrent histories are checked against the same
//!   serializability and recovery oracles the models use;
//! - [`dist`] — cross-shard atomic transactions: the 3PC/termination
//!   FSMs driven over a real threaded transport with one engine per
//!   shard, fault-injection campaigns, and cross-shard atomicity
//!   oracles;
//! - [`mvcc`] — multi-version storage: timestamped version chains,
//!   snapshot-visibility reads that bypass the lock table,
//!   first-committer-wins certification, and low-watermark garbage
//!   collection, mounted in the engine behind an
//!   [`engine::IsolationLevel`] knob;
//! - [`prof`] — profiling: per-transaction phase attribution through
//!   lock-free ring buffers, critical-path analysis over [`trace`]
//!   happens-before DAGs, and windowed live telemetry for load runs;
//! - [`load`] — open-loop traffic: seeded Poisson/flash-crowd/diurnal
//!   arrival processes over zipfian user sessions, non-blocking
//!   admission with explicit load shedding and deadline budgets,
//!   chaos-under-load with recovery-time SLO measurement, and a
//!   deterministic admission-replay simulator.
//!
//! # Examples
//!
//! ```
//! // Prove the serializability property exactly as Chapter 5 does.
//! use mcv::blocks::{SpecLibrary, properties};
//! let lib = SpecLibrary::load();
//! let outcome = properties::replay(&lib, &properties::chapter5_commands()[0]);
//! assert!(outcome.proved());
//! ```
//!
//! ```
//! // Run 3PC with a coordinator crash: operational sites never block.
//! use mcv::commit::{run_scenario, Scenario, CrashPoint};
//! let r = run_scenario(&Scenario {
//!     coordinator_crash: Some(CrashPoint::AfterVotes),
//!     recovery_at: Some(5_000),
//!     ..Scenario::default()
//! });
//! assert!(r.nonblocking && r.uniform);
//! ```

pub use mcv_blocks as blocks;
pub use mcv_chaos as chaos;
pub use mcv_commit as commit;
pub use mcv_core as core;
pub use mcv_dist as dist;
pub use mcv_engine as engine;
pub use mcv_load as load;
pub use mcv_logic as logic;
pub use mcv_module as module;
pub use mcv_mvcc as mvcc;
pub use mcv_obs as obs;
pub use mcv_prof as prof;
pub use mcv_sim as sim;
pub use mcv_trace as trace;
pub use mcv_txn as txn;
