//! # mcv-trace — causal event tracing
//!
//! A structured causal event log for every executable layer of the
//! workspace: typed events (message send/deliver/drop, FSM state
//! transitions, timer set/fire, lock acquire/release/abort, WAL
//! append/force, commit/abort decisions), each stamped with a site or
//! lane id, a per-site sequence number, and a Lamport clock maintained
//! automatically at causal boundaries.
//!
//! The thesis argues for 3PC by reasoning about *orderings* of protocol
//! events — votes before decisions, forces before acks. This crate
//! makes those orderings a first-class, machine-checked artifact of a
//! run:
//!
//! - [`Recorder`] + the free [`emit`]/[`emit_caused`] functions record
//!   events through a thread-local sink (the `mcv-obs` collector
//!   pattern: a no-op when nothing is installed);
//! - [`check`] replays a trace and verifies happens-before sanity (no
//!   deliver before its send, clocks monotone per site, every
//!   commit-point force precedes its ack) — reused as the
//!   `causal_order` chaos oracle;
//! - [`Recorder::ring`] is the flight recorder: a bounded window,
//!   always on in chaos campaigns and engine stress runs, dumped next
//!   to the campaign `Artifact` on failure;
//! - [`swimlanes`], [`causal_path`] and friends power the `trace`
//!   explorer binary in `mcv-bench`.
//!
//! Serialization is deterministic JSONL under the same `strip_wall`
//! contract as `RunReport`: after [`CausalTrace::strip_wall`],
//! same-seed runs serialize byte-identically.
//!
//! # Examples
//!
//! ```
//! use mcv_trace::{check, emit, emit_caused, record_trace, EventKind};
//!
//! let ((), trace) = record_trace(None, || {
//!     let send = emit(0, 0, EventKind::Send { to: 1, label: "Vote".into() });
//!     emit_caused(1, 3, send, EventKind::Deliver {
//!         from: 0,
//!         label: "Vote".into(),
//!         deliver_seq: 1,
//!     });
//! });
//! assert_eq!(trace.len(), 2);
//! assert!(check(&trace).ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod event;
mod explore;
mod recorder;

pub use check::{check, explain_divergence, CheckMode, HbReport, HbViolation};
pub use event::{CausalTrace, Cause, Event, EventKind};
pub use explore::{causal_path, render_causal_path, swimlanes, Filter, PathStep};
pub use recorder::{
    active, context, emit, emit_caused, installed, label_of, record_trace, set_context,
    with_recorder, Recorder,
};
