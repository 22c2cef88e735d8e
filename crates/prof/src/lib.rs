//! # mcv-prof — phase attribution, critical paths, live telemetry
//!
//! Answers "where does a transaction's latency go?" three ways:
//!
//! 1. **Lifecycle timelines** ([`Phase`], [`Timeline`], [`Profiler`]):
//!    instrumented layers (engine, WAL, transport, load driver) record
//!    per-transaction phase durations into per-thread ring buffers —
//!    relaxed atomic stores on the hot path, a strict no-op when no
//!    profiler is installed. [`AttributionTable::from_samples`] joins
//!    the harvest per transaction and reports each phase's share of
//!    mean and p99 commit latency, with the unattributed remainder
//!    explicit.
//! 2. **Critical paths** ([`commit_path`], [`attribute_commits`]):
//!    walks `mcv-trace` happens-before DAGs backward from each commit
//!    decision, decomposing the wall time behind it into classified
//!    causal edges (message flight, force-before-ack, lock hand-off).
//!    Segments tile the span exactly, so parallel waits are never
//!    double-counted — this is the view that makes `transport_rtt` +
//!    `wal_force` visibly dominate cross-shard commits.
//! 3. **Live telemetry** ([`TelemetryStream`]): windowed JSONL
//!    snapshots for long load runs, keyed by virtual arrival time so
//!    the stream's shape is seed-deterministic; all measured rates and
//!    percentiles live in a `wall` sub-object that
//!    [`TelemetrySnapshot::strip_wall`] resets.
//!
//! Install a profiler around construction of whatever you want
//! measured, mirroring the `mcv-trace` recorder pattern:
//!
//! ```
//! use mcv_prof::{with_profiler, AttributionTable, Profiler};
//!
//! let prof = Profiler::new();
//! with_profiler(&prof, || {
//!     // build + run an instrumented Engine / load plan here; it
//!     // captures `mcv_prof::installed()` at construction.
//! });
//! let table = AttributionTable::from_samples(&prof.harvest());
//! println!("{}", table.render());
//! ```

#![warn(missing_docs)]

mod attribution;
mod critical;
mod phase;
mod sink;
mod telemetry;

pub use attribution::{AttributionTable, PhaseRow};
pub use critical::{attribute_commits, commit_path, committed_txns, CommitPath, PathSegment};
pub use phase::{Phase, Timeline, PHASES};
pub use sink::{installed, with_profiler, ProfSamples, Profiler};
pub use telemetry::{
    strip_wall_all, telemetry_jsonl, TelemetryConfig, TelemetrySnapshot, TelemetryStream,
    TelemetryWall,
};
