//! Unified observability for the mcv workspace.
//!
//! Three pieces, composed end to end:
//!
//! 1. **Metrics** ([`MetricsRegistry`], [`MetricsSnapshot`]): named
//!    counters, gauges, and fixed-bucket histograms. Counter handles
//!    are `Cell`-backed so the prover's inner given-clause loop can
//!    bump them without a map lookup.
//! 2. **Spans** ([`Span`]): RAII guards recording how often a code
//!    path ran (deterministic) and how long it took (wall-clock),
//!    aggregated per nesting path.
//! 3. **Reports** ([`RunReport`]): a serde JSON/JSONL schema bundling
//!    metrics + spans + free-form facts per run — the seed of the
//!    repo's bench trajectory.
//!
//! # Determinism contract
//!
//! Counters, gauges, histograms, span `calls`, and facts must be pure
//! functions of the workload (they are asserted byte-for-byte in
//! tests). Wall-clock time lives **only** in span `wall_ns` fields and
//! the report's `wall` section; [`RunReport::strip_wall`] zeroes
//! exactly those, after which two same-seed runs serialize
//! identically.
//!
//! # Instrumented code
//!
//! Library code records through the thread-local collector installed
//! by [`collect`]: [`counter`], [`gauge`], [`record`], and
//! [`Span::enter`] are no-ops when no collector is installed, so
//! instrumentation costs almost nothing outside a measured run.
//!
//! ```
//! use mcv_obs::{collect, counter, Span};
//!
//! let (value, data) = collect(|| {
//!     let _span = Span::enter("work");
//!     counter("work.items", 3);
//!     42
//! });
//! assert_eq!(value, 42);
//! let report = data.into_report("demo");
//! assert_eq!(report.metrics.counters["work.items"], 3);
//! assert_eq!(report.spans[0].calls, 1);
//! ```

#![warn(missing_docs)]

mod global;
mod metrics;
mod report;
mod span;

pub use global::{absorb, collect, counter, gauge, record, Collected};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::{append_jsonl, write_report, RunReport, WallClock};
pub use span::{Span, SpanStats};
