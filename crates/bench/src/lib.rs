//! # mcv-bench
//!
//! Reproduction harness and benchmarks: regenerates every table and
//! figure of the thesis (see `DESIGN.md` for the per-experiment index)
//! and adds the quantitative experiments the thesis motivates but never
//! runs.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p mcv-bench --bin repro -- all
//! cargo run --release -p mcv-bench --bin repro -- fig3.2
//! ```

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
