//! # mcv-bench
//!
//! Reproduction harness and benchmarks: regenerates every table and
//! figure of the thesis (see `DESIGN.md` for the per-experiment index)
//! and adds the quantitative experiments the thesis motivates but never
//! runs.
//!
//! The `mcv` binary drives everything — the reproductions, the `./ci`
//! gates, the fault campaigns and their replays, the trace explorer —
//! as subcommands over the one argument grammar in [`cli`]:
//!
//! ```text
//! cargo run --release -p mcv-bench --bin mcv -- repro all
//! cargo run --release -p mcv-bench --bin mcv -- repro fig3.2
//! cargo run --release -p mcv-bench --bin mcv -- chaos smoke
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

pub use experiments::*;
