//! # mcv-blocks
//!
//! The thesis' building-block protocol specifications (Table 3.1) and
//! their category-theoretic composition into the three-phase-commit
//! protocol's global properties:
//!
//! - [`specs`] — the Chapter 5 `spec … endspec` scripts, parsed into
//!   [`mcv_core::Spec`]s (plus requirement-derived specs for the blocks
//!   Chapter 5 leaves unscripted);
//! - [`registry`] — Table 3.1 as a machine-readable inventory;
//! - [`pipeline`] — the colimit chains of Figures 3.4/3.5
//!   (`CONTROLLER → PR1 → … → PR9`);
//! - [`modules`] — the algebraic-module compositions of Figures
//!   4.3–4.28, with commutativity certificates;
//! - [`properties`] — the three `prove … using …` commands of
//!   Chapter 5 replayed on the resolution prover, plus the consistency
//!   audit (which exposes that the thesis' CSM proof is vacuous: its
//!   support set is contradictory);
//! - [`traceability`] — the Figure 4.1/4.9/4.17 dependency diagrams and
//!   the modular-vs-monolithic re-verification experiment.
//!
//! # Examples
//!
//! Replay Chapter 5's first proof command:
//!
//! ```
//! use mcv_blocks::{SpecLibrary, properties};
//! let lib = SpecLibrary::load();
//! let p1 = &properties::chapter5_commands()[0];
//! let outcome = properties::replay(&lib, p1);
//! assert!(outcome.proved());
//! assert!(!outcome.vacuous);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod modules;
pub mod pipeline;
pub mod properties;
pub mod registry;
pub mod script_runner;
pub mod specs;
pub mod traceability;

pub use specs::SpecLibrary;
