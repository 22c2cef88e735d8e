//! # mcv-core
//!
//! The category of algebraic specifications — the primary contribution
//! of *Modular Composition and Verification of Transaction Processing
//! Protocols Using Category Theory* (Janarthanan, 2003), reimplementing
//! the fragment of Kestrel's Specware the thesis relies on:
//!
//! - [`Signature`], [`Spec`] — `SPEC = (SIG, AX)` (Ch. 2);
//! - [`SpecMorphism`] — maps translating axioms to theorems, with
//!   machine-checkable [proof obligations](Obligation);
//! - [`Diagram`], [`colimit`], [`pushout`] — the "shared union"
//!   composition operations (Figures 2.1, 2.2);
//! - [`translate`] — vocabulary renaming (`translate(S) by {…}`);
//! - [`parse_spec`] — the `spec … endspec` surface syntax of Chapter 5;
//! - [`finset`] — the category FinSet, for demonstrating the pushout
//!   universal property with an explicit mediating morphism.
//!
//! # Examples
//!
//! Compose two protocol fragments over a shared interface and check the
//! square commutes (Figure 2.4's composition pattern):
//!
//! ```
//! use mcv_core::{pushout, SpecBuilder, SpecMorphism};
//! use mcv_logic::Sort;
//!
//! let shared = SpecBuilder::new("IFACE")
//!     .sort(Sort::new("Msg"))
//!     .predicate("Send", vec![Sort::new("Msg")])
//!     .build_ref().unwrap();
//! let bcast = SpecBuilder::new("BROADCAST")
//!     .sort(Sort::new("Msg"))
//!     .predicate("Send", vec![Sort::new("Msg")])
//!     .predicate("Deliver", vec![Sort::new("Msg")])
//!     .axiom("valid", "fa(m:Msg) (Send(m) => Deliver(m))")
//!     .build_ref().unwrap();
//! let cons = SpecBuilder::new("CONSENSUS")
//!     .sort(Sort::new("Msg"))
//!     .predicate("Send", vec![Sort::new("Msg")])
//!     .predicate("Decide", vec![Sort::new("Msg")])
//!     .axiom("deciding", "fa(m:Msg) (Send(m) => Decide(m))")
//!     .build_ref().unwrap();
//! let f = SpecMorphism::new("f", shared.clone(), bcast, [], []).unwrap();
//! let g = SpecMorphism::new("g", shared, cons, [], []).unwrap();
//! let po = pushout(&f, &g, "CONTROLLER").unwrap();
//! assert!(po.square_commutes());
//! assert_eq!(po.object().axioms().count(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod colimit;
mod diagram;
mod diff;
pub mod finset;
mod morphism;
mod obligation;
mod parse;
pub mod script;
mod signature;
mod spec;
mod translate;

pub use colimit::{colimit, pushout, Colimit, ColimitError, Pushout};
pub use diagram::{Diagram, DiagramArc, DiagramError};
pub use diff::{diff_specs, SpecDiff};
pub use morphism::{MorphismError, SpecMorphism};
pub use obligation::{DischargeReport, Obligation};
pub use parse::parse_spec;
pub use script::{
    chapter5_prover, Event as ScriptEventKind, ScriptEngine, ScriptError, Value as ScriptValue,
};
pub use signature::{OpDecl, Signature, SortDecl};
pub use spec::{Property, PropertyKind, Spec, SpecBuilder, SpecIssue, SpecRef};
pub use translate::translate;
