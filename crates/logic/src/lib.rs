//! # mcv-logic
//!
//! Many-sorted first-order logic with the Specware-like surface syntax
//! used by the thesis *Modular Composition and Verification of
//! Transaction Processing Protocols Using Category Theory* (Janarthanan,
//! 2003), plus a resolution prover standing in for SNARK.
//!
//! The crate provides:
//!
//! - [`Sym`], [`Sort`], [`Var`], [`Term`], [`Formula`] — the logical
//!   language;
//! - [`parse_formula`] / [`parse_term`] — the Chapter-5 surface syntax
//!   (`fa`, `ex`, `~`, `&`, `or`, `=>`, `<=>`, `if/then/else`);
//! - [`clausify`] — conversion to clausal form;
//! - [`Prover`] — a given-clause resolution prover with support-set
//!   semantics mirroring Specware's `prove T in S using A1 A2 …`;
//!   [`Prover::prove_using`] also says whether a proof is vacuous;
//! - [`find_model`] / [`Model::check`] — finite models, found from the
//!   clauses and checked against the formulas.
//!
//! # Examples
//!
//! Prove the `Agreebroad`-style chain from Chapter 5:
//!
//! ```
//! use mcv_logic::{Prover, NamedFormula, parse_formula};
//!
//! let agree = NamedFormula::new(
//!     "Agreebroad",
//!     parse_formula("fa(p, q, m, T) (Deliver(p, m, T) => Deliver(q, m, T))").unwrap(),
//! );
//! let fact = NamedFormula::new("obs", parse_formula("Deliver(p0(), m0(), t0())").unwrap());
//! let goal = parse_formula("Deliver(q0(), m0(), t0())").unwrap();
//! assert!(Prover::new().prove(&[agree, fact], &goal).is_proved());
//! ```

#![warn(missing_docs)]

mod check;
mod clause;
mod cnf;
mod formula;
mod model;
mod parser;
mod prover;
mod sort;
mod subst;
mod sym;
mod term;
mod unify;

pub use check::CheckError;
pub use clause::{Clause, Literal};
pub use cnf::clausify;
pub use formula::Formula;
pub use model::{checked_model, find_model, Model, ModelConfig, ModelError};
pub use parser::{formula, parse_formula, parse_term, ParseError};
pub use prover::{
    NamedFormula, Proof, ProofResult, Prover, ProverConfig, Rule, Selection, Step, VettedProof,
};
pub use sort::Sort;
pub use subst::{FreshVars, Subst};
pub use sym::Sym;
pub use term::{Term, Var};
pub use unify::{match_terms, unify};
