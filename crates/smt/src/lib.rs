//! # veris-smt — a from-scratch SMT solver for program verification
//!
//! This crate is the solver substrate of the `veris` project (a
//! reproduction of *Verus: A Practical Foundation for Systems
//! Verification*, SOSP'24). It plays the role Z3 plays for Verus:
//!
//! - [`term`] — hash-consed, aggressively canonicalized term DAG;
//! - [`sat`] — CDCL SAT core (watched literals, 1UIP learning, VSIDS,
//!   Luby restarts) with a theory final-check hook;
//! - [`euf`] — congruence closure with proof-forest explanations;
//! - [`lia`] — linear integer arithmetic (rational simplex +
//!   branch-and-bound) with Farkas-style conflict sets;
//! - [`bv`] — bit-vector reasoning by bit-blasting (backs `by(bit_vector)`);
//! - [`quant`] — trigger inference (minimal vs broad policies) and
//!   e-matching;
//! - `relevancy` — the Tseitin gate table and the walk that picks the
//!   atoms the theories see at a final check;
//! - [`solver`] — the DPLL(T) orchestrator with round-based quantifier
//!   instantiation and an EPR saturation mode;
//! - [`printer`] — SMT-LIB rendering, used for the query-size metric.
//! - [`fxhash`] — the deterministic Fx hasher behind the solver's maps.
//!
//! ## Quick example
//!
//! ```
//! use veris_smt::solver::{Config, SmtResult, Solver};
//!
//! let mut s = Solver::new(Config::default());
//! let int = s.store.int_sort();
//! let x = s.store.mk_var("x", int);
//! let one = s.store.mk_int(1);
//! let zero = s.store.mk_int(0);
//! // x >= 1 && x + 1 <= 0 is unsatisfiable.
//! let ge = s.store.mk_ge(x, one);
//! let x1 = s.store.mk_add(vec![x, one]);
//! let le = s.store.mk_le(x1, zero);
//! s.assert(ge);
//! s.assert(le);
//! assert!(matches!(s.check(), SmtResult::Unsat));
//! ```

pub mod bv;
pub mod euf;
pub mod fxhash;
pub mod lia;
pub mod printer;
pub mod quant;
mod relevancy;
pub mod sat;
pub mod solver;
pub mod term;

pub use solver::{Config, Model, SmtResult, Solver, Stats};
pub use term::{DatatypeId, FuncId, Sort, SortId, TermId, TermKind, TermStore};
