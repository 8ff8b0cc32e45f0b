//! # veris — a practical foundation for systems verification
//!
//! This is the facade crate of the `veris` project, a from-scratch
//! reproduction of *Verus: A Practical Foundation for Systems Verification*
//! (SOSP'24). It re-exports the full stack and provides the project-level
//! driver and reporting used by the paper's evaluation:
//!
//! - [`veris_smt`] — the SMT solver (the project's "Z3");
//! - [`veris_vir`] — the verification IR (the "Rust function level");
//! - [`veris_vc`] — WP calculus, encoding styles, verification driver;
//! - [`veris_epr`] — per-module report of `#[epr_mode]` verification
//!   (EPR saturation and the fragment lint run inside `verify_krate`);
//! - [`veris_idioms`] — `by(bit_vector|nonlinear_arith|integer_ring|compute)`;
//! - [`veris_sync`] — VerusSync sharded state machines and runtime tokens.
//!
//! ## Quickstart
//!
//! ```
//! use veris::prelude::*;
//!
//! // fn inc(x: int) -> (r: int) ensures r == x + 1 { x + 1 }
//! let x = var("x", Ty::Int);
//! let r = var("r", Ty::Int);
//! let f = Function::new("inc", Mode::Exec)
//!     .param("x", Ty::Int)
//!     .returns("r", Ty::Int)
//!     .ensures(r.eq_e(x.add(int(1))))
//!     .stmts(vec![Stmt::ret(x.add(int(1)))]);
//! let krate = Krate::new().module(Module::new("demo").func(f));
//! let report = veris::verify(&krate);
//! assert!(report.all_verified());
//! ```

pub mod report;

pub use veris_epr;
pub use veris_idioms;
pub use veris_smt;
pub use veris_sync;
pub use veris_vc;
pub use veris_vir;

pub use report::{MacroRow, MacroTable};
pub use veris_vc::{FnReport, KrateReport, Status, Style, VcConfig};

/// Common imports for building and verifying VIR crates.
pub mod prelude {
    pub use veris_vc::{verify_function, verify_krate, Status, Style, VcConfig};
    pub use veris_vir::expr::{
        and_all, call, ctor, exists, fals, forall, forall_trig, int, ite, let_in, lit, map_empty,
        old, or_all, seq_empty, seq_singleton, set_empty, tru, tuple, var, Expr, ExprExt,
    };
    pub use veris_vir::module::{DatatypeDef, FnBody, Function, Krate, Mode, Module, Param};
    pub use veris_vir::stmt::{Prover, Stmt};
    pub use veris_vir::ty::Ty;
}

/// Verify a crate with the standard configuration (Verus style, idiom
/// provers installed), single-threaded.
pub fn verify(krate: &veris_vir::Krate) -> veris_vc::KrateReport {
    let cfg = veris_idioms::config_with_provers();
    veris_vc::verify_krate(krate, &cfg, 1)
}

/// Verify a crate in parallel with `threads` workers.
pub fn verify_parallel(krate: &veris_vir::Krate, threads: usize) -> veris_vc::KrateReport {
    let cfg = veris_idioms::config_with_provers();
    veris_vc::verify_krate(krate, &cfg, threads)
}

/// Verify with an explicit configuration.
pub fn verify_with(
    krate: &veris_vir::Krate,
    cfg: &veris_vc::VcConfig,
    threads: usize,
) -> veris_vc::KrateReport {
    veris_vc::verify_krate(krate, cfg, threads)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart() {
        let x = var("x", Ty::Int);
        let r = var("r", Ty::Int);
        let f = Function::new("inc", Mode::Exec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .ensures(r.eq_e(x.add(int(1))))
            .stmts(vec![Stmt::ret(x.add(int(1)))]);
        let krate = Krate::new().module(Module::new("demo").func(f));
        let report = crate::verify(&krate);
        assert!(report.all_verified());
    }
}
