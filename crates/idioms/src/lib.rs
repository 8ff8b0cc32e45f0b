//! # veris-idioms — custom proof automation for system idioms (paper §3.3)
//!
//! Four trusted-but-checked provers, each invoked via
//! `assert ... by(<prover>)` in VIR and dispatched through
//! [`StdProvers`], an implementation of [`veris_vc::ProverRegistry`]:
//!
//! - [`bitvec`] — `by(bit_vector)`: machine integers reinterpreted as
//!   bit-vectors, decided by bit-blasting;
//! - [`nonlinear`] — `by(nonlinear_arith)`: isolated query enriched with
//!   ground non-linear lemma instances;
//! - [`ring`] — `by(integer_ring)`: Gröbner-basis ideal membership for
//!   congruence relations;
//! - [`compute`] — `by(compute)`: partial evaluation with SMT residual.

pub mod bitvec;
pub mod compute;
pub mod nonlinear;
pub mod ring;

use veris_vc::{ProverOutcome, ProverRegistry, SideObligation};
use veris_vir::module::Krate;
use veris_vir::stmt::Prover;

/// The standard prover registry wiring all four idiom provers into the
/// verification driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdProvers;

impl ProverRegistry for StdProvers {
    fn prove(
        &self,
        krate: &Krate,
        ob: &SideObligation,
        meter: &std::sync::Arc<veris_obs::ResourceMeter>,
    ) -> ProverOutcome {
        match ob.prover {
            Prover::Default => {
                ProverOutcome::Unknown("default prover routed as side obligation".into())
            }
            Prover::BitVector => {
                match bitvec::prove_bit_vector_metered(&ob.expr, Some(meter.clone())) {
                    Ok(bitvec::BvOutcome::Proved) => ProverOutcome::Proved,
                    Ok(bitvec::BvOutcome::Refuted(cex)) => {
                        ProverOutcome::Failed(format!("bit-vector counterexample: {cex:?}"))
                    }
                    Ok(bitvec::BvOutcome::Unknown(r)) => ProverOutcome::Unknown(r),
                    Err(e) => ProverOutcome::Unknown(format!("not bit-blastable: {e:?}")),
                }
            }
            Prover::NonlinearArith => match nonlinear::prove_nonlinear(krate, &ob.expr, meter) {
                nonlinear::NlOutcome::Proved => ProverOutcome::Proved,
                nonlinear::NlOutcome::Refuted(r) => ProverOutcome::Failed(r),
                nonlinear::NlOutcome::Unknown(r) => ProverOutcome::Unknown(r),
            },
            Prover::IntegerRing => match ring::prove_integer_ring(&ob.expr) {
                ring::RingOutcome::Proved => ProverOutcome::Proved,
                ring::RingOutcome::NotInIdeal => {
                    ProverOutcome::Failed("goal is not in the hypothesis ideal".into())
                }
                ring::RingOutcome::Unsupported(r) => ProverOutcome::Unknown(r),
                ring::RingOutcome::Unknown(r) => ProverOutcome::Unknown(r),
            },
            Prover::Compute => match compute::prove_compute(krate, &ob.expr, meter) {
                compute::ComputeOutcome::Proved => ProverOutcome::Proved,
                compute::ComputeOutcome::Refuted => {
                    ProverOutcome::Failed("evaluates to false".into())
                }
                compute::ComputeOutcome::Unknown(r) => ProverOutcome::Unknown(r),
            },
        }
    }
}

/// Convenience: a [`veris_vc::VcConfig`] with the standard provers installed.
pub fn config_with_provers() -> veris_vc::VcConfig {
    veris_vc::VcConfig {
        provers: Some(std::sync::Arc::new(StdProvers)),
        ..veris_vc::VcConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vc::{verify_function, Status};
    use veris_vir::expr::{lit, var, ExprExt};
    use veris_vir::module::{Function, Mode, Module};
    use veris_vir::stmt::Stmt;
    use veris_vir::ty::Ty;

    #[test]
    fn end_to_end_bitvector_assert() {
        // A proof function whose obligation needs a bit-vector fact, which
        // then becomes available to the default prover.
        let x = var("x", Ty::UInt(64));
        let fact = x
            .bit_and(lit(511, Ty::UInt(64)))
            .eq_e(x.modulo(lit(512, Ty::UInt(64))));
        let f = Function::new("masked", Mode::Proof)
            .param("x", Ty::UInt(64))
            .stmts(vec![
                Stmt::assert_by(fact.clone(), veris_vir::stmt::Prover::BitVector),
                Stmt::assert(fact.clone()),
            ]);
        let k = Krate::new().module(Module::new("m").func(f));
        let cfg = config_with_provers();
        let r = verify_function(&k, "masked", &cfg);
        assert!(r.status.is_verified(), "{:?}", r.status);
        assert_eq!(r.obligations, 2);
    }

    #[test]
    fn failing_custom_prover_reports() {
        let x = var("x", Ty::UInt(8));
        let f = Function::new("bad_bv", Mode::Proof)
            .param("x", Ty::UInt(8))
            .stmts(vec![Stmt::assert_by(
                x.add(lit(1, Ty::UInt(8))).gt(x.clone()),
                veris_vir::stmt::Prover::BitVector,
            )]);
        let k = Krate::new().module(Module::new("m").func(f));
        let cfg = config_with_provers();
        let r = verify_function(&k, "bad_bv", &cfg);
        assert!(matches!(r.status, Status::Failed(_)), "{:?}", r.status);
    }

    #[test]
    fn without_registry_is_unknown() {
        let x = var("x", Ty::UInt(64));
        let f = Function::new("needs_prover", Mode::Proof)
            .param("x", Ty::UInt(64))
            .stmts(vec![Stmt::assert_by(
                x.bit_and(lit(0, Ty::UInt(64))).eq_e(lit(0, Ty::UInt(64))),
                veris_vir::stmt::Prover::BitVector,
            )]);
        let k = Krate::new().module(Module::new("m").func(f));
        let cfg = veris_vc::VcConfig::default();
        let r = verify_function(&k, "needs_prover", &cfg);
        assert!(matches!(r.status, Status::Unknown(_)));
    }

    #[test]
    fn integer_ring_end_to_end() {
        use veris_vir::expr::int;
        let a = var("a", Ty::Int);
        let b = var("b", Ty::Int);
        let c = var("c", Ty::Int);
        let hyp = a
            .modulo(c.clone())
            .eq_e(int(0))
            .and(b.modulo(c.clone()).eq_e(int(0)));
        let goal = b.sub(a.clone()).modulo(c.clone()).eq_e(int(0));
        let f = Function::new("subtract_mod_eq_zero", Mode::Proof)
            .param("a", Ty::Int)
            .param("b", Ty::Int)
            .param("c", Ty::Int)
            .requires(a.modulo(c.clone()).eq_e(int(0)))
            .requires(b.modulo(c.clone()).eq_e(int(0)))
            .stmts(vec![Stmt::assert_by(
                hyp.implies(goal),
                veris_vir::stmt::Prover::IntegerRing,
            )]);
        let k = Krate::new().module(Module::new("m").func(f));
        let cfg = config_with_provers();
        let r = verify_function(&k, "subtract_mod_eq_zero", &cfg);
        assert!(r.status.is_verified(), "{:?}", r.status);
    }
}
