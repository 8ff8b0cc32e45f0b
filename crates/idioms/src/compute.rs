//! `by(compute)` proofs: a symbolic interpreter partially evaluates the
//! assertion (folding constants and unfolding spec-function calls on
//! concrete arguments); any residual goes to the default SMT pipeline
//! (paper §3.3 — the CRC-table motivation).

use std::collections::HashMap;
use std::sync::Arc;

use veris_obs::ResourceMeter;
use veris_smt::solver::{Config, SmtResult, Solver};
use veris_vc::ctx::EncCtx;
use veris_vir::expr::{Expr, ExprX};
use veris_vir::interp::{eval_closed, Value};
use veris_vir::module::Krate;
use veris_vir::ty::Ty;

/// Outcome of a proof-by-computation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComputeOutcome {
    /// Evaluated (or residually proved) to true.
    Proved,
    /// Evaluated to false — definitely wrong.
    Refuted,
    Unknown(String),
}

/// Partially evaluate: bottom-up, replace every closed boolean/integer
/// subexpression by its value.
pub fn partial_eval(krate: &Krate, e: &Expr) -> Expr {
    let kids = veris_vir::expr::children(e);
    let folded: Vec<Expr> = kids.iter().map(|k| partial_eval(krate, k)).collect();
    let rebuilt = veris_vir::expr::rebuild(e, &folded);
    if veris_vir::expr::free_vars(&rebuilt).is_empty()
        && !matches!(&*rebuilt, ExprX::Quant { .. })
        && matches!(
            rebuilt.ty(),
            Ty::Bool | Ty::Int | Ty::Nat | Ty::UInt(_) | Ty::SInt(_)
        )
    {
        if let Ok(v) = eval_closed(krate, &rebuilt) {
            match v {
                Value::Bool(b) => {
                    return if b {
                        veris_vir::expr::tru()
                    } else {
                        veris_vir::expr::fals()
                    }
                }
                Value::Int(i) => return veris_vir::expr::lit(i, rebuilt.ty()),
                _ => {}
            }
        }
    }
    rebuilt
}

/// Prove an assertion by computation, falling back to SMT on the residual;
/// the residual query charges `meter` (the calling function's budget).
pub fn prove_compute(krate: &Krate, e: &Expr, meter: &Arc<ResourceMeter>) -> ComputeOutcome {
    let simplified = partial_eval(krate, e);
    match &*simplified {
        ExprX::BoolLit(true) => return ComputeOutcome::Proved,
        ExprX::BoolLit(false) => return ComputeOutcome::Refuted,
        _ => {}
    }
    // Residual: ordinary (isolated) SMT query.
    let mut solver = Solver::new(Config::default());
    solver.set_meter(meter.clone());
    let mut ctx = EncCtx::new(krate);
    let empty = HashMap::new();
    let goal = ctx.encode_expr(&mut solver, &simplified, &empty);
    ctx.flush_axioms(&mut solver);
    let neg = solver.store.mk_not(goal);
    solver.assert(neg);
    match solver.check() {
        SmtResult::Unsat => ComputeOutcome::Proved,
        SmtResult::Sat(m) if !m.maybe_spurious => ComputeOutcome::Refuted,
        SmtResult::Sat(_) => ComputeOutcome::Unknown("possible counterexample".into()),
        SmtResult::Unknown(r) => ComputeOutcome::Unknown(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{call, int, var, ExprExt};
    use veris_vir::module::{Function, Mode, Module};

    fn unlimited() -> Arc<ResourceMeter> {
        Arc::new(ResourceMeter::new())
    }

    #[test]
    fn closed_arithmetic() {
        let k = Krate::new();
        let e = int(2).mul(int(21)).eq_e(int(42));
        assert_eq!(prove_compute(&k, &e, &unlimited()), ComputeOutcome::Proved);
        let bad = int(2).mul(int(21)).eq_e(int(43));
        assert_eq!(
            prove_compute(&k, &bad, &unlimited()),
            ComputeOutcome::Refuted
        );
    }

    #[test]
    fn recursive_function_unfolds() {
        // fib(10) == 55 by computation — painful for pure SMT unfolding.
        let n = var("n", Ty::Int);
        let fib = Function::new("fib", Mode::Spec)
            .param("n", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(veris_vir::expr::ite(
                n.le(int(1)),
                n.clone(),
                call("fib", vec![n.sub(int(1))], Ty::Int).add(call(
                    "fib",
                    vec![n.sub(int(2))],
                    Ty::Int,
                )),
            ));
        let k = Krate::new().module(Module::new("m").func(fib));
        let e = call("fib", vec![int(10)], Ty::Int).eq_e(int(55));
        assert_eq!(prove_compute(&k, &e, &unlimited()), ComputeOutcome::Proved);
    }

    #[test]
    fn residual_goes_to_smt() {
        // x >= 0 ==> x + fib(5) >= 5: fib(5) computes to 5; the rest is SMT.
        let n = var("n", Ty::Int);
        let fib = Function::new("fib", Mode::Spec)
            .param("n", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(veris_vir::expr::ite(
                n.le(int(1)),
                n.clone(),
                call("fib", vec![n.sub(int(1))], Ty::Int).add(call(
                    "fib",
                    vec![n.sub(int(2))],
                    Ty::Int,
                )),
            ));
        let k = Krate::new().module(Module::new("m").func(fib));
        let x = var("x", Ty::Int);
        let e = x
            .ge(int(0))
            .implies(x.add(call("fib", vec![int(5)], Ty::Int)).ge(int(5)));
        assert_eq!(prove_compute(&k, &e, &unlimited()), ComputeOutcome::Proved);
    }

    #[test]
    fn lookup_table_check() {
        // The paper's CRC-table motivation in miniature: a table of
        // precomputed squares matches its defining computation.
        let i = var("i", Ty::Int);
        let sq = Function::new("square_of", Mode::Spec)
            .param("i", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(i.mul(i.clone()));
        let k = Krate::new().module(Module::new("m").func(sq));
        let table = [0i128, 1, 4, 9, 16, 25, 36, 49];
        let mut checks = Vec::new();
        for (idx, &v) in table.iter().enumerate() {
            checks.push(call("square_of", vec![int(idx as i128)], Ty::Int).eq_e(int(v)));
        }
        let e = veris_vir::expr::and_all(checks);
        assert_eq!(prove_compute(&k, &e, &unlimited()), ComputeOutcome::Proved);
    }
}
