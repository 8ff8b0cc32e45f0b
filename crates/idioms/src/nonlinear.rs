//! `by(nonlinear_arith)` proofs: an *isolated* query (no ambient context —
//! premises must appear inside the assertion, per §3.3) augmented with
//! ground instances of standard non-linear lemmas over the products the
//! query mentions (sign rules, squares, scaling, shared-factor
//! monotonicity). The enriched query then runs through the ordinary
//! DPLL(T) pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use veris_obs::ResourceMeter;
use veris_smt::solver::{Config, SmtResult, Solver};
use veris_smt::term::{TermId, TermKind};
use veris_vc::ctx::EncCtx;
use veris_vir::expr::Expr;
use veris_vir::module::Krate;

/// Outcome of a non-linear proof attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NlOutcome {
    Proved,
    Refuted(String),
    Unknown(String),
}

/// Prove a boolean VIR expression with non-linear lemma support, charging
/// `meter` (the calling function's budget) for the solver's work.
pub fn prove_nonlinear(krate: &Krate, e: &Expr, meter: &Arc<ResourceMeter>) -> NlOutcome {
    let mut solver = Solver::new(Config::default());
    solver.set_meter(meter.clone());
    let mut ctx = EncCtx::new(krate);
    let empty = HashMap::new();
    let goal = ctx.encode_expr(&mut solver, e, &empty);
    ctx.flush_axioms(&mut solver);
    let neg = solver.store.mk_not(goal);
    solver.assert(neg);
    add_nonlinear_lemmas(&mut solver);
    match solver.check() {
        SmtResult::Unsat => NlOutcome::Proved,
        SmtResult::Sat(m) => NlOutcome::Refuted(format!(
            "{}counterexample with {} int assignments",
            if m.maybe_spurious { "possible " } else { "" },
            m.ints.len()
        )),
        SmtResult::Unknown(r) => NlOutcome::Unknown(r),
    }
}

/// Collect the non-linear product terms currently in the query and assert
/// sound ground lemma instances about them.
fn add_nonlinear_lemmas(solver: &mut Solver) {
    // Gather NlMul terms and integer constants from the asserted formulas.
    let mut products: Vec<(TermId, Vec<TermId>)> = Vec::new();
    let mut constants: Vec<i128> = vec![0, 1, 2];
    let mut stack: Vec<TermId> = solver.asserted.clone();
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        match solver.store.kind(t) {
            TermKind::NlMul(fs) => {
                products.push((t, fs.clone()));
            }
            TermKind::IntConst(k) if !constants.contains(k) && k.abs() < 1_000_000 => {
                constants.push(*k);
            }
            TermKind::Linear { konst, .. }
                if !constants.contains(konst) && konst.abs() < 1_000_000 =>
            {
                constants.push(*konst);
            }
            _ => {}
        }
        stack.extend(solver.store.children(t));
    }
    let mut lemmas: Vec<TermId> = Vec::new();
    let zero = solver.store.mk_int(0);
    // Squares are non-negative; general products obey sign rules.
    for (p, fs) in &products {
        // Repeated-factor rule: x appears an even number of times => p is a
        // square times the rest.
        let mut counts: HashMap<TermId, usize> = HashMap::new();
        for &f in fs {
            *counts.entry(f).or_insert(0) += 1;
        }
        if counts.values().all(|c| c % 2 == 0) {
            lemmas.push(solver.store.mk_ge(*p, zero));
        }
        // Binary split sign rules: p = z * f for every way of removing one
        // factor.
        for i in 0..fs.len() {
            let f = fs[i];
            let mut rest = fs.clone();
            rest.remove(i);
            let z = product_of(solver, &rest);
            let z_nonneg = solver.store.mk_ge(z, zero);
            let z_nonpos = solver.store.mk_le(z, zero);
            let f_nonneg = solver.store.mk_ge(f, zero);
            let f_nonpos = solver.store.mk_le(f, zero);
            let p_nonneg = solver.store.mk_ge(*p, zero);
            let p_nonpos = solver.store.mk_le(*p, zero);
            let both_pos = solver.store.mk_and(vec![z_nonneg, f_nonneg]);
            let both_neg = solver.store.mk_and(vec![z_nonpos, f_nonpos]);
            let mixed1 = solver.store.mk_and(vec![z_nonneg, f_nonpos]);
            let mixed2 = solver.store.mk_and(vec![z_nonpos, f_nonneg]);
            lemmas.push(solver.store.mk_implies(both_pos, p_nonneg));
            lemmas.push(solver.store.mk_implies(both_neg, p_nonneg));
            lemmas.push(solver.store.mk_implies(mixed1, p_nonpos));
            lemmas.push(solver.store.mk_implies(mixed2, p_nonpos));
            // Scaling against the constants in the query:
            // z >= 0 && f >= k  =>  p >= k*z   (and the dual directions).
            for &k in &constants {
                let kt = solver.store.mk_int(k);
                let kz = solver.store.mk_mul(kt, z);
                let f_ge_k = solver.store.mk_ge(f, kt);
                let f_le_k = solver.store.mk_le(f, kt);
                let p_ge_kz = solver.store.mk_ge(*p, kz);
                let p_le_kz = solver.store.mk_le(*p, kz);
                let c1 = solver.store.mk_and(vec![z_nonneg, f_ge_k]);
                lemmas.push(solver.store.mk_implies(c1, p_ge_kz));
                let c2 = solver.store.mk_and(vec![z_nonneg, f_le_k]);
                lemmas.push(solver.store.mk_implies(c2, p_le_kz));
                let c3 = solver.store.mk_and(vec![z_nonpos, f_ge_k]);
                lemmas.push(solver.store.mk_implies(c3, p_le_kz));
                let c4 = solver.store.mk_and(vec![z_nonpos, f_le_k]);
                lemmas.push(solver.store.mk_implies(c4, p_ge_kz));
            }
        }
    }
    // Shared-factor monotonicity across product pairs.
    for a in 0..products.len() {
        for b in (a + 1)..products.len() {
            let (pa, fa) = &products[a];
            let (pb, fb) = &products[b];
            // Find a common factor; compare the cofactors.
            for &f in fa {
                if fb.contains(&f) {
                    let za = remove_one(fa, f);
                    let zb = remove_one(fb, f);
                    let za_t = product_of(solver, &za);
                    let zb_t = product_of(solver, &zb);
                    let f_nonneg = solver.store.mk_ge(f, zero);
                    let f_nonpos = solver.store.mk_le(f, zero);
                    let le = solver.store.mk_le(za_t, zb_t);
                    let ge = solver.store.mk_ge(za_t, zb_t);
                    let pa_le = solver.store.mk_le(*pa, *pb);
                    let pa_ge = solver.store.mk_ge(*pa, *pb);
                    let c1 = solver.store.mk_and(vec![f_nonneg, le]);
                    lemmas.push(solver.store.mk_implies(c1, pa_le));
                    let c2 = solver.store.mk_and(vec![f_nonpos, le]);
                    lemmas.push(solver.store.mk_implies(c2, pa_ge));
                    let c3 = solver.store.mk_and(vec![f_nonneg, ge]);
                    lemmas.push(solver.store.mk_implies(c3, pa_ge));
                    let c4 = solver.store.mk_and(vec![f_nonpos, ge]);
                    lemmas.push(solver.store.mk_implies(c4, pa_le));
                    // Strict-successor gap: za < zb && f >= 0  =>
                    // pa + f <= pb (since (zb - za) >= 1). Both directions.
                    let lt = solver.store.mk_lt(za_t, zb_t);
                    let pa_f = solver.store.mk_add(vec![*pa, f]);
                    let gap1 = solver.store.mk_le(pa_f, *pb);
                    let c5 = solver.store.mk_and(vec![f_nonneg, lt]);
                    lemmas.push(solver.store.mk_implies(c5, gap1));
                    let gt2 = solver.store.mk_lt(zb_t, za_t);
                    let pb_f = solver.store.mk_add(vec![*pb, f]);
                    let gap2 = solver.store.mk_le(pb_f, *pa);
                    let c6 = solver.store.mk_and(vec![f_nonneg, gt2]);
                    lemmas.push(solver.store.mk_implies(c6, gap2));
                    break;
                }
            }
        }
    }
    for l in lemmas {
        solver.assert(l);
    }
}

fn product_of(solver: &mut Solver, factors: &[TermId]) -> TermId {
    let mut acc = solver.store.mk_int(1);
    for &f in factors {
        acc = solver.store.mk_mul(acc, f);
    }
    acc
}

fn remove_one(fs: &[TermId], f: TermId) -> Vec<TermId> {
    let mut out = fs.to_vec();
    if let Some(pos) = out.iter().position(|&x| x == f) {
        out.remove(pos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{int, var, ExprExt};
    use veris_vir::ty::Ty;

    fn krate() -> Krate {
        Krate::new()
    }

    fn unlimited() -> Arc<ResourceMeter> {
        Arc::new(ResourceMeter::new())
    }

    #[test]
    fn paper_example() {
        assert_eq!(
            prove_nonlinear(&krate(), &paper_goal(), &unlimited()),
            NlOutcome::Proved
        );
    }

    #[test]
    fn square_nonneg() {
        let x = var("x", Ty::Int);
        let e = x.mul(x.clone()).ge(int(0));
        assert_eq!(
            prove_nonlinear(&krate(), &e, &unlimited()),
            NlOutcome::Proved
        );
    }

    #[test]
    fn product_of_positives() {
        let x = var("x", Ty::Int);
        let y = var("y", Ty::Int);
        let e = x
            .ge(int(0))
            .and(y.ge(int(0)))
            .implies(x.mul(y.clone()).ge(int(0)));
        assert_eq!(
            prove_nonlinear(&krate(), &e, &unlimited()),
            NlOutcome::Proved
        );
    }

    #[test]
    fn monotone_shared_factor() {
        // 0 <= x <= y && z >= 0 ==> x*z <= y*z
        let x = var("x", Ty::Int);
        let y = var("y", Ty::Int);
        let z = var("z", Ty::Int);
        let hyp = int(0).le(x.clone()).and(x.le(y.clone())).and(z.ge(int(0)));
        let e = hyp.implies(x.mul(z.clone()).le(y.mul(z.clone())));
        assert_eq!(
            prove_nonlinear(&krate(), &e, &unlimited()),
            NlOutcome::Proved
        );
    }

    #[test]
    fn false_claim_refuted_or_unknown() {
        // x*y >= 0 unconditionally is false.
        let x = var("x", Ty::Int);
        let y = var("y", Ty::Int);
        let e = x.mul(y.clone()).ge(int(0));
        let r = prove_nonlinear(&krate(), &e, &unlimited());
        assert!(
            !matches!(r, NlOutcome::Proved),
            "must not prove a false claim: {r:?}"
        );
    }

    fn paper_goal() -> Expr {
        // q > 2 ==> (a*a + 1) * q >= (a*a + 1) * 2
        let q = var("q", Ty::Int);
        let a = var("a", Ty::Int);
        let aa1 = a.mul(a.clone()).add(int(1));
        q.gt(int(2)).implies(aa1.mul(q.clone()).ge(aa1.mul(int(2))))
    }

    #[test]
    fn metered_proof_charges_the_meter() {
        let meter = Arc::new(ResourceMeter::with_limit(Some(1_000_000)));
        let r = prove_nonlinear(&krate(), &paper_goal(), &meter);
        assert_eq!(r, NlOutcome::Proved);
        assert!(meter.spent() > 0, "the solver's work must be charged");
    }

    #[test]
    fn exhausted_meter_is_unknown_not_proved() {
        let meter = Arc::new(ResourceMeter::with_limit(Some(1)));
        meter.charge(veris_obs::Counter::SatConflicts, 2);
        match prove_nonlinear(&krate(), &paper_goal(), &meter) {
            NlOutcome::Unknown(r) => assert!(r.contains("resource limit exceeded"), "{r}"),
            other => panic!("an exhausted budget must not prove: {other:?}"),
        }
    }

    #[test]
    fn no_ambient_context() {
        // The isolation requirement: facts not stated in the assertion are
        // unavailable. Proving `(a*a+1)*q >= (a*a+1)*2` WITHOUT stating
        // q > 2 must fail.
        let q = var("q", Ty::Int);
        let a = var("a", Ty::Int);
        let aa1 = a.mul(a.clone()).add(int(1));
        let e = aa1.mul(q.clone()).ge(aa1.mul(int(2)));
        let r = prove_nonlinear(&krate(), &e, &unlimited());
        assert!(!matches!(r, NlOutcome::Proved), "missing premise: {r:?}");
    }
}
