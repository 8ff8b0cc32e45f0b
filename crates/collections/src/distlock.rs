//! The distributed-lock millibenchmark (paper §4.1.2): mutual exclusion for
//! a lock passed between nodes, proved in two ways:
//!
//! - **default mode** ([`default_mode_krate`]): an explicit `Map<int,bool>`
//!   model with a hand-written inductive-invariant proof (~25 lines, as the
//!   paper reports for Verus's default mode);
//! - **EPR mode** ([`epr_mode_krate`]): nodes abstracted to an uninterpreted
//!   sort and `holds` to a relation; the invariant check is then fully
//!   automatic, at the cost of abstraction boilerplate.

use veris_vir::expr::{call, forall, var, ExprExt};
use veris_vir::module::{Function, Krate, Mode, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;

/// Default-mode model: nodes are ints, `held: Map<int,bool>`.
pub fn default_mode_krate() -> Krate {
    let held_ty = Ty::map(Ty::Int, Ty::Bool);
    let held = var("held", held_ty.clone());
    let a = var("a", Ty::Int);
    let b = var("b", Ty::Int);
    // inv(held) = forall a b. contains && held[a] && held[b] ==> a == b
    let inv_body = forall(
        vec![("a", Ty::Int), ("b", Ty::Int)],
        held.map_contains(a.clone())
            .and(held.map_sel(a.clone()))
            .and(held.map_contains(b.clone()))
            .and(held.map_sel(b.clone()))
            .implies(a.eq_e(b.clone())),
        "lock_mutex",
    );
    let inv_fn = Function::new("lock_inv", Mode::Spec)
        .param("held", held_ty.clone())
        .returns("r", Ty::Bool)
        .spec_body(inv_body);
    // transfer: s releases, t acquires.
    let s = var("s", Ty::Int);
    let t = var("t", Ty::Int);
    let held2 = held
        .map_store(s.clone(), veris_vir::expr::fals())
        .map_store(t.clone(), veris_vir::expr::tru());
    let transfer = Function::new("transfer_preserves_mutex", Mode::Proof)
        .param("held", held_ty.clone())
        .param("s", Ty::Int)
        .param("t", Ty::Int)
        .requires(call("lock_inv", vec![held.clone()], Ty::Bool))
        .requires(held.map_contains(s.clone()).and(held.map_sel(s.clone())))
        .stmts(vec![
            // The hand-written inductive step (~the paper's 25 lines): any
            // two holders in the new map must both be t.
            Stmt::decl("h2", held_ty.clone(), held2.clone()),
            Stmt::assert(var("h2", held_ty.clone()).map_sel(t.clone())),
            Stmt::assert(
                var("h2", held_ty.clone())
                    .map_sel(s.clone())
                    .not()
                    .or(s.eq_e(t.clone())),
            ),
            Stmt::assert(forall(
                vec![("a", Ty::Int)],
                var("h2", held_ty.clone())
                    .map_contains(a.clone())
                    .and(var("h2", held_ty.clone()).map_sel(a.clone()))
                    .and(a.ne_e(t.clone()))
                    .implies(
                        held.map_contains(a.clone())
                            .and(held.map_sel(a.clone()))
                            .and(a.ne_e(s.clone())),
                    ),
                "other_holders_unchanged",
            )),
            Stmt::assert(forall(
                vec![("a", Ty::Int)],
                var("h2", held_ty.clone())
                    .map_contains(a.clone())
                    .and(var("h2", held_ty.clone()).map_sel(a.clone()))
                    .implies(a.eq_e(t.clone())),
                "only_t_holds",
            )),
            Stmt::assert(call("lock_inv", vec![var("h2", held_ty.clone())], Ty::Bool)),
        ]);
    Krate::new().module(Module::new("distlock_default").func(inv_fn).func(transfer))
}

/// EPR-mode model: nodes form an abstract sort, `holds`/`holds_post` are
/// relations, and the inductive step is decided automatically by
/// saturation. The extra spec functions are the "boilerplate" the paper
/// measures (~100 lines in their artifact).
pub fn epr_mode_krate() -> Krate {
    let node = Ty::Abstract("LNode".into());
    let holds = Function::new("holds", Mode::Spec)
        .param("n", node.clone())
        .returns("r", Ty::Bool);
    let holds_post = Function::new("holds_post", Mode::Spec)
        .param("n", node.clone())
        .returns("r", Ty::Bool);
    let a = var("a", node.clone());
    let b = var("b", node.clone());
    let inv = forall(
        vec![("a", node.clone()), ("b", node.clone())],
        call("holds", vec![a.clone()], Ty::Bool)
            .and(call("holds", vec![b.clone()], Ty::Bool))
            .implies(a.eq_e(b.clone())),
        "epr_mutex",
    );
    let send = var("send", node.clone());
    let recv = var("recv", node.clone());
    let x = var("x", node.clone());
    let step = forall(
        vec![("x", node.clone())],
        call("holds_post", vec![x.clone()], Ty::Bool).iff(
            x.eq_e(recv.clone())
                .and(call("holds", vec![send.clone()], Ty::Bool))
                .or(call("holds", vec![x.clone()], Ty::Bool)
                    .and(x.ne_e(send.clone()))
                    .and(x.ne_e(recv.clone()))),
        ),
        "epr_transfer",
    );
    let inv_post = forall(
        vec![("a", node.clone()), ("b", node.clone())],
        call("holds_post", vec![a.clone()], Ty::Bool)
            .and(call("holds_post", vec![b.clone()], Ty::Bool))
            .implies(a.eq_e(b.clone())),
        "epr_mutex_post",
    );
    // Fully automatic: one assert, no manual case analysis.
    let preserve = Function::new("epr_transfer_preserves", Mode::Proof)
        .param("send", node.clone())
        .param("recv", node.clone())
        .requires(inv)
        .requires(call("holds", vec![send.clone()], Ty::Bool))
        .requires(step)
        .stmts(vec![Stmt::assert(inv_post)]);
    Krate::new().module(
        Module::new("distlock_epr")
            .func(holds)
            .func(holds_post)
            .func(preserve)
            .epr(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_idioms::config_with_provers;
    use veris_vc::{verify_function, verify_krate, VcConfig};

    #[test]
    fn default_mode_transfer_verifies() {
        let k = default_mode_krate();
        let cfg = config_with_provers();
        let r = verify_function(&k, "transfer_preserves_mutex", &cfg);
        assert!(r.status.is_verified(), "{:?}", r.status);
    }

    #[test]
    fn epr_mode_fully_automatic() {
        let k = epr_mode_krate();
        let rep = verify_krate(&k, &VcConfig::default(), 1);
        assert_eq!(rep.lint_stats.errors, 0, "{:?}", rep.lints);
        assert!(rep.all_verified(), "{:?}", rep.failures());
        let names: Vec<&str> = rep.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["epr_transfer_preserves"]);
    }

    #[test]
    fn proof_line_counts_compare() {
        // The paper: ~25 lines of manual proof in default mode; EPR is
        // automatic but carries abstraction boilerplate.
        let def = veris_vir::loc::count_krate(&default_mode_krate());
        let epr = veris_vir::loc::count_krate(&epr_mode_krate());
        assert!(def.proof > 0);
        assert!(epr.proof > 0);
    }
}
