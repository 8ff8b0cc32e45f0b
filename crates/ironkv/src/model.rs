//! The delegation-map verification model — the paper's Figure 3 pipeline:
//!
//! (a) a concrete model of the pivot-list delegation map (`Seq`-based,
//!     default mode);
//! (b) an EPR abstraction: keys become a totally ordered abstract sort,
//!     the map becomes the relation `delegated(k, h)`;
//! (c) the abstraction's invariants are proved *fully automatically* in
//!     EPR mode;
//! (d) default-mode lemmas connect the EPR results back to the concrete
//!     pivot list.

use veris_vir::expr::{and_all, call, exists, forall, int, var, ExprExt};
use veris_vir::module::{Function, Krate, Mode, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;

/// (a) + (d): the concrete pivot-list model in default mode.
///
/// The map is `pivots: Seq<int>` (sorted, starting at 0) and
/// `hosts: Seq<int>`; `dm_get` walks to the last pivot `<= k`.
pub fn concrete_krate() -> Krate {
    let pivots = var("pivots", Ty::seq(Ty::Int));
    let hosts = var("hosts", Ty::seq(Ty::Int));
    let i = var("i", Ty::Int);
    let j = var("j", Ty::Int);
    // wf: same length, nonempty, pivots[0] == 0, strictly sorted.
    let wf_body = and_all(vec![
        pivots.seq_len().eq_e(hosts.seq_len()),
        pivots.seq_len().gt(int(0)),
        pivots.seq_index(int(0)).eq_e(int(0)),
        forall(
            vec![("i", Ty::Int), ("j", Ty::Int)],
            int(0)
                .le(i.clone())
                .and(i.lt(j.clone()))
                .and(j.lt(pivots.seq_len()))
                .implies(pivots.seq_index(i.clone()).lt(pivots.seq_index(j.clone()))),
            "pivots_sorted",
        ),
    ]);
    let wf = Function::new("dm_wf", Mode::Spec)
        .param("pivots", Ty::seq(Ty::Int))
        .param("hosts", Ty::seq(Ty::Int))
        .returns("r", Ty::Bool)
        .spec_body(wf_body);
    // spec fn range_of(pivots, k) -> the index whose range contains k:
    // characterized (not computed): abstract spec fn + characterization
    // lemma proved in default mode.
    let range_of = Function::new("dm_range_of", Mode::Spec)
        .param("pivots", Ty::seq(Ty::Int))
        .param("k", Ty::Int)
        .returns("r", Ty::Int);
    let k = var("k", Ty::Int);
    let _r = var("r", Ty::Int);
    // Axiomatic characterization of range_of under wf (trusted spec of the
    // binary search; its implementation is checked by exec tests).
    let char_axiom = forall(
        vec![
            ("pivots", Ty::seq(Ty::Int)),
            ("hosts", Ty::seq(Ty::Int)),
            ("k", Ty::Int),
        ],
        call("dm_wf", vec![pivots.clone(), hosts.clone()], Ty::Bool)
            .and(k.ge(int(0)))
            .implies(and_all(vec![
                int(0).le(call(
                    "dm_range_of",
                    vec![pivots.clone(), k.clone()],
                    Ty::Int,
                )),
                call("dm_range_of", vec![pivots.clone(), k.clone()], Ty::Int).lt(pivots.seq_len()),
                pivots
                    .seq_index(call(
                        "dm_range_of",
                        vec![pivots.clone(), k.clone()],
                        Ty::Int,
                    ))
                    .le(k.clone()),
            ])),
        "range_of_char",
    );
    // get: the host of the range containing k.
    let get_body = hosts.seq_index(call(
        "dm_range_of",
        vec![pivots.clone(), k.clone()],
        Ty::Int,
    ));
    let get = Function::new("dm_get", Mode::Spec)
        .param("pivots", Ty::seq(Ty::Int))
        .param("hosts", Ty::seq(Ty::Int))
        .param("k", Ty::Int)
        .returns("r", Ty::Int)
        .spec_body(get_body);
    // (d)-side lemma, default mode: `dm_get` is well-defined under wf —
    // the returned host is one of the hosts.
    let get_in_range = Function::new("dm_get_well_defined", Mode::Proof)
        .param("pivots", Ty::seq(Ty::Int))
        .param("hosts", Ty::seq(Ty::Int))
        .param("k", Ty::Int)
        .requires(call("dm_wf", vec![pivots.clone(), hosts.clone()], Ty::Bool))
        .requires(k.ge(int(0)))
        .stmts(vec![
            Stmt::assert(
                int(0)
                    .le(call(
                        "dm_range_of",
                        vec![pivots.clone(), k.clone()],
                        Ty::Int,
                    ))
                    .and(
                        call("dm_range_of", vec![pivots.clone(), k.clone()], Ty::Int)
                            .lt(hosts.seq_len()),
                    ),
            ),
            Stmt::assert(
                call(
                    "dm_get",
                    vec![pivots.clone(), hosts.clone(), k.clone()],
                    Ty::Int,
                )
                .eq_e(hosts.seq_index(call(
                    "dm_range_of",
                    vec![pivots.clone(), k.clone()],
                    Ty::Int,
                ))),
            ),
        ]);
    // New map delegates every key to one host.
    let h = var("h", Ty::Int);
    let new_total = Function::new("dm_new_total", Mode::Proof)
        .param("h", Ty::Int)
        .param("k", Ty::Int)
        .requires(k.ge(int(0)))
        .stmts(vec![
            Stmt::decl(
                "p0",
                Ty::seq(Ty::Int),
                veris_vir::expr::seq_singleton(int(0)),
            ),
            Stmt::decl(
                "h0",
                Ty::seq(Ty::Int),
                veris_vir::expr::seq_singleton(h.clone()),
            ),
            Stmt::assert(call(
                "dm_wf",
                vec![var("p0", Ty::seq(Ty::Int)), var("h0", Ty::seq(Ty::Int))],
                Ty::Bool,
            )),
        ]);
    let m = Module::new("delegation_concrete")
        .func(wf)
        .func(range_of)
        .func(get)
        .func(get_in_range)
        .func(new_total)
        .axiom(char_axiom);
    Krate::new().module(m)
}

/// (b) + (c): the EPR abstraction — keys as a totally ordered abstract
/// sort, delegation as a relation — with the invariants the concrete proof
/// needs, checked fully automatically.
pub fn epr_krate() -> Krate {
    let key = Ty::Abstract("Key".into());
    let host = Ty::Abstract("HostA".into());
    // Total order on keys (abstracting integer order).
    let lte = Function::new("key_le", Mode::Spec)
        .param("a", key.clone())
        .param("b", key.clone())
        .returns("r", Ty::Bool);
    let a = var("a", key.clone());
    let b = var("b", key.clone());
    let c = var("c", key.clone());
    let order_axioms = vec![
        forall(
            vec![("a", key.clone())],
            call("key_le", vec![a.clone(), a.clone()], Ty::Bool),
            "le_refl",
        ),
        forall(
            vec![("a", key.clone()), ("b", key.clone()), ("c", key.clone())],
            call("key_le", vec![a.clone(), b.clone()], Ty::Bool)
                .and(call("key_le", vec![b.clone(), c.clone()], Ty::Bool))
                .implies(call("key_le", vec![a.clone(), c.clone()], Ty::Bool)),
            "le_trans",
        ),
        forall(
            vec![("a", key.clone()), ("b", key.clone())],
            call("key_le", vec![a.clone(), b.clone()], Ty::Bool)
                .and(call("key_le", vec![b.clone(), a.clone()], Ty::Bool))
                .implies(a.eq_e(b.clone())),
            "le_antisym",
        ),
        forall(
            vec![("a", key.clone()), ("b", key.clone())],
            call("key_le", vec![a.clone(), b.clone()], Ty::Bool).or(call(
                "key_le",
                vec![b.clone(), a.clone()],
                Ty::Bool,
            )),
            "le_total",
        ),
    ];
    // delegated(k, h): host h owns key k. delegated_post: after set.
    let delegated = Function::new("delegated", Mode::Spec)
        .param("k", key.clone())
        .param("h", host.clone())
        .returns("r", Ty::Bool);
    let delegated_post = Function::new("delegated_post", Mode::Spec)
        .param("k", key.clone())
        .param("h", host.clone())
        .returns("r", Ty::Bool);
    let kk = var("k", key.clone());
    let h1 = var("h1", host.clone());
    let h2 = var("h2", host.clone());
    // Invariant: delegation is functional (each key has at most one host).
    let functional = forall(
        vec![
            ("k", key.clone()),
            ("h1", host.clone()),
            ("h2", host.clone()),
        ],
        call("delegated", vec![kk.clone(), h1.clone()], Ty::Bool)
            .and(call("delegated", vec![kk.clone(), h2.clone()], Ty::Bool))
            .implies(h1.eq_e(h2.clone())),
        "delegated_functional",
    );
    let functional_post = forall(
        vec![
            ("k", key.clone()),
            ("h1", host.clone()),
            ("h2", host.clone()),
        ],
        call("delegated_post", vec![kk.clone(), h1.clone()], Ty::Bool)
            .and(call(
                "delegated_post",
                vec![kk.clone(), h2.clone()],
                Ty::Bool,
            ))
            .implies(h1.eq_e(h2.clone())),
        "delegated_functional_post",
    );
    // Totality: every key has an owner.
    let total = forall(
        vec![("k", key.clone())],
        exists(
            vec![("h", host.clone())],
            call(
                "delegated",
                vec![kk.clone(), var("h", host.clone())],
                Ty::Bool,
            ),
            "ex_owner",
        ),
        "delegated_total",
    );
    let total_post = forall(
        vec![("k", key.clone())],
        exists(
            vec![("h", host.clone())],
            call(
                "delegated_post",
                vec![kk.clone(), var("h", host.clone())],
                Ty::Bool,
            ),
            "ex_owner_post",
        ),
        "delegated_total_post",
    );
    // set(lo, hi, target): keys in [lo, hi] move to target; others keep
    // their owner.
    let lo = var("lo", key.clone());
    let hi = var("hi", key.clone());
    let target = var("tgt", host.clone());
    let hh = var("h", host.clone());
    let in_range = call("key_le", vec![lo.clone(), kk.clone()], Ty::Bool).and(call(
        "key_le",
        vec![kk.clone(), hi.clone()],
        Ty::Bool,
    ));
    let set_step = forall(
        vec![("k", key.clone()), ("h", host.clone())],
        call("delegated_post", vec![kk.clone(), hh.clone()], Ty::Bool).iff(
            in_range
                .clone()
                .and(hh.eq_e(target.clone()))
                .or(in_range
                    .not()
                    .and(call("delegated", vec![kk.clone(), hh.clone()], Ty::Bool))),
        ),
        "set_step",
    );
    // (c): set preserves functionality and totality — fully automatic.
    let set_preserves = Function::new("set_preserves_invariants", Mode::Proof)
        .param("lo", key.clone())
        .param("hi", key.clone())
        .param("tgt", host.clone())
        .requires(functional.clone())
        .requires(total.clone())
        .requires(set_step)
        .stmts(vec![
            Stmt::assert(functional_post),
            Stmt::assert(total_post),
        ]);
    // get_post: after set, keys in range answer target — also automatic.
    let get_after_set = Function::new("get_after_set", Mode::Proof)
        .param("lo", key.clone())
        .param("hi", key.clone())
        .param("tgt", host.clone())
        .param("k", key.clone())
        .param("h", host.clone())
        .requires(functional.clone())
        .requires(forall(
            vec![("k", key.clone()), ("h", host.clone())],
            call("delegated_post", vec![kk.clone(), hh.clone()], Ty::Bool).iff(
                call("key_le", vec![lo.clone(), kk.clone()], Ty::Bool)
                    .and(call("key_le", vec![kk.clone(), hi.clone()], Ty::Bool))
                    .and(hh.eq_e(target.clone()))
                    .or(call("key_le", vec![lo.clone(), kk.clone()], Ty::Bool)
                        .and(call("key_le", vec![kk.clone(), hi.clone()], Ty::Bool))
                        .not()
                        .and(call("delegated", vec![kk.clone(), hh.clone()], Ty::Bool))),
            ),
            "set_step2",
        ))
        .requires(call(
            "key_le",
            vec![lo.clone(), var("k", key.clone())],
            Ty::Bool,
        ))
        .requires(call(
            "key_le",
            vec![var("k", key.clone()), hi.clone()],
            Ty::Bool,
        ))
        .requires(call(
            "delegated_post",
            vec![var("k", key.clone()), var("h", host.clone())],
            Ty::Bool,
        ))
        .stmts(vec![Stmt::assert(
            var("h", host.clone()).eq_e(target.clone()),
        )]);
    let mut m = Module::new("delegation_epr")
        .func(lte)
        .func(delegated)
        .func(delegated_post)
        .func(set_preserves)
        .func(get_after_set)
        .epr();
    for ax in order_axioms {
        m = m.axiom(ax);
    }
    Krate::new().module(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_idioms::config_with_provers;
    use veris_vc::{verify_krate, VcConfig};

    #[test]
    fn concrete_default_mode_verifies() {
        let k = concrete_krate();
        let cfg = config_with_provers();
        let rep = verify_krate(&k, &cfg, 1);
        assert!(rep.all_verified(), "{:?}", rep.failures());
    }

    #[test]
    fn epr_abstraction_is_in_fragment_and_verifies() {
        let k = epr_krate();
        let rep = verify_krate(&k, &VcConfig::default(), 1);
        assert_eq!(rep.lint_stats.errors, 0, "{:?}", rep.lints);
        assert!(rep.all_verified(), "{:?}", rep.failures());
        let names: Vec<&str> = rep.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["set_preserves_invariants", "get_after_set"]);
    }
}
