//! End-to-end tests for the pre-solver lint gate: error-severity lints
//! reject a function before any solver is constructed, `allow`
//! suppressions lift the gate, the recursive-call `decreases` obligation
//! added by the WP calculus is actually checked by the solver, and an
//! `epr_mode` module that leaves the EPR fragment is gated like any other
//! error lint.

use veris_vc::{lint_ids, lint_krate, verify_function, verify_krate, Status, VcConfig};
use veris_vir::expr::{call, int, ite, var, ExprExt};
use veris_vir::module::{Function, Krate, Mode, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;

/// `spec fn depth(x) { if x <= 0 { 0 } else { depth(x - 1) + 1 } }`,
/// with no decreases clause unless `dec` is given.
fn depth_krate(dec: Option<veris_vir::expr::Expr>, allow: Option<&str>) -> Krate {
    let x = var("x", Ty::Int);
    let mut f = Function::new("depth", Mode::Spec)
        .param("x", Ty::Int)
        .returns("r", Ty::Int)
        .spec_body(ite(
            x.le(int(0)),
            int(0),
            call("depth", vec![x.sub(int(1))], Ty::Int).add(int(1)),
        ));
    if let Some(d) = dec {
        f = f.decreases(d);
    }
    if let Some(id) = allow {
        f = f.allow(id);
    }
    Krate::new().module(Module::new("m").func(f))
}

#[test]
fn decreases_less_recursive_spec_fn_fails_at_lint_time() {
    let k = depth_krate(None, None);
    let report = verify_krate(&k, &VcConfig::default(), 1);
    let f = report
        .functions
        .iter()
        .find(|f| f.name == "depth")
        .expect("gated function is reported");
    match &f.status {
        Status::Failed(msg) => {
            assert!(msg.contains("termination-missing-decreases"), "{msg}");
        }
        other => panic!("expected lint failure, got {other:?}"),
    }
    // The gate fires before any solver exists: no query was built, no
    // resource units were spent.
    assert_eq!(f.query_bytes, 0, "no SMT query should have been encoded");
    assert_eq!(f.rlimit_spent(), 0, "no solver resources should be spent");
    assert!(!report.all_verified());
    assert_eq!(report.lint_stats.errors, 1);
}

#[test]
fn verify_function_gates_identically_to_verify_krate() {
    let k = depth_krate(None, None);
    let single = verify_function(&k, "depth", &VcConfig::default());
    let krate_wide = verify_krate(&k, &VcConfig::default(), 1);
    let from_krate = krate_wide
        .functions
        .iter()
        .find(|f| f.name == "depth")
        .unwrap();
    assert_eq!(single.status, from_krate.status, "gate verdicts must agree");
}

#[test]
fn allow_suppression_lifts_the_gate() {
    let k = depth_krate(None, Some("termination-missing-decreases"));
    let lint = lint_krate(&k);
    assert_eq!(lint.stats.errors, 0);
    assert_eq!(lint.stats.suppressed, 1);
    let report = verify_krate(&k, &VcConfig::default(), 1);
    assert!(
        !report
            .functions
            .iter()
            .any(|f| matches!(&f.status, Status::Failed(m) if m.starts_with("lint:"))),
        "suppressed lint must not gate"
    );
}

#[test]
fn decreases_clause_satisfies_the_gate() {
    let x = var("x", Ty::Int);
    let k = depth_krate(Some(x), None);
    assert_eq!(lint_krate(&k).stats.errors, 0);
    let report = verify_krate(&k, &VcConfig::default(), 1);
    assert!(
        !report
            .functions
            .iter()
            .any(|f| matches!(&f.status, Status::Failed(m) if m.starts_with("lint:"))),
        "decreases-annotated recursion must not gate"
    );
}

/// Recursive proof fn whose measure really decreases: the WP-level
/// recursive-call obligation proves.
#[test]
fn recursive_proof_fn_with_sound_decreases_verifies() {
    let n = var("n", Ty::Int);
    let f = Function::new("down", Mode::Proof)
        .param("n", Ty::Int)
        .requires(n.ge(int(0)))
        .decreases(n.clone())
        .stmts(vec![Stmt::If {
            cond: n.gt(int(0)),
            then_: vec![Stmt::Call {
                func: "down".into(),
                args: vec![n.sub(int(1))],
                dest: None,
            }],
            else_: vec![],
        }]);
    let k = Krate::new().module(Module::new("m").func(f));
    let r = verify_function(&k, "down", &VcConfig::default());
    assert!(r.status.is_verified(), "got {:?}", r.status);
}

/// Recursive proof fn whose measure does NOT decrease (calls itself on
/// `n + 1`): the lint passes (a measure exists and mentions a changing
/// param) but the solver rejects the decreases obligation.
#[test]
fn recursive_proof_fn_with_unsound_decreases_fails_in_solver() {
    let n = var("n", Ty::Int);
    let f = Function::new("up", Mode::Proof)
        .param("n", Ty::Int)
        .requires(n.ge(int(0)))
        .decreases(n.clone())
        .stmts(vec![Stmt::If {
            cond: n.gt(int(0)),
            then_: vec![Stmt::Call {
                func: "up".into(),
                args: vec![n.add(int(1))],
                dest: None,
            }],
            else_: vec![],
        }]);
    let k = Krate::new().module(Module::new("m").func(f));
    assert_eq!(lint_krate(&k).stats.errors, 0, "lint alone cannot see this");
    let r = verify_function(&k, "up", &VcConfig::default());
    assert!(
        matches!(r.status, Status::Failed(_)),
        "non-decreasing recursion must fail, got {:?}",
        r.status
    );
}

/// `proof fn nonneg(x: int) { assert(x >= 0 || x < 0) }` — arithmetic that
/// verifies in default mode but lies outside EPR.
fn int_module() -> Module {
    let x = var("x", Ty::Int);
    let f = Function::new("nonneg", Mode::Proof)
        .param("x", Ty::Int)
        .stmts(vec![Stmt::assert(x.ge(int(0)).or(x.lt(int(0))))]);
    Module::new("arith").func(f)
}

#[test]
fn arithmetic_in_epr_module_is_gated_without_a_solver() {
    let k = Krate::new().module(int_module().epr());
    let gated = Status::Failed(format!("lint: {}", lint_ids::EPR_FRAGMENT));
    let report = verify_krate(&k, &VcConfig::default(), 1);
    let single = verify_function(&k, "nonneg", &VcConfig::default());
    assert_eq!(report.functions.len(), 1);
    for f in [&report.functions[0], &single] {
        assert_eq!(f.status, gated);
        assert_eq!(f.query_bytes, 0, "no SMT query should have been encoded");
        assert_eq!(f.rlimit_spent(), 0, "no solver resources should be spent");
        assert!(f
            .diagnostics
            .iter()
            .all(|d| d.code == lint_ids::EPR_FRAGMENT && d.function == "nonneg"));
    }
    // Outside `epr_mode` the same function is ordinary arithmetic.
    let k = Krate::new().module(int_module());
    assert!(verify_krate(&k, &VcConfig::default(), 1).all_verified());
}

/// A module whose spec function `next: A -> A` closes a cycle in the sort
/// graph, with two proof functions that verify on their own.
fn cyclic_module() -> Module {
    let a = Ty::Abstract("A".into());
    let next = Function::new("next", Mode::Spec)
        .param("x", a.clone())
        .returns("r", a.clone());
    let x = var("x", a.clone());
    let refl = Function::new("refl", Mode::Proof)
        .param("x", a.clone())
        .stmts(vec![Stmt::assert(x.eq_e(x.clone()))]);
    let step = Function::new("step", Mode::Proof)
        .param("x", a.clone())
        .stmts(vec![Stmt::assert(
            call("next", vec![x.clone()], a.clone()).eq_e(call("next", vec![x], a)),
        )]);
    Module::new("cyc").func(next).func(refl).func(step)
}

#[test]
fn sort_graph_cycle_gates_every_function_of_an_epr_module() {
    let k = Krate::new().module(cyclic_module().epr());
    let lint = lint_krate(&k);
    assert_eq!(lint.stats.errors, 1, "{:?}", lint.diagnostics);
    assert_eq!(
        lint.diagnostics[0].function, "cyc",
        "a module-level finding"
    );
    let report = verify_krate(&k, &VcConfig::default(), 1);
    let names: Vec<&str> = report.functions.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["refl", "step"]);
    for f in &report.functions {
        let single = verify_function(&k, &f.name, &VcConfig::default());
        for r in [f, &single] {
            assert_eq!(r.status, Status::Failed("lint: epr-fragment".into()));
            assert_eq!(r.rlimit_spent(), 0);
        }
    }
}

#[test]
fn sort_graph_cycle_outside_epr_mode_is_only_a_note() {
    let k = Krate::new().module(cyclic_module());
    let lint = lint_krate(&k);
    assert_eq!(lint.stats.errors, 0);
    assert_eq!(lint.stats.notes, 1);
    assert_eq!(lint.diagnostics[0].code, lint_ids::ALTERNATION_CYCLE);
    assert!(verify_krate(&k, &VcConfig::default(), 1).all_verified());
}

#[test]
fn unknown_function_fails_instead_of_panicking() {
    let k = Krate::new().module(int_module());
    let r = verify_function(&k, "missing", &VcConfig::default());
    assert_eq!(
        r.status,
        Status::Failed("unknown function `missing`".into())
    );
    assert_eq!(r.rlimit_spent(), 0);
}
