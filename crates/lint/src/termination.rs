//! Pass 2: termination checking over the spec/proof call graph.
//!
//! Spec functions are pure *total* math functions and proof functions are
//! ghost lemmas — recursion in either is only sound with a well-founded
//! `decreases` measure. This pass builds the call graph from function
//! bodies, computes Tarjan SCCs, and:
//!
//! * errors ([`ids::MISSING_DECREASES`]) on every member of a recursive SCC
//!   that lacks a `decreases` clause — the function is rejected at lint
//!   time, before any solver runs;
//! * warns ([`ids::DECREASES_UNCHANGED`]) when a `decreases` expression
//!   mentions no parameter that actually changes across a self-recursive
//!   call (the measure cannot possibly decrease).

use std::collections::{BTreeMap, BTreeSet};

use veris_obs::{DiagItem, Diagnostic, Severity};
use veris_vir::expr::{free_vars, Expr, ExprX};
use veris_vir::module::{FnBody, Function, Krate, Mode};
use veris_vir::stmt::Stmt;

use crate::ids;

pub fn check(krate: &Krate) -> Vec<Diagnostic> {
    // Ghost functions (spec/proof) defined in the krate, in krate order.
    let ghost: BTreeSet<&str> = krate
        .all_functions()
        .filter(|(_, f)| matches!(f.mode, Mode::Spec | Mode::Proof))
        .map(|(_, f)| f.name.as_str())
        .collect();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut call_sites: BTreeMap<&str, Vec<(String, Vec<Expr>)>> = BTreeMap::new();
    for (_, f) in krate.all_functions() {
        if !ghost.contains(f.name.as_str()) {
            continue;
        }
        let mut calls = Vec::new();
        body_calls(&f.body, &mut calls);
        let entry = adj.entry(f.name.as_str()).or_default();
        for (callee, _) in &calls {
            if let Some(&c) = ghost.get(callee.as_str()) {
                entry.insert(c);
            }
        }
        call_sites.insert(f.name.as_str(), calls);
    }

    let mut diags = Vec::new();
    for scc in sccs(&adj) {
        let members: BTreeSet<&str> = scc.iter().map(|s| s.as_str()).collect();
        let recursive = scc.len() > 1
            || adj
                .get(scc[0].as_str())
                .map(|t| t.contains(scc[0].as_str()))
                .unwrap_or(false);
        if !recursive {
            continue;
        }
        let cycle = scc.join(" -> ");
        for name in &scc {
            let (_, f) = krate.find_function(name).expect("graph node exists");
            if f.decreases.is_none() {
                diags.push(
                    Diagnostic::new(
                        Severity::Error,
                        ids::MISSING_DECREASES,
                        name.clone(),
                        format!(
                            "recursive {} function has no decreases clause \
                             (recursion through: {})",
                            mode_str(f.mode),
                            cycle
                        ),
                    )
                    .with_items(vec![DiagItem::new("scc", cycle.clone())]),
                );
            } else {
                diags.extend(check_measure_varies(f, &call_sites, &members));
            }
        }
    }
    diags
}

fn mode_str(m: Mode) -> &'static str {
    match m {
        Mode::Spec => "spec",
        Mode::Proof => "proof",
        Mode::Exec => "exec",
    }
}

/// For a function with a `decreases` in a recursive SCC: across its
/// self-recursive calls, at least one parameter mentioned by the measure
/// must change syntactically. (Mutual recursion is skipped — parameter
/// correspondence between different functions is not defined.)
fn check_measure_varies(
    f: &Function,
    call_sites: &BTreeMap<&str, Vec<(String, Vec<Expr>)>>,
    _members: &BTreeSet<&str>,
) -> Vec<Diagnostic> {
    let dec = f.decreases.as_ref().expect("checked by caller");
    let self_calls: Vec<&(String, Vec<Expr>)> = call_sites
        .get(f.name.as_str())
        .into_iter()
        .flatten()
        .filter(|(callee, _)| *callee == f.name)
        .collect();
    if self_calls.is_empty() {
        return vec![];
    }
    let dec_vars: BTreeSet<String> = free_vars(dec).into_iter().map(|(n, _)| n).collect();
    let mut measured_param_changes = false;
    for (_, args) in &self_calls {
        for (i, p) in f.params.iter().enumerate() {
            if !dec_vars.contains(&p.name) {
                continue;
            }
            let unchanged = args
                .get(i)
                .map(|a| matches!(&**a, ExprX::Var(n, _) if *n == p.name))
                .unwrap_or(true);
            if !unchanged {
                measured_param_changes = true;
            }
        }
    }
    if measured_param_changes {
        return vec![];
    }
    vec![Diagnostic::new(
        Severity::Warning,
        ids::DECREASES_UNCHANGED,
        f.name.clone(),
        "decreases measure mentions no parameter that changes across the recursive call".to_owned(),
    )
    .with_items(vec![DiagItem::new("decreases", format!("{dec}"))])]
}

/// All calls (name, args) made by a function body, including nested
/// statement and expression positions.
pub(crate) fn body_calls(body: &FnBody, out: &mut Vec<(String, Vec<Expr>)>) {
    match body {
        FnBody::SpecExpr(e) => expr_calls(e, out),
        FnBody::Stmts(ss) => stmts_calls(ss, out),
        FnBody::Abstract => {}
    }
}

pub(crate) fn expr_calls(e: &Expr, out: &mut Vec<(String, Vec<Expr>)>) {
    if let ExprX::Call(name, args, _) = &**e {
        out.push((name.clone(), args.clone()));
    }
    for c in veris_vir::expr::children(e) {
        expr_calls(&c, out);
    }
}

fn stmts_calls(stmts: &[Stmt], out: &mut Vec<(String, Vec<Expr>)>) {
    for s in stmts {
        match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    expr_calls(e, out);
                }
            }
            Stmt::Assign { value, .. } => expr_calls(value, out),
            Stmt::Assert { expr, .. } => expr_calls(expr, out),
            Stmt::Assume(e) => expr_calls(e, out),
            Stmt::If { cond, then_, else_ } => {
                expr_calls(cond, out);
                stmts_calls(then_, out);
                stmts_calls(else_, out);
            }
            Stmt::While {
                cond,
                invariants,
                decreases,
                body,
            } => {
                expr_calls(cond, out);
                for i in invariants {
                    expr_calls(i, out);
                }
                if let Some(d) = decreases {
                    expr_calls(d, out);
                }
                stmts_calls(body, out);
            }
            Stmt::Call { func, args, .. } => {
                out.push((func.clone(), args.clone()));
                for a in args {
                    expr_calls(a, out);
                }
            }
            Stmt::Return(Some(e)) => expr_calls(e, out),
            Stmt::Return(None) => {}
        }
    }
}

/// Tarjan SCCs over the sorted adjacency map; each component is sorted.
fn sccs<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<String>> {
    struct State<'a> {
        adj: &'a BTreeMap<&'a str, BTreeSet<&'a str>>,
        index: BTreeMap<&'a str, usize>,
        low: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        out: Vec<Vec<String>>,
    }
    fn connect<'a>(v: &'a str, st: &mut State<'a>) {
        st.index.insert(v, st.next);
        st.low.insert(v, st.next);
        st.next += 1;
        st.stack.push(v);
        st.on_stack.insert(v);
        if let Some(tos) = st.adj.get(v) {
            for &w in tos {
                if !st.index.contains_key(w) {
                    connect(w, st);
                    let lw = st.low[w];
                    let lv = st.low[v];
                    st.low.insert(v, lv.min(lw));
                } else if st.on_stack.contains(w) {
                    let iw = st.index[w];
                    let lv = st.low[v];
                    st.low.insert(v, lv.min(iw));
                }
            }
        }
        if st.low[v] == st.index[v] {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(w);
                comp.push(w.to_owned());
                if w == v {
                    break;
                }
            }
            comp.sort();
            st.out.push(comp);
        }
    }
    let mut st = State {
        adj,
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if !st.index.contains_key(n) {
            connect(n, &mut st);
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{call, int, var, ExprExt};
    use veris_vir::module::{Function, Module};
    use veris_vir::ty::Ty;

    fn krate_of(fns: Vec<Function>) -> Krate {
        let mut m = Module::new("m");
        for f in fns {
            m = m.func(f);
        }
        Krate::new().module(m)
    }

    #[test]
    fn self_recursion_without_decreases_errors() {
        let x = var("x", Ty::Int);
        let f = Function::new("f", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(call("f", vec![x.sub(int(1))], Ty::Int));
        let diags = check(&krate_of(vec![f]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ids::MISSING_DECREASES);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].function, "f");
    }

    #[test]
    fn mutual_recursion_flags_all_members_without_decreases() {
        // even calls odd calls even; neither has decreases.
        let x = var("x", Ty::Int);
        let even = Function::new("is_even", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Bool)
            .spec_body(veris_vir::expr::ite(
                x.eq_e(int(0)),
                veris_vir::expr::tru(),
                call("is_odd", vec![x.sub(int(1))], Ty::Bool),
            ));
        let odd = Function::new("is_odd", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Bool)
            .spec_body(veris_vir::expr::ite(
                x.eq_e(int(0)),
                veris_vir::expr::fals(),
                call("is_even", vec![x.sub(int(1))], Ty::Bool),
            ));
        let diags = check(&krate_of(vec![even, odd]));
        let names: Vec<&str> = diags.iter().map(|d| d.function.as_str()).collect();
        assert_eq!(names, vec!["is_even", "is_odd"]);
        assert!(diags.iter().all(|d| d.code == ids::MISSING_DECREASES));
        // The SCC cycle is named in each diagnostic.
        assert!(diags[0]
            .items
            .iter()
            .any(|i| i.label == "scc" && i.value == "is_even -> is_odd"));
    }

    #[test]
    fn decreases_satisfies_the_checker() {
        let x = var("x", Ty::Int);
        let f = Function::new("f", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .decreases(x.clone())
            .spec_body(veris_vir::expr::ite(
                x.le(int(0)),
                int(0),
                call("f", vec![x.sub(int(1))], Ty::Int),
            ));
        assert!(check(&krate_of(vec![f])).is_empty());
    }

    #[test]
    fn unchanging_measured_param_warns() {
        // decreases y, but the recursive call only changes x.
        let x = var("x", Ty::Int);
        let y = var("y", Ty::Int);
        let f = Function::new("f", Mode::Spec)
            .param("x", Ty::Int)
            .param("y", Ty::Int)
            .returns("r", Ty::Int)
            .decreases(y.clone())
            .spec_body(veris_vir::expr::ite(
                x.le(int(0)),
                int(0),
                call("f", vec![x.sub(int(1)), y.clone()], Ty::Int),
            ));
        let diags = check(&krate_of(vec![f]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ids::DECREASES_UNCHANGED);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn proof_fn_recursion_via_stmts_is_seen() {
        let n = var("n", Ty::Int);
        let lemma = Function::new("lemma", Mode::Proof)
            .param("n", Ty::Int)
            .stmts(vec![Stmt::If {
                cond: n.gt(int(0)),
                then_: vec![Stmt::Call {
                    func: "lemma".into(),
                    args: vec![n.sub(int(1))],
                    dest: None,
                }],
                else_: vec![],
            }]);
        let diags = check(&krate_of(vec![lemma]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ids::MISSING_DECREASES);
        assert_eq!(diags[0].function, "lemma");
    }

    #[test]
    fn non_recursive_chain_is_clean() {
        let x = var("x", Ty::Int);
        let g = Function::new("g", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(x.add(int(1)));
        let f = Function::new("f", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(call("g", vec![x.clone()], Ty::Int));
        assert!(check(&krate_of(vec![f, g])).is_empty());
    }
}
