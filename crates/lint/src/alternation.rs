//! Pass 3: the quantifier-alternation sort graph and the EPR fragment check
//! (paper §3.2).
//!
//! One walk per module collects the alternation edges: ∃-under-∀ skolem
//! edges (after polarity normalization) and function argument-sort →
//! result-sort edges. A cycle means skolemization plus function symbols can
//! generate fresh terms of a sort forever, so saturation-style reasoning
//! (and, in practice, e-matching over those sorts) has no termination
//! guarantee. Outside `epr_mode` a cycle is a note-severity advisory.
//!
//! In an `epr_mode` module the same walk checks that every obligation lies
//! in EPR: booleans, quantifiers, equality and uninterpreted functions over
//! abstract sorts and datatypes — no arithmetic, integer literals, other
//! types or operators, or defined callees with other signatures. Each
//! violation, and a cycle (an unbounded Herbrand universe), is an
//! error-severity [`ids::EPR_FRAGMENT`] finding attached to its function,
//! or to the module for an axiom or a cycle. The traversal is deterministic
//! (sorted sets, sorted DFS).

use std::collections::BTreeSet;
use std::fmt;

use veris_obs::{DiagItem, Diagnostic, Severity};
use veris_vir::expr::{children, BinOp, Expr, ExprX, UnOp};
use veris_vir::module::{FnBody, Krate, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;

use crate::ids;

/// Sort-graph node: an abstract sort or a datatype (Bool is never a node).
type SortNode = String;
type Edges = BTreeSet<(SortNode, SortNode)>;

fn sort_node(ty: &Ty) -> Option<SortNode> {
    match ty {
        Ty::Abstract(n) => Some(n.clone()),
        Ty::Datatype(n) => Some(format!("dt:{n}")),
        _ => None,
    }
}

pub fn check(krate: &Krate) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for m in &krate.modules {
        let mut w = Walker {
            krate,
            epr: m.epr_mode,
            edges: Edges::new(),
            violations: Vec::new(),
        };
        w.module(m, &mut diags);
        let Some(cycle) = find_cycle(&w.edges) else {
            continue;
        };
        let cycle = cycle.join(" -> ");
        let (severity, code, message) = if m.epr_mode {
            let msg = format!("quantifier-alternation graph has a cycle: {cycle}");
            (Severity::Error, ids::EPR_FRAGMENT, msg)
        } else {
            let msg = format!(
                "quantifier-alternation sort graph has a cycle ({cycle}); \
                 instantiation over these sorts has no termination guarantee"
            );
            (Severity::Note, ids::ALTERNATION_CYCLE, msg)
        };
        let items = vec![
            DiagItem::new("cycle", cycle),
            DiagItem::new("edges", w.edges.len().to_string()),
        ];
        diags.push(Diagnostic::new(severity, code, m.name.clone(), message).with_items(items));
    }
    diags
}

/// One module's walk: the alternation edges, plus — in `epr_mode` — the
/// fragment violations of the function or axiom being walked.
struct Walker<'k> {
    krate: &'k Krate,
    /// Report fragment violations (the module is in `epr_mode`).
    epr: bool,
    edges: Edges,
    violations: Vec<String>,
}

impl Walker<'_> {
    /// Walk the module's functions (signatures, contracts, bodies) and
    /// axioms, pushing each one's fragment violations onto `diags`.
    fn module(&mut self, m: &Module, diags: &mut Vec<Diagnostic>) {
        for f in &m.functions {
            for p in &f.params {
                self.check_ty(&p.ty);
            }
            if let Some((_, rt)) = &f.ret {
                self.check_ty(rt);
                // Function-sort edges from the signature.
                if let Some(rn) = sort_node(rt) {
                    for p in &f.params {
                        if let Some(pn) = sort_node(&p.ty) {
                            self.edges.insert((pn, rn.clone()));
                        }
                    }
                }
            }
            for e in &f.requires {
                self.expr(e, false, &[]); // hypothesis position
            }
            for e in &f.ensures {
                self.expr(e, true, &[]);
            }
            match &f.body {
                FnBody::SpecExpr(b) if matches!(f.ret, Some((_, Ty::Bool))) => self.both(b, &[]),
                FnBody::SpecExpr(b) => self.term(b, &[]),
                FnBody::Stmts(ss) => self.stmts(ss),
                FnBody::Abstract => {}
            }
            self.take_violations(&f.name, "", diags);
        }
        for (i, a) in m.axioms.iter().enumerate() {
            self.expr(a, true, &[]);
            self.take_violations(&m.name, &format!("axiom#{i}: "), diags);
        }
    }

    fn take_violations(&mut self, function: &str, prefix: &str, diags: &mut Vec<Diagnostic>) {
        diags.extend(self.violations.drain(..).map(|msg| {
            Diagnostic::new(
                Severity::Error,
                ids::EPR_FRAGMENT,
                function,
                format!("{prefix}{msg}"),
            )
        }));
    }

    fn violation(&mut self, msg: fmt::Arguments) {
        if self.epr {
            let msg = msg.to_string();
            if !self.violations.contains(&msg) {
                self.violations.push(msg);
            }
        }
    }

    fn check_ty(&mut self, ty: &Ty) {
        if !matches!(ty, Ty::Bool | Ty::Abstract(_) | Ty::Datatype(_)) {
            self.violation(format_args!("type `{ty}` is outside EPR"));
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assert { expr, .. } => self.expr(expr, true, &[]),
                Stmt::Assume(e) => self.expr(e, false, &[]),
                Stmt::Decl { ty, init, .. } => {
                    self.check_ty(ty);
                    if let Some(e) = init {
                        self.term(e, &[]);
                    }
                }
                Stmt::Assign { value, .. } => self.term(value, &[]),
                Stmt::If { cond, then_, else_ } => {
                    self.both(cond, &[]);
                    self.stmts(then_);
                    self.stmts(else_);
                }
                Stmt::While {
                    cond,
                    invariants,
                    decreases,
                    body,
                } => {
                    self.both(cond, &[]);
                    for i in invariants {
                        self.both(i, &[]);
                    }
                    // The measure contributes edges; the fragment check
                    // exempts it.
                    if let Some(d) = decreases {
                        let epr = std::mem::replace(&mut self.epr, false);
                        self.term(d, &[]);
                        self.epr = epr;
                    }
                    self.stmts(body);
                }
                Stmt::Call { args, .. } => {
                    for a in args {
                        self.term(a, &[]);
                    }
                }
                Stmt::Return(Some(e)) => self.term(e, &[]),
                Stmt::Return(None) => {}
            }
        }
    }

    /// A formula occurring in both polarities.
    fn both(&mut self, e: &Expr, univs: &[SortNode]) {
        self.expr(e, true, univs);
        self.expr(e, false, univs);
    }

    /// Walk a formula. `pol=true` is positive (goal) position; `univs`
    /// holds the sorts universally quantified in scope after polarity
    /// normalization.
    fn expr(&mut self, e: &Expr, pol: bool, univs: &[SortNode]) {
        match &**e {
            ExprX::BoolLit(_) => {}
            ExprX::Var(_, t) | ExprX::Old(_, t) => self.check_ty(t),
            ExprX::Unary(UnOp::Not, a) => self.expr(a, !pol, univs),
            ExprX::Binary(BinOp::And | BinOp::Or, a, b) => {
                self.expr(a, pol, univs);
                self.expr(b, pol, univs);
            }
            ExprX::Binary(BinOp::Implies, a, b) => {
                self.expr(a, !pol, univs);
                self.expr(b, pol, univs);
            }
            ExprX::Binary(BinOp::Iff, a, b) => {
                self.both(a, univs);
                self.both(b, univs);
            }
            ExprX::Binary(BinOp::Eq | BinOp::Ne, a, b) => {
                self.term(a, univs);
                self.term(b, univs);
            }
            ExprX::Ite(c, t, f) => {
                self.both(c, univs);
                self.expr(t, pol, univs);
                self.expr(f, pol, univs);
            }
            // A boolean-valued relation application.
            ExprX::Call(..) => self.term(e, univs),
            ExprX::IsVariant(_, _, a) => self.term(a, univs),
            ExprX::Quant {
                forall, vars, body, ..
            } => {
                let effective_forall = *forall == pol;
                let mut inner = univs.to_vec();
                for (_, t) in vars {
                    self.check_ty(t);
                    if let Some(n) = sort_node(t) {
                        if effective_forall {
                            inner.push(n);
                        } else {
                            // Existential under universals: skolem edges.
                            for u in univs {
                                self.edges.insert((u.clone(), n.clone()));
                            }
                        }
                    }
                }
                self.expr(body, pol, &inner);
            }
            _ => self.outside(e, univs),
        }
    }

    /// Walk a term in argument position; a compound formula there occurs
    /// in both polarities.
    fn term(&mut self, e: &Expr, univs: &[SortNode]) {
        match &**e {
            ExprX::Var(_, t) | ExprX::Old(_, t) => self.check_ty(t),
            ExprX::BoolLit(_) => {}
            ExprX::Call(name, args, ret) => {
                // Function edges: each argument sort -> result sort.
                if let Some(rn) = sort_node(ret) {
                    for a in args {
                        if let Some(an) = sort_node(&a.ty()) {
                            self.edges.insert((an, rn.clone()));
                        }
                    }
                }
                self.check_ty(ret);
                for a in args {
                    self.term(a, univs);
                }
                // A defined callee must have an EPR signature; its body is
                // checked with its own module.
                if self.epr {
                    if let Some((_, f)) = self.krate.find_function(name) {
                        if matches!(f.body, FnBody::SpecExpr(_)) {
                            for p in &f.params {
                                self.check_ty(&p.ty);
                            }
                        }
                    }
                }
            }
            ExprX::Field(_, _, _, a, t) => {
                self.check_ty(t);
                self.term(a, univs);
            }
            ExprX::Ctor(_, _, fields) => {
                for (_, a) in fields {
                    self.term(a, univs);
                }
            }
            ExprX::Ite(c, t, f) => {
                self.both(c, univs);
                self.term(t, univs);
                self.term(f, univs);
            }
            _ if e.ty() == Ty::Bool => self.both(e, univs),
            _ => self.outside(e, univs),
        }
    }

    /// A construct outside EPR: a violation in `epr_mode`; its operands
    /// still contribute edges.
    fn outside(&mut self, e: &Expr, univs: &[SortNode]) {
        match &**e {
            ExprX::IntLit(..) => self.violation(format_args!("integer literal outside EPR")),
            ExprX::Unary(UnOp::Neg, _) => {
                self.violation(format_args!("arithmetic negation outside EPR"))
            }
            ExprX::Binary(op, ..) => self.violation(format_args!("operator {op:?} outside EPR")),
            _ => self.violation(format_args!("construct outside EPR: {e}")),
        }
        for c in children(e) {
            self.term(&c, univs);
        }
    }
}

/// Deterministic cycle search: depth-first from each node in
/// lexicographic order, visiting successors in lexicographic order (the
/// order of the sorted edge set).
fn find_cycle(edges: &Edges) -> Option<Vec<SortNode>> {
    fn dfs<'a>(
        n: &'a str,
        edges: &'a Edges,
        visited: &mut BTreeSet<&'a str>,
        path: &mut Vec<&'a str>,
    ) -> Option<Vec<SortNode>> {
        if let Some(i) = path.iter().position(|&p| p == n) {
            let mut cycle: Vec<SortNode> = path[i..].iter().map(|s| s.to_string()).collect();
            cycle.push(n.to_owned());
            return Some(cycle);
        }
        if !visited.insert(n) {
            return None;
        }
        path.push(n);
        let succs = edges.range((n.to_owned(), String::new())..);
        for (_, m) in succs.take_while(|(a, _)| a == n) {
            if let Some(c) = dfs(m, edges, visited, path) {
                return Some(c);
            }
        }
        path.pop();
        None
    }
    let mut visited = BTreeSet::new();
    edges
        .iter()
        .find_map(|(a, _)| dfs(a, edges, &mut visited, &mut Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{call, exists, forall, int, var, ExprExt};
    use veris_vir::module::{Function, Mode};

    /// The `epr-fragment` findings for a krate.
    fn fragment_errors(k: &Krate) -> Vec<Diagnostic> {
        let diags: Vec<Diagnostic> = check(k)
            .into_iter()
            .filter(|d| d.code == ids::EPR_FRAGMENT)
            .collect();
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        diags
    }

    /// `owns: Node x Msg -> bool` and the axiom
    /// `forall n: Node. exists m: Msg. owns(n, m)` (edge Node -> Msg), plus
    /// `sender: Msg -> Node` (closing a cycle) when `back_edge`.
    fn ownership_module(back_edge: bool) -> Module {
        let node = Ty::Abstract("Node".into());
        let msg = Ty::Abstract("Msg".into());
        let owns = Function::new("owns", Mode::Spec)
            .param("n", node.clone())
            .param("m", msg.clone())
            .returns("r", Ty::Bool);
        let body = exists(
            vec![("m", msg.clone())],
            call(
                "owns",
                vec![var("n", node.clone()), var("m", msg.clone())],
                Ty::Bool,
            ),
            "ex_m",
        );
        let mut m =
            Module::new("m")
                .func(owns)
                .axiom(forall(vec![("n", node.clone())], body, "all_own"));
        if back_edge {
            m = m.func(
                Function::new("sender", Mode::Spec)
                    .param("m", msg)
                    .returns("r", node),
            );
        }
        m
    }

    #[test]
    fn forall_exists_plus_function_back_edge_cycles() {
        let k = Krate::new().module(ownership_module(true));
        let diags = check(&k);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ids::ALTERNATION_CYCLE);
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].items.iter().any(|i| i.label == "cycle"));
    }

    #[test]
    fn acyclic_alternation_is_silent_even_outside_epr_mode() {
        let k = Krate::new().module(ownership_module(false));
        assert!(check(&k).is_empty());
    }

    #[test]
    fn arithmetic_module_contributes_no_edges() {
        let x = var("x", Ty::Int);
        let f = Function::new("f", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(x.add(int(1)));
        let m = Module::new("m").func(f);
        let k = Krate::new().module(m);
        assert!(check(&k).is_empty());
    }

    #[test]
    fn pure_relational_module_passes() {
        // forall m1 m2. sender(m1) = sender(m2) && epoch(m1) = epoch(m2)
        //   ==> m1 = m2  — the paper's example.
        let msg = Ty::Abstract("Msg".into());
        let node = Ty::Abstract("Node".into());
        let epoch = Ty::Abstract("Epoch".into());
        let sender = Function::new("sender", Mode::Spec)
            .param("m", msg.clone())
            .returns("r", node.clone());
        let epoch_of = Function::new("epoch_of", Mode::Spec)
            .param("m", msg.clone())
            .returns("r", epoch.clone());
        let m1 = var("m1", msg.clone());
        let m2 = var("m2", msg.clone());
        let body = call("sender", vec![m1.clone()], node.clone())
            .eq_e(call("sender", vec![m2.clone()], node.clone()))
            .and(call("epoch_of", vec![m1.clone()], epoch.clone()).eq_e(call(
                "epoch_of",
                vec![m2.clone()],
                epoch.clone(),
            )))
            .implies(m1.eq_e(m2.clone()));
        let ax = forall(vec![("m1", msg.clone()), ("m2", msg.clone())], body, "uniq");
        let m = Module::new("proto")
            .func(sender)
            .func(epoch_of)
            .axiom(ax)
            .epr();
        let k = Krate::new().module(m);
        assert!(check(&k).is_empty());
    }

    #[test]
    fn arithmetic_rejected() {
        let x = var("x", Ty::Int);
        let f = Function::new("f", Mode::Proof)
            .param("x", Ty::Int)
            .stmts(vec![Stmt::assert(x.ge(int(0)))]);
        let k = Krate::new().module(Module::new("m").func(f).epr());
        let errs = fragment_errors(&k);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|e| e.function == "f"), "{errs:?}");
    }

    #[test]
    fn cyclic_function_sorts_rejected() {
        // f: A -> A creates a self-loop.
        let a = Ty::Abstract("A".into());
        let f = Function::new("f", Mode::Spec)
            .param("x", a.clone())
            .returns("r", a.clone());
        let k = Krate::new().module(Module::new("m").func(f).epr());
        let errs = fragment_errors(&k);
        assert!(errs.iter().any(|e| e.message.contains("cycle")), "{errs:?}");
        // The cycle is a module-level finding, and replaces the note.
        assert!(errs.iter().all(|e| e.function == "m"), "{errs:?}");
        assert_eq!(check(&k).len(), errs.len());
    }

    #[test]
    fn forall_exists_alternation_edge() {
        let k = Krate::new().module(ownership_module(true).epr());
        let errs = fragment_errors(&k);
        assert!(errs.iter().any(|e| e.message.contains("cycle")), "{errs:?}");
    }

    #[test]
    fn acyclic_alternation_accepted() {
        let k = Krate::new().module(ownership_module(false).epr());
        assert!(check(&k).is_empty());
    }
}
