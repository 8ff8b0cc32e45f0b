//! Weakest-precondition calculus over VIR statements.
//!
//! Produces one VIR-level verification condition per function, plus a list
//! of side obligations for `assert ... by(prover)` statements (which, per
//! the paper's §3.3, are discharged *in isolation* by custom automation and
//! assumed in the main query).
//!
//! Executable code additionally generates well-formedness conditions:
//! machine-integer overflow, division by zero, shift bounds, and
//! wrong-variant field accesses — the trap conditions of
//! [`veris_vir::interp`].

use std::collections::HashMap;

use veris_vir::expr::{
    and_all, binary, int, lit, old as old_expr, tru, var, BinOp, Expr, ExprExt, ExprX,
};
use veris_vir::module::{FnBody, Function, Krate, Mode};
use veris_vir::stmt::{Prover, Stmt};
use veris_vir::ty::Ty;

/// A custom-prover obligation extracted from `assert ... by(...)`.
#[derive(Clone, Debug)]
pub struct SideObligation {
    pub expr: Expr,
    pub prover: Prover,
    pub label: String,
}

/// An assignment event, used by baseline styles to synthesize heap/permission
/// noise proportional to the number of memory updates.
#[derive(Clone, Debug)]
pub struct AssignEvent {
    pub var: String,
}

/// Output of WP generation for one function.
#[derive(Clone, Debug)]
pub struct WpResult {
    /// Top-level hypotheses with provenance labels (parameter type ranges,
    /// `requires` clauses), in assertion order.
    pub hypotheses: Vec<(String, Expr)>,
    /// The obligation under the hypotheses.
    pub goal: Expr,
    /// Loop-invariant provenance markers: `(marker_var, label)`. Each marker
    /// is a free boolean variable guarding one invariant's *assumption*
    /// occurrences inside `goal` (as `marker ==> inv`); asserting the marker
    /// true recovers the original VC, and an unsat core that omits the
    /// marker proves the invariant assumption was never used.
    pub inv_markers: Vec<(String, String)>,
    pub side_obligations: Vec<SideObligation>,
    pub assigns: Vec<AssignEvent>,
}

pub struct WpCtx<'a> {
    krate: &'a Krate,
    fresh: u32,
    exec: bool,
    /// Name and termination measure of the function being verified, for
    /// the self-recursive-call decrease check.
    fn_name: String,
    fn_decreases: Option<Expr>,
    side_obligations: Vec<SideObligation>,
    assigns: Vec<AssignEvent>,
    inv_markers: Vec<(String, String)>,
}

impl<'a> WpCtx<'a> {
    pub fn new(krate: &'a Krate) -> WpCtx<'a> {
        WpCtx {
            krate,
            fresh: 0,
            exec: false,
            fn_name: String::new(),
            fn_decreases: None,
            side_obligations: Vec::new(),
            assigns: Vec::new(),
            inv_markers: Vec::new(),
        }
    }

    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}!{}", self.fresh)
    }

    /// Termination-measure plumbing shared by the loop rule and the
    /// self-recursive-call rule: snapshot `measure_now` into a fresh
    /// `decreases!n` variable `d0`. Returns `(pre, post)` where `pre` pins
    /// the snapshot and its non-negativity (`measure_now == d0 &&
    /// measure_now >= 0`) and `post` demands the strict drop
    /// (`measure_next < d0`).
    fn decreases_obligation(&mut self, measure_now: &Expr, measure_next: &Expr) -> (Expr, Expr) {
        let d0 = var(&self.fresh_name("decreases"), Ty::Int);
        (
            measure_now.eq_e(d0.clone()).and(measure_now.ge(int(0))),
            measure_next.lt(d0),
        )
    }

    /// Generate the VC for a function.
    pub fn function_vc(mut self, f: &Function) -> WpResult {
        self.exec = f.mode == Mode::Exec;
        self.fn_name = f.name.clone();
        self.fn_decreases = f.decreases.clone();
        // Build the return-postcondition: conjunction of ensures.
        let ret_post = and_all(f.ensures.clone());
        let vc = match &f.body {
            FnBody::Stmts(stmts) => {
                // Fall-through end of body also must satisfy ensures (for
                // functions without a return value, or implicit returns).
                let fallthrough = if f.ret.is_some() {
                    // A function with a return value must end in Return;
                    // falling through is vacuously fine (no value to bind).
                    tru()
                } else {
                    ret_post.clone()
                };
                self.wp_stmts(stmts, 0, &fallthrough, &ret_post)
            }
            FnBody::SpecExpr(body) => {
                // Spec function with contract: body meets ensures.
                match &f.ret {
                    Some((rn, rt)) => {
                        let mut m = HashMap::new();
                        m.insert(rn.clone(), body.clone());
                        let _ = rt;
                        veris_vir::expr::subst_vars(&ret_post, &m)
                    }
                    None => ret_post.clone(),
                }
            }
            FnBody::Abstract => tru(),
        };
        // Hypotheses: requires + parameter type ranges, each carrying a
        // provenance label for unsat-core reporting.
        let mut hyps: Vec<(String, Expr)> = Vec::new();
        for p in &f.params {
            if let Some(r) = range_condition(&var(&p.name, p.ty.clone()), &p.ty) {
                hyps.push((format!("param-range:{}", p.name), r));
            }
        }
        for (i, r) in f.requires.iter().enumerate() {
            hyps.push((format!("requires#{i}: {}", clip(&r.to_string())), r.clone()));
        }
        // `old(x)` at function entry is just `x`.
        let goal = resolve_old(&vc);
        let hyps: Vec<(String, Expr)> = hyps
            .into_iter()
            .map(|(l, h)| (l, resolve_old(&h)))
            .collect();
        WpResult {
            hypotheses: hyps,
            goal,
            inv_markers: self.inv_markers,
            side_obligations: self.side_obligations,
            assigns: self.assigns,
        }
    }

    fn wp_stmts(&mut self, stmts: &[Stmt], k: usize, post: &Expr, ret_post: &Expr) -> Expr {
        if k >= stmts.len() {
            return post.clone();
        }
        match &stmts[k] {
            Stmt::Decl { name, ty, init, .. } => {
                let rest = self.wp_stmts(stmts, k + 1, post, ret_post);
                match init {
                    Some(e) => {
                        let fit = if e.ty() != *ty {
                            range_condition(e, ty).unwrap_or_else(tru)
                        } else {
                            tru()
                        };
                        let mut m = HashMap::new();
                        m.insert(name.clone(), e.clone());
                        let body = veris_vir::expr::subst_vars(&rest, &m);
                        self.wf(e).and(fit).and(body)
                    }
                    None => {
                        let h = var(&self.fresh_name(name), ty.clone());
                        let mut m = HashMap::new();
                        m.insert(name.clone(), h.clone());
                        let body = veris_vir::expr::subst_vars(&rest, &m);
                        match range_condition(&h, ty) {
                            Some(r) => r.implies(body),
                            None => body,
                        }
                    }
                }
            }
            Stmt::Assign { name, value } => {
                self.assigns.push(AssignEvent { var: name.clone() });
                let rest = self.wp_stmts(stmts, k + 1, post, ret_post);
                let mut m = HashMap::new();
                m.insert(name.clone(), value.clone());
                let body = veris_vir::expr::subst_vars(&rest, &m);
                self.wf(value).and(body)
            }
            Stmt::Assert { expr, by, label } => {
                let rest = self.wp_stmts(stmts, k + 1, post, ret_post);
                match by {
                    Prover::Default => {
                        // Check it here, then assume it for the rest.
                        expr.and(expr.implies(rest))
                    }
                    _ => {
                        self.side_obligations.push(SideObligation {
                            expr: expr.clone(),
                            prover: *by,
                            label: if label.is_empty() {
                                format!("assert by {by:?}")
                            } else {
                                label.clone()
                            },
                        });
                        expr.implies(rest)
                    }
                }
            }
            Stmt::Assume(e) => {
                let rest = self.wp_stmts(stmts, k + 1, post, ret_post);
                e.implies(rest)
            }
            Stmt::If { cond, then_, else_ } => {
                let cont = self.wp_stmts(stmts, k + 1, post, ret_post);
                let wp_then = self.wp_stmts(then_, 0, &cont, ret_post);
                let wp_else = self.wp_stmts(else_, 0, &cont, ret_post);
                let wfc = self.wf(cond);
                wfc.and(cond.implies(wp_then))
                    .and(cond.not().implies(wp_else))
            }
            Stmt::While {
                cond,
                invariants,
                decreases,
                body,
            } => {
                let cont = self.wp_stmts(stmts, k + 1, post, ret_post);
                let inv = and_all(invariants.clone());
                // Entry: invariant holds now, and the condition is
                // well-formed to evaluate.
                let entry = self.wf(cond).and(inv.clone());
                // Havoc modified variables.
                let modified = Stmt::assigned_vars(body);
                let mut havoc: HashMap<String, Expr> = HashMap::new();
                for v in &modified {
                    // We need the variable's type; find it from any use in
                    // the invariant/cond/body by probing the expressions.
                    if let Some(ty) = find_var_type(v, invariants, cond, body) {
                        havoc.insert(v.clone(), var(&self.fresh_name(v), ty));
                    }
                }
                let inv_h = veris_vir::expr::subst_vars(&inv, &havoc);
                // Assumption occurrences of each invariant are guarded by a
                // fresh marker variable (`marker ==> inv`). The verifier
                // asserts every marker true (recovering the original VC) as
                // a *labeled* hypothesis, so the unsat core tells us which
                // invariant assumptions the proof actually used.
                let loop_tag = self.fresh_name("loop");
                let mut guarded: Vec<Expr> = Vec::new();
                for (i, iv) in invariants.iter().enumerate() {
                    let iv_h = veris_vir::expr::subst_vars(iv, &havoc);
                    let marker = format!("{loop_tag}#inv{i}");
                    self.inv_markers.push((
                        marker.clone(),
                        format!("invariant#{i}@{loop_tag}: {}", clip(&iv.to_string())),
                    ));
                    guarded.push(var(&marker, Ty::Bool).implies(iv_h));
                }
                let inv_h_asm = and_all(guarded);
                let cond_h = veris_vir::expr::subst_vars(cond, &havoc);
                let body_h: Vec<Stmt> = body.iter().map(|s| subst_stmt(s, &havoc)).collect();
                // Ranges of havocked machine-typed vars are assumed.
                let mut havoc_ranges = Vec::new();
                for (v, h) in &havoc {
                    if let Some(ty) = find_var_type(v, invariants, cond, body) {
                        if let Some(r) = range_condition(h, &ty) {
                            havoc_ranges.push(r);
                        }
                    }
                }
                let havoc_range = and_all(havoc_ranges);
                // Termination measure: snapshot the havocked measure; after
                // the body, the measure re-evaluated in the new state must
                // drop below the snapshot.
                let (dec_pre, dec_post) = match decreases {
                    Some(d) => {
                        let d_h = veris_vir::expr::subst_vars(d, &havoc);
                        self.decreases_obligation(&d_h, d)
                    }
                    None => (tru(), tru()),
                };
                // Preservation: body re-establishes inv (+ decrease), in the
                // havocked state. `dec_post` mentions loop vars by their
                // original names, which WP of body_h will... body_h uses
                // havocked names, so express the preserved post over the
                // havocked names too.
                let post_loop = {
                    let dp = veris_vir::expr::subst_vars(&dec_post, &havoc);
                    inv_h.and(dp)
                };
                let wp_body = self.wp_stmts(&body_h, 0, &post_loop, ret_post);
                let preserve = havoc_range
                    .clone()
                    .and(inv_h_asm.clone())
                    .and(cond_h.clone())
                    .and(dec_pre)
                    .implies(self.wf(&cond_h).and(wp_body));
                // Exit: invariant and negated condition give the rest.
                let cont_h = veris_vir::expr::subst_vars(&cont, &havoc);
                let exit = havoc_range.and(inv_h_asm).and(cond_h.not()).implies(cont_h);
                entry.and(preserve).and(exit)
            }
            Stmt::Call { func, args, dest } => {
                let rest = self.wp_stmts(stmts, k + 1, post, ret_post);
                let (_, callee) = self
                    .krate
                    .find_function(func)
                    .unwrap_or_else(|| panic!("call to unknown function `{func}`"));
                let callee = callee.clone();
                // Requires instantiated at the arguments.
                let mut arg_map: HashMap<String, Expr> = HashMap::new();
                for (p, a) in callee.params.iter().zip(args.iter()) {
                    arg_map.insert(p.name.clone(), a.clone());
                }
                let req = and_all(
                    callee
                        .requires
                        .iter()
                        .map(|r| veris_vir::expr::subst_vars(r, &arg_map))
                        .collect(),
                );
                // Self-recursive call with a termination measure: the
                // measure re-evaluated at the arguments must drop strictly
                // below its current value (same plumbing as the loop rule).
                let dec_call = match (&self.fn_decreases, func == &self.fn_name) {
                    (Some(d), true) => {
                        let d = d.clone();
                        let callee_m = veris_vir::expr::subst_vars(&d, &arg_map);
                        let (pre, post) = self.decreases_obligation(&d, &callee_m);
                        pre.implies(post)
                    }
                    _ => tru(),
                };
                // Post-state: fresh return value and fresh values for &mut
                // arguments.
                let mut rest_map: HashMap<String, Expr> = HashMap::new();
                let mut ens_map = arg_map.clone();
                let mut olds: Vec<(String, Expr)> = Vec::new();
                for (p, a) in callee.params.iter().zip(args.iter()) {
                    if p.mutable {
                        let post_v = var(&self.fresh_name(&p.name), p.ty.clone());
                        // ensures sees `p` as the post value, `old(p)` as the
                        // argument's current value.
                        ens_map.insert(p.name.clone(), post_v.clone());
                        olds.push((p.name.clone(), a.clone()));
                        if let ExprX::Var(an, _) = &**a {
                            rest_map.insert(an.clone(), post_v);
                        }
                    }
                }
                let mut ens_ranges = Vec::new();
                if let Some((rn, rt)) = &callee.ret {
                    let r = var(&self.fresh_name(rn), rt.clone());
                    ens_map.insert(rn.clone(), r.clone());
                    if let Some(rng) = range_condition(&r, rt) {
                        ens_ranges.push(rng);
                    }
                    if let Some((d, _)) = dest {
                        rest_map.insert(d.clone(), r);
                    }
                }
                let ens = and_all(
                    callee
                        .ensures
                        .iter()
                        .map(|e| {
                            let e = subst_olds(e, &olds);
                            veris_vir::expr::subst_vars(&e, &ens_map)
                        })
                        .collect(),
                )
                .and(and_all(ens_ranges));
                let rest2 = veris_vir::expr::subst_vars(&rest, &rest_map);
                let wf_args = and_all(args.iter().map(|a| self.wf(a)).collect());
                // Register assignments for &mut args and dest (style noise).
                for (p, a) in callee.params.iter().zip(args.iter()) {
                    if p.mutable {
                        if let ExprX::Var(an, _) = &**a {
                            self.assigns.push(AssignEvent { var: an.clone() });
                        }
                    }
                }
                if let Some((d, _)) = dest {
                    self.assigns.push(AssignEvent { var: d.clone() });
                }
                wf_args.and(req).and(dec_call).and(ens.implies(rest2))
            }
            Stmt::Return(e) => match e {
                Some(e) => self.wf(e).and(ret_post.clone()),
                None => ret_post.clone(),
            },
        }
    }

    /// Well-formedness condition for evaluating `e` in executable code.
    fn wf(&mut self, e: &Expr) -> Expr {
        if !self.exec {
            return tru();
        }
        self.wf_rec(e)
    }

    fn wf_rec(&mut self, e: &Expr) -> Expr {
        match &**e {
            ExprX::Binary(op, a, b) => {
                let wa = self.wf_rec(a);
                match op {
                    BinOp::And | BinOp::Implies => wa.and(a.implies(self.wf_rec(b))),
                    BinOp::Or => wa.and(a.not().implies(self.wf_rec(b))),
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        let wb = self.wf_rec(b);
                        let ty = e.ty();
                        match ty.int_range() {
                            Some((lo, hi)) => {
                                // The mathematical value must fit the type.
                                let lo_e = int(lo).le(math_expr(e));
                                let hi_e = math_expr(e).le(int(hi));
                                wa.and(wb).and(lo_e).and(hi_e)
                            }
                            None => wa.and(wb),
                        }
                    }
                    BinOp::Div | BinOp::Mod => {
                        let wb = self.wf_rec(b);
                        wa.and(wb).and(b.ne_e(lit(0, b.ty())))
                    }
                    BinOp::Shl | BinOp::Shr => {
                        let wb = self.wf_rec(b);
                        let width = match a.ty() {
                            Ty::UInt(w) | Ty::SInt(w) => w as i128,
                            _ => 128,
                        };
                        wa.and(wb).and(b.lt(int(width))).and(b.ge(int(0)))
                    }
                    _ => wa.and(self.wf_rec(b)),
                }
            }
            ExprX::Ite(c, t, f) => {
                let wc = self.wf_rec(c);
                wc.and(c.implies(self.wf_rec(t)))
                    .and(c.not().implies(self.wf_rec(f)))
            }
            ExprX::Field(dt, variant, _, inner, _) => {
                let wi = self.wf_rec(inner);
                wi.and(inner.is_variant(dt, variant))
            }
            _ => {
                let mut acc = tru();
                for k in veris_vir::expr::children(e) {
                    acc = acc.and(self.wf_rec(&k));
                }
                acc
            }
        }
    }
}

/// The mathematical (unbounded) reading of a machine-int expression is the
/// same VIR tree; the encoder maps machine ints to SMT ints, so no change is
/// needed — this function documents the intent.
fn math_expr(e: &Expr) -> Expr {
    e.clone()
}

/// Clip a rendered expression for use inside a provenance label.
fn clip(s: &str) -> String {
    const MAX: usize = 60;
    if s.chars().count() <= MAX {
        s.to_owned()
    } else {
        let head: String = s.chars().take(MAX).collect();
        format!("{head}…")
    }
}

/// Type-range condition `lo <= e <= hi` for machine-typed values.
pub fn range_condition(e: &Expr, ty: &Ty) -> Option<Expr> {
    let (lo, hi) = ty.int_range()?;
    if *ty == Ty::Nat {
        return Some(e.ge(int(0)));
    }
    Some(e.ge(int(lo)).and(e.le(int(hi))))
}

/// Replace `old(x)` nodes by a substitution from `olds` (call-site
/// instantiation).
fn subst_olds(e: &Expr, olds: &[(String, Expr)]) -> Expr {
    match &**e {
        ExprX::Old(n, _) => olds
            .iter()
            .find(|(m, _)| m == n)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| e.clone()),
        _ => {
            let kids = veris_vir::expr::children(e);
            if kids.is_empty() {
                return e.clone();
            }
            let new: Vec<Expr> = kids.iter().map(|k| subst_olds(k, olds)).collect();
            veris_vir::expr::rebuild(e, &new)
        }
    }
}

/// At function entry, `old(x)` is `x`.
fn resolve_old(e: &Expr) -> Expr {
    match &**e {
        ExprX::Old(n, t) => var(n, t.clone()),
        _ => {
            let kids = veris_vir::expr::children(e);
            if kids.is_empty() {
                return e.clone();
            }
            let new: Vec<Expr> = kids.iter().map(resolve_old).collect();
            veris_vir::expr::rebuild(e, &new)
        }
    }
}

/// Substitute inside a statement (used for loop havocking).
fn subst_stmt(s: &Stmt, m: &HashMap<String, Expr>) -> Stmt {
    let sub = |e: &Expr| veris_vir::expr::subst_vars(e, m);
    // Renaming of assignment *targets*: if the havoc map sends `x` to the
    // fresh variable `x!n`, assignments to `x` inside the body must now
    // target `x!n`.
    let rename = |n: &String| -> String {
        match m.get(n).map(|e| &**e) {
            Some(ExprX::Var(fresh, _)) => fresh.clone(),
            _ => n.clone(),
        }
    };
    match s {
        Stmt::Decl {
            name,
            ty,
            init,
            mutable,
        } => Stmt::Decl {
            name: rename(name),
            ty: ty.clone(),
            init: init.as_ref().map(sub),
            mutable: *mutable,
        },
        Stmt::Assign { name, value } => Stmt::Assign {
            name: rename(name),
            value: sub(value),
        },
        Stmt::Assert { expr, by, label } => Stmt::Assert {
            expr: sub(expr),
            by: *by,
            label: label.clone(),
        },
        Stmt::Assume(e) => Stmt::Assume(sub(e)),
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: sub(cond),
            then_: then_.iter().map(|s| subst_stmt(s, m)).collect(),
            else_: else_.iter().map(|s| subst_stmt(s, m)).collect(),
        },
        Stmt::While {
            cond,
            invariants,
            decreases,
            body,
        } => Stmt::While {
            cond: sub(cond),
            invariants: invariants.iter().map(sub).collect(),
            decreases: decreases.as_ref().map(sub),
            body: body.iter().map(|s| subst_stmt(s, m)).collect(),
        },
        Stmt::Call { func, args, dest } => Stmt::Call {
            func: func.clone(),
            args: args.iter().map(sub).collect(),
            dest: dest.as_ref().map(|(d, t)| (rename(d), t.clone())),
        },
        Stmt::Return(e) => Stmt::Return(e.as_ref().map(sub)),
    }
}

/// Find the declared type of a loop-modified variable by scanning the
/// invariants, condition, and body expressions.
fn find_var_type(name: &str, invariants: &[Expr], cond: &Expr, body: &[Stmt]) -> Option<Ty> {
    fn in_expr(name: &str, e: &Expr) -> Option<Ty> {
        if let ExprX::Var(n, t) = &**e {
            if n == name {
                return Some(t.clone());
            }
        }
        for k in veris_vir::expr::children(e) {
            if let Some(t) = in_expr(name, &k) {
                return Some(t);
            }
        }
        None
    }
    fn in_stmts(name: &str, stmts: &[Stmt]) -> Option<Ty> {
        for s in stmts {
            match s {
                Stmt::Decl { name: n, ty, .. } if n == name => return Some(ty.clone()),
                Stmt::Assign { name: n, value } if n == name => return Some(value.ty()),
                Stmt::Assign { value, .. } => {
                    if let Some(t) = in_expr(name, value) {
                        return Some(t);
                    }
                }
                Stmt::Assert { expr, .. } | Stmt::Assume(expr) => {
                    if let Some(t) = in_expr(name, expr) {
                        return Some(t);
                    }
                }
                Stmt::If { cond, then_, else_ } => {
                    if let Some(t) = in_expr(name, cond)
                        .or_else(|| in_stmts(name, then_))
                        .or_else(|| in_stmts(name, else_))
                    {
                        return Some(t);
                    }
                }
                Stmt::While {
                    cond,
                    invariants,
                    body,
                    ..
                } => {
                    if let Some(t) = in_expr(name, cond)
                        .or_else(|| invariants.iter().find_map(|i| in_expr(name, i)))
                        .or_else(|| in_stmts(name, body))
                    {
                        return Some(t);
                    }
                }
                Stmt::Call { args, dest, .. } => {
                    if let Some((d, t)) = dest {
                        if d == name {
                            return Some(t.clone());
                        }
                    }
                    if let Some(t) = args.iter().find_map(|a| in_expr(name, a)) {
                        return Some(t);
                    }
                }
                Stmt::Return(Some(e)) => {
                    if let Some(t) = in_expr(name, e) {
                        return Some(t);
                    }
                }
                _ => {}
            }
        }
        None
    }
    invariants
        .iter()
        .find_map(|i| in_expr(name, i))
        .or_else(|| in_expr(name, cond))
        .or_else(|| in_stmts(name, body))
}

/// Spec functions transitively referenced by an expression (for pruning).
pub fn called_spec_functions(krate: &Krate, e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![e.clone()];
    while let Some(e) = stack.pop() {
        if let ExprX::Call(name, _, _) = &*e {
            if !out.contains(name) {
                out.push(name.clone());
                // Recurse into the callee's own body and contract.
                if let Some((_, f)) = krate.find_function(name) {
                    if let FnBody::SpecExpr(b) = &f.body {
                        stack.push(b.clone());
                    }
                    for r in f.requires.iter().chain(f.ensures.iter()) {
                        stack.push(r.clone());
                    }
                }
            }
        }
        stack.extend(veris_vir::expr::children(&e));
    }
    out
}

/// Convenience used by tests: the standard entry point.
pub fn vc_for_function(krate: &Krate, f: &Function) -> WpResult {
    let ctx = WpCtx::new(krate);
    // Thread the return name through by rewriting Return(e) into
    // an assignment to the return variable followed by Return of the var.
    match (&f.body, &f.ret) {
        (FnBody::Stmts(stmts), Some((rn, rt))) => {
            let rewritten = rewrite_returns(stmts, rn, rt);
            let mut f2 = f.clone();
            f2.body = FnBody::Stmts(rewritten);
            ctx.function_vc(&f2)
        }
        _ => ctx.function_vc(f),
    }
}

/// Rewrite `Return(e)` into `ret := e; Return(ret)`-style postcondition
/// substitution: we substitute the return variable directly in `ret_post`
/// by replacing the statement with `Decl ret = e; ReturnNamed`.
fn rewrite_returns(stmts: &[Stmt], rn: &str, rt: &Ty) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Return(Some(e)) => {
                // Bind the return variable, then return it; the WP rule for
                // Return yields the ensures over rn, and the Decl rule binds
                // rn to `e` — yielding ensures[rn := e].
                Stmt::If {
                    cond: tru(),
                    then_: vec![
                        Stmt::Decl {
                            name: rn.to_owned(),
                            ty: rt.clone(),
                            init: Some(e.clone()),
                            mutable: false,
                        },
                        Stmt::Return(Some(var(rn, rt.clone()))),
                    ],
                    else_: vec![],
                }
            }
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: cond.clone(),
                then_: rewrite_returns(then_, rn, rt),
                else_: rewrite_returns(else_, rn, rt),
            },
            Stmt::While {
                cond,
                invariants,
                decreases,
                body,
            } => Stmt::While {
                cond: cond.clone(),
                invariants: invariants.clone(),
                decreases: decreases.clone(),
                body: rewrite_returns(body, rn, rt),
            },
            other => other.clone(),
        })
        .collect()
}

// `old_expr`, `binary`, `old` imports used by tests and downstream crates.
#[allow(unused_imports)]
use binary as _binary_marker;
#[allow(unused_imports)]
use old_expr as _old_marker;
