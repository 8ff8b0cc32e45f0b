//! # veris-epr — per-module view of `#[epr_mode]` verification (paper §3.2)
//!
//! `#[epr_mode]` modules get *fully automated* proofs, and they need no
//! driver of their own: [`veris_vc::verify_krate`] reads each module's
//! `epr_mode` flag and decides that module's queries by saturating
//! quantifier instantiation over the finite ground universe — a complete
//! decision procedure, so no manual triggers, case splits, or assertions
//! are needed. The `epr-fragment` lint of `veris-lint` first checks that
//! the module's obligations lie in EPR (no arithmetic, acyclic
//! quantifier-alternation graph) and gates any function that leaves it.
//! [`verify_epr_module`] runs that pipeline and filters its report to one
//! module.
//!
//! The integration pattern mirrors the paper's Figure 3: a concrete module
//! (a) is abstracted into an EPR model (b); the model's invariants are
//! proved automatically (c); and the exported lemmas discharge the
//! concrete module's obligations through the ordinary pipeline (d). The
//! (a)–(b) and (c)–(d) connections are plain default-mode obligations
//! checked by `veris-vc`.

use veris_vc::{lint_ids, verify_krate, KrateReport, VcConfig};
use veris_vir::module::Krate;

/// A violation of the EPR fragment: where, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EprViolation {
    pub context: String,
    pub message: String,
}

/// Result of verifying an `#[epr_mode]` module.
#[derive(Clone, Debug)]
pub struct EprReport {
    pub module: String,
    pub fragment_violations: Vec<EprViolation>,
    pub report: KrateReport,
}

impl EprReport {
    pub fn all_verified(&self) -> bool {
        self.fragment_violations.is_empty() && self.report.all_verified()
    }
}

/// Verify `krate` and report one `#[epr_mode]` module: its functions'
/// verdicts, and its `epr-fragment` findings as violations. An unknown
/// module, or one not in `epr_mode`, is reported as a violation.
pub fn verify_epr_module(krate: &Krate, module_name: &str) -> EprReport {
    let violation = |message: &str| EprReport {
        module: module_name.to_owned(),
        fragment_violations: vec![EprViolation {
            context: module_name.to_owned(),
            message: message.to_owned(),
        }],
        report: KrateReport::default(),
    };
    let Some(module) = krate.modules.iter().find(|m| m.name == module_name) else {
        return violation("unknown module");
    };
    if !module.epr_mode {
        return violation("module is not in `epr_mode`");
    }
    let mut report = verify_krate(krate, &VcConfig::default(), 1);
    let in_module =
        |name: &str| name == module_name || module.functions.iter().any(|f| f.name == name);
    report.functions.retain(|f| in_module(&f.name));
    let fragment_violations = report
        .lints
        .iter()
        .filter(|d| d.code == lint_ids::EPR_FRAGMENT && in_module(&d.function))
        .map(|d| EprViolation {
            context: d.function.clone(),
            message: d.message.clone(),
        })
        .collect();
    EprReport {
        module: module_name.to_owned(),
        fragment_violations,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{and_all, call, forall, var, ExprExt};
    use veris_vir::module::{Function, Mode, Module};
    use veris_vir::stmt::Stmt;
    use veris_vir::ty::Ty;

    /// A mutual-exclusion protocol in EPR: at most one node holds the lock,
    /// maintained by transfer messages — a miniature of the paper's
    /// distributed-lock millibenchmark.
    fn lock_krate() -> Krate {
        let node = Ty::Abstract("Node".into());
        let holds = Function::new("holds", Mode::Spec)
            .param("n", node.clone())
            .returns("r", Ty::Bool);
        // Invariant: forall a b. holds(a) && holds(b) ==> a == b.
        let a = var("a", node.clone());
        let b = var("b", node.clone());
        let inv = forall(
            vec![("a", node.clone()), ("b", node.clone())],
            call("holds", vec![a.clone()], Ty::Bool)
                .and(call("holds", vec![b.clone()], Ty::Bool))
                .implies(a.eq_e(b.clone())),
            "mutex",
        );
        // holds'(x) = (x == recv && holds(send)) || (holds(x) && x != send
        // && x != recv): a transfer step.
        let holds2 = Function::new("holds_post", Mode::Spec)
            .param("n", node.clone())
            .returns("r", Ty::Bool);
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
            "transfer",
        );
        // Preservation proof: inv && holds(send) && step ==> inv'.
        let a2 = var("a", node.clone());
        let b2 = var("b", node.clone());
        let inv_post = forall(
            vec![("a", node.clone()), ("b", node.clone())],
            call("holds_post", vec![a2.clone()], Ty::Bool)
                .and(call("holds_post", vec![b2.clone()], Ty::Bool))
                .implies(a2.eq_e(b2.clone())),
            "mutex_post",
        );
        let preserve = Function::new("transfer_preserves_mutex", Mode::Proof)
            .param("send", node.clone())
            .param("recv", node.clone())
            .requires(inv.clone())
            .requires(call("holds", vec![send.clone()], Ty::Bool))
            .requires(step)
            .stmts(vec![Stmt::assert(inv_post)]);
        let m = Module::new("lock")
            .func(holds)
            .func(holds2)
            .func(preserve)
            .epr();
        Krate::new().module(m)
    }

    #[test]
    fn lock_module_is_epr() {
        let lint = veris_vc::lint_krate(&lock_krate());
        assert_eq!(lint.stats.errors, 0, "{:?}", lint.diagnostics);
    }

    #[test]
    fn mutex_preservation_proved_automatically() {
        let k = lock_krate();
        let rep = verify_epr_module(&k, "lock");
        assert!(rep.all_verified(), "{:?}", rep.report.failures());
        let names: Vec<&str> = rep
            .report
            .functions
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["transfer_preserves_mutex"]);
    }

    #[test]
    fn unknown_or_default_mode_module_is_a_violation() {
        let rep = verify_epr_module(&lock_krate(), "no_such_module");
        assert!(!rep.all_verified());
        assert_eq!(rep.fragment_violations[0].message, "unknown module");
        assert!(rep.report.functions.is_empty());

        let mut k = lock_krate();
        k.modules[0].epr_mode = false;
        let rep = verify_epr_module(&k, "lock");
        assert!(!rep.all_verified());
        assert!(rep.report.functions.is_empty());
    }

    #[test]
    fn fragment_violation_gates_the_module() {
        // An integer parameter leaves EPR: the function is gated by the
        // lint before any solver runs, and the finding is reported.
        let mut k = lock_krate();
        let f = &mut k.modules[0].functions[2];
        *f = f.clone().param("count", Ty::Int);
        let rep = verify_epr_module(&k, "lock");
        assert!(!rep.all_verified());
        assert_eq!(
            rep.fragment_violations.len(),
            1,
            "{:?}",
            rep.fragment_violations
        );
        assert_eq!(
            rep.fragment_violations[0].context,
            "transfer_preserves_mutex"
        );
        let f = &rep.report.functions[0];
        assert_eq!(
            f.status,
            veris_vc::Status::Failed("lint: epr-fragment".into())
        );
        assert_eq!(f.rlimit_spent(), 0);
    }

    #[test]
    fn broken_protocol_rejected() {
        // Broken transfer: the receiver acquires but the sender keeps the
        // lock; preservation must be refuted.
        let node = Ty::Abstract("NodeB".into());
        let holds = Function::new("holdsb", Mode::Spec)
            .param("n", node.clone())
            .returns("r", Ty::Bool);
        let holds2 = Function::new("holdsb_post", Mode::Spec)
            .param("n", node.clone())
            .returns("r", Ty::Bool);
        let a = var("a", node.clone());
        let b = var("b", node.clone());
        let inv = forall(
            vec![("a", node.clone()), ("b", node.clone())],
            call("holdsb", vec![a.clone()], Ty::Bool)
                .and(call("holdsb", vec![b.clone()], Ty::Bool))
                .implies(a.eq_e(b.clone())),
            "mutexb",
        );
        let recv = var("recv", node.clone());
        let send = var("send", node.clone());
        let x = var("x", node.clone());
        let step = forall(
            vec![("x", node.clone())],
            call("holdsb_post", vec![x.clone()], Ty::Bool).iff(x.eq_e(recv.clone()).or(call(
                "holdsb",
                vec![x.clone()],
                Ty::Bool,
            ))),
            "transferb",
        );
        let inv_post = forall(
            vec![("a", node.clone()), ("b", node.clone())],
            call("holdsb_post", vec![a.clone()], Ty::Bool)
                .and(call("holdsb_post", vec![b.clone()], Ty::Bool))
                .implies(a.eq_e(b.clone())),
            "mutexb_post",
        );
        let preserve = Function::new("broken_preserves", Mode::Proof)
            .param("send", node.clone())
            .param("recv", node.clone())
            .requires(and_all(vec![
                inv,
                call("holdsb", vec![send.clone()], Ty::Bool),
                send.ne_e(recv.clone()),
                step,
            ]))
            .stmts(vec![Stmt::assert(inv_post)]);
        let m = Module::new("lockb")
            .func(holds)
            .func(holds2)
            .func(preserve)
            .epr();
        let k = Krate::new().module(m);
        let rep = verify_epr_module(&k, "lockb");
        assert!(!rep.all_verified());
    }
}
