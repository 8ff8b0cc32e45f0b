//! # veris-lint — pre-solver static analysis
//!
//! A lint framework that runs over a VIR [`Krate`] — plus a model of the
//! axioms the VC layer would emit — and produces [`Diagnostic`]s *before any
//! solver is constructed*. The paper's §3.1 argues that conservative trigger
//! selection is what keeps queries small; these passes catch the classic
//! failure modes statically instead of waiting for e-matching to exhaust the
//! rlimit at runtime:
//!
//! 1. [`triggers`] — **matching-loop detector**: a static trigger graph over
//!    quantified axioms (module axioms and spec-function definitional
//!    axioms). An edge `f -> g` means instantiating a quantifier triggered
//!    on `f(..)` produces a ground term headed by `g`, which can re-fire
//!    another trigger; cycles are potential matching loops, reported with
//!    the cycle path. Trigger-less quantifiers go through the real
//!    [`veris_smt::quant::infer_triggers_detailed`] inference (on a
//!    standalone term store — no solver), so the report matches what the
//!    solver would actually match on.
//! 2. [`termination`] — **termination checker**: the spec/proof call graph
//!    with Tarjan SCCs. Any recursive SCC member without a `decreases`
//!    clause is an error (the "pure total spec functions" soundness story
//!    demands a measure); a `decreases` that mentions no parameter changing
//!    across a self-recursive call is a warning.
//! 3. [`alternation`] — **alternation graph and EPR fragment check**: one
//!    walk builds each module's quantifier-alternation sort graph. Outside
//!    `epr_mode` a cycle is an advisory note; in an `epr_mode` module every
//!    step outside EPR (arithmetic, non-EPR types, a cycle) is an error.
//! 4. [`spec_health`] — **spec-health lints**: possibly-vacuous `requires`
//!    (cheap bounded evaluation via `vir::interp` over a small probe grid —
//!    never a solver call) and trivially-true `ensures`.
//! 5. [`callees`] — **undefined callees**: a call to a function the krate
//!    does not define is an error that gates the whole krate.
//!
//! Two runtime lints from earlier layers — `unused-hypothesis` (unsat-core
//! based) and `redundant-spec-axiom` (session bookkeeping) — are governed by
//! this crate's stable IDs and suppression rules, even though their evidence
//! only exists after solving.
//!
//! Every lint has a stable ID in [`ids`] and can be suppressed per function
//! with `Function::allow(id)`. The driver (`veris-vc`) gates verification on
//! the result: error-severity findings fail the function without
//! constructing a solver, and [`cache_component`] folds findings +
//! suppressions into the VC result-cache key so flipping an `allow`
//! invalidates cached verdicts.
//!
//! Determinism contract: all graph traversals iterate sorted structures
//! (`BTreeMap`/`BTreeSet`), so the diagnostic list is byte-identical across
//! runs and thread counts.

pub mod alternation;
pub mod callees;
pub mod spec_health;
pub mod termination;
pub mod triggers;

use veris_obs::{Diagnostic, LintStats, Severity};
use veris_vir::module::{Function, Krate};

/// Stable lint IDs (the `code` field of emitted diagnostics).
pub mod ids {
    /// Cycle in the static trigger graph: instantiating a quantifier can
    /// produce terms that re-fire its own (or another) trigger.
    pub const MATCHING_LOOP: &str = "matching-loop";
    /// Trigger inference found no covering candidate and fell back to the
    /// whole quantifier body (an unmatchable trigger of last resort).
    pub const TRIGGER_FALLBACK: &str = "trigger-fallback-whole-body";
    /// A function in a recursive SCC has no `decreases` measure.
    pub const MISSING_DECREASES: &str = "termination-missing-decreases";
    /// A `decreases` expression mentions no parameter that changes across
    /// the recursive call.
    pub const DECREASES_UNCHANGED: &str = "decreases-unchanged-params";
    /// The quantifier-alternation sort graph of a module outside
    /// `epr_mode` has a cycle: a note, because instantiation over those
    /// sorts has no termination guarantee. In an `epr_mode` module the
    /// cycle is an [`EPR_FRAGMENT`] error instead.
    pub const ALTERNATION_CYCLE: &str = "quantifier-alternation-cycle";
    /// An `epr_mode` module leaves the EPR fragment: arithmetic, an integer
    /// literal, a non-EPR type or operator, a callee with a non-EPR
    /// signature, or a cycle in the alternation sort graph. Attached to the
    /// function, or to the module for an axiom or a cycle.
    pub const EPR_FRAGMENT: &str = "epr-fragment";
    /// `requires` rejected every probed input; possibly unsatisfiable.
    pub const VACUOUS_REQUIRES: &str = "vacuous-requires";
    /// An `ensures` clause is trivially true (tautology by shape or by
    /// closed evaluation).
    pub const TRIVIAL_ENSURES: &str = "trivial-ensures";
    /// Runtime lint (PR 2): a `requires`/`invariant` hypothesis was absent
    /// from the unsat core of a verified function.
    pub const UNUSED_HYPOTHESIS: &str = "unused-hypothesis";
    /// Runtime lint (PR 3): a spec function was axiomatized in more than
    /// one module session.
    pub const REDUNDANT_SPEC_AXIOM: &str = "redundant-spec-axiom";
    /// A call names a function the krate does not define. Gates every
    /// function of the krate and cannot be suppressed.
    pub const UNKNOWN_CALLEE: &str = "unknown-callee";

    /// All IDs, for docs and validation.
    pub const ALL: &[&str] = &[
        MATCHING_LOOP,
        TRIGGER_FALLBACK,
        MISSING_DECREASES,
        DECREASES_UNCHANGED,
        ALTERNATION_CYCLE,
        EPR_FRAGMENT,
        VACUOUS_REQUIRES,
        TRIVIAL_ENSURES,
        UNUSED_HYPOTHESIS,
        REDUNDANT_SPEC_AXIOM,
        UNKNOWN_CALLEE,
    ];
}

/// Result of linting a krate.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, in pass order (trigger graph,
    /// termination, alternation, spec health, callees), module/function
    /// order within a pass.
    pub diagnostics: Vec<Diagnostic>,
    pub stats: LintStats,
}

impl LintReport {
    /// Error-severity findings attached to `fname`.
    pub fn errors_for(&self, fname: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && d.function == fname)
            .collect()
    }

    /// Error-severity findings that gate `fname` of `module`: those
    /// attached to the function, the module-level ones (attached to the
    /// module's name, such as an EPR axiom or sort-graph violation), and
    /// every [`ids::UNKNOWN_CALLEE`] finding of the krate.
    pub fn gate_errors(&self, module: &str, fname: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| {
                d.severity == Severity::Error
                    && (d.function == fname
                        || d.function == module
                        || d.code == ids::UNKNOWN_CALLEE)
            })
            .collect()
    }

    pub fn has_errors(&self) -> bool {
        self.stats.errors > 0
    }
}

/// Whether a finding is suppressed by an `allow` on the function it names.
/// Module-level findings (the `function` field holds a module name) are
/// never suppressible this way, nor is an undefined callee, which the VC
/// layer cannot encode.
fn suppressed(krate: &Krate, d: &Diagnostic) -> bool {
    d.code != ids::UNKNOWN_CALLEE
        && krate
            .find_function(&d.function)
            .is_some_and(|(_, f)| f.allows_lint(&d.code))
}

/// Run every pass over the krate, apply suppressions, and tally stats.
pub fn lint_krate(krate: &Krate) -> LintReport {
    let mut raw = Vec::new();
    raw.extend(triggers::check(krate));
    raw.extend(termination::check(krate));
    raw.extend(alternation::check(krate));
    raw.extend(spec_health::check(krate));
    raw.extend(callees::check(krate));
    let mut stats = LintStats::new();
    let mut diagnostics = Vec::new();
    for d in raw {
        if suppressed(krate, &d) {
            stats.suppressed += 1;
            continue;
        }
        match d.severity {
            Severity::Error => stats.errors += 1,
            Severity::Warning => stats.warnings += 1,
            Severity::Note => stats.notes += 1,
        }
        diagnostics.push(d);
    }
    LintReport { diagnostics, stats }
}

/// Canonical lint component of a function's VC cache fingerprint: the
/// function's suppressions plus every finding attached to it. Folding this
/// into the cache key makes a flipped `allow` (or a lint newly firing) a
/// cache miss, so stale verdicts cannot survive a lint change.
pub fn cache_component(report: &LintReport, f: &Function) -> String {
    let mut allows = f.allows.clone();
    allows.sort();
    let mut findings: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.function == f.name)
        .map(|d| format!("{}:{}", d.severity.as_str(), d.code))
        .collect();
    findings.sort();
    format!(
        "lint allow=[{}] findings=[{}]\n",
        allows.join(","),
        findings.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{call, int, var, ExprExt};
    use veris_vir::module::{Mode, Module};
    use veris_vir::ty::Ty;

    fn rec_spec_fn(name: &str, with_decreases: bool) -> Function {
        // spec fn f(x: int) -> int { f(x - 1) }
        let x = var("x", Ty::Int);
        let f = Function::new(name, Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(call(name, vec![x.sub(int(1))], Ty::Int));
        if with_decreases {
            f.decreases(x)
        } else {
            f
        }
    }

    #[test]
    fn decreases_less_recursion_is_an_error() {
        let k = Krate::new().module(Module::new("m").func(rec_spec_fn("f", false)));
        let r = lint_krate(&k);
        assert!(r.has_errors());
        let errs = r.errors_for("f");
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, ids::MISSING_DECREASES);
    }

    #[test]
    fn allow_suppresses_and_counts() {
        let f = rec_spec_fn("f", false).allow(ids::MISSING_DECREASES);
        let k = Krate::new().module(Module::new("m").func(f));
        let r = lint_krate(&k);
        assert!(!r.has_errors());
        assert_eq!(r.stats.suppressed, 1);
    }

    #[test]
    fn cache_component_tracks_allows_and_findings() {
        let k_err = Krate::new().module(Module::new("m").func(rec_spec_fn("f", false)));
        let r_err = lint_krate(&k_err);
        let (_, f_err) = k_err.find_function("f").unwrap();
        let with_finding = cache_component(&r_err, f_err);
        assert!(with_finding.contains("error:termination-missing-decreases"));

        let k_ok = Krate::new().module(Module::new("m").func(rec_spec_fn("f", true)));
        let r_ok = lint_krate(&k_ok);
        let (_, f_ok) = k_ok.find_function("f").unwrap();
        assert_ne!(with_finding, cache_component(&r_ok, f_ok));

        let allowed = rec_spec_fn("f", false).allow(ids::MISSING_DECREASES);
        let k_allow = Krate::new().module(Module::new("m").func(allowed));
        let r_allow = lint_krate(&k_allow);
        let (_, f_allow) = k_allow.find_function("f").unwrap();
        let suppressed = cache_component(&r_allow, f_allow);
        assert!(suppressed.contains("allow=[termination-missing-decreases]"));
        assert_ne!(with_finding, suppressed);
    }

    #[test]
    fn clean_krate_is_quiet() {
        let x = var("x", Ty::Int);
        let abs = Function::new("abs", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(veris_vir::expr::ite(x.ge(int(0)), x.clone(), x.neg()));
        let k = Krate::new().module(Module::new("m").func(abs));
        let r = lint_krate(&k);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.stats.total(), 0);
    }
}
