//! The verification driver: assemble a query (context + negated VC), run
//! the SMT solver, and report per-function results with the metrics the
//! paper's evaluation tracks (wall-clock time, query bytes, instantiations).
//!
//! Observability: each function gets its own [`ResourceMeter`] (so verdicts
//! are independent of thread count), phase timing spans (vir lowering,
//! encoding, solver init, solve), and a quantifier-instantiation profile.
//! [`VcConfig::rlimit`] bounds solver work by deterministic counters, never
//! by wall-clock; runaway queries come back as
//! `Status::Unknown("resource limit exceeded (...)")` at the same point on
//! every machine.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use veris_lint::{ids as lint_ids, LintReport};
use veris_obs::{
    time, DiagItem, Diagnostic, LintStats, MeterSnapshot, PhaseTimes, QuantProfile, ResourceMeter,
    SessionStats, Severity, TimeTree,
};
use veris_smt::quant::TriggerPolicy;
use veris_smt::solver::{Config as SmtConfig, Model, SmtResult, Solver};
use veris_smt::term::TermId;
use veris_vir::expr::var;
use veris_vir::loc::SourceMap;
use veris_vir::module::{FnBody, Function, Krate, Mode, Module};
use veris_vir::ty::Ty;

use crate::cache;
use crate::ctx::EncCtx;
use crate::style::Style;
use crate::wp::{vc_for_function, AssignEvent, SideObligation, WpResult};

/// Outcome of a custom-prover side obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProverOutcome {
    Proved,
    Failed(String),
    Unknown(String),
}

/// Registry of custom provers (`by(bit_vector)` etc.), supplied by the
/// idioms crate to avoid a dependency cycle.
pub trait ProverRegistry: Send + Sync {
    /// Discharge `ob`, charging the function's resource meter for the work
    /// (bit-blast clauses, SAT and theory steps), so a custom prover runs
    /// under the same rlimit as the main query.
    fn prove(
        &self,
        krate: &Krate,
        ob: &SideObligation,
        meter: &Arc<ResourceMeter>,
    ) -> ProverOutcome;
}

/// Default per-function resource budget in meter units: enough for every
/// case-study proof that verifies (the largest spends about 35k units).
pub const DEFAULT_RLIMIT: u64 = 2_000_000;

/// Verification configuration.
#[derive(Clone)]
pub struct VcConfig {
    pub style: Style,
    pub provers: Option<Arc<dyn ProverRegistry>>,
    /// Override the default instantiation-round budget.
    pub max_quant_rounds: Option<usize>,
    /// Override the solver's instantiation-generation cap (fuel).
    pub smt_max_generation: Option<u32>,
    /// Per-function resource budget in meter units (the `--rlimit` idiom),
    /// [`DEFAULT_RLIMIT`] unless set. It is the only budget: no clock
    /// bounds a query, so the verdict depends only on deterministic
    /// counters.
    pub rlimit: u64,
    /// Directory of the content-addressed VC result cache (`.veris-cache`).
    /// `None` disables caching; only [`verify_krate`] consults it.
    pub cache_dir: Option<PathBuf>,
    /// Prior per-module meter totals (from a saved baseline) that order the
    /// work list: [`verify_krate`] takes modules heaviest-first, each
    /// module's functions in crate order. Modules without an entry fall
    /// back to their function count.
    pub module_weights: Option<HashMap<String, u64>>,
}

impl Default for VcConfig {
    fn default() -> Self {
        VcConfig {
            style: Style::Verus,
            provers: None,
            max_quant_rounds: None,
            smt_max_generation: None,
            rlimit: DEFAULT_RLIMIT,
            cache_dir: None,
            module_weights: None,
        }
    }
}

impl VcConfig {
    pub fn with_style(style: Style) -> VcConfig {
        VcConfig {
            style,
            ..VcConfig::default()
        }
    }

    /// Builder: set the deterministic per-function resource budget.
    pub fn with_rlimit(mut self, rlimit: u64) -> VcConfig {
        self.rlimit = rlimit;
        self
    }

    /// Builder: enable the persistent result cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> VcConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builder: install prior per-module meter totals for scheduling.
    pub fn with_module_weights(mut self, weights: HashMap<String, u64>) -> VcConfig {
        self.module_weights = Some(weights);
        self
    }

    /// Solver configuration for a session over a module; `epr_mode` (the
    /// module's `#[epr_mode]` flag) decides its queries by EPR saturation
    /// instead of e-matching.
    fn smt_config(&self, epr_mode: bool) -> SmtConfig {
        let mut c = SmtConfig {
            trigger_policy: if self.style.broad_triggers() {
                TriggerPolicy::Broad
            } else {
                TriggerPolicy::Minimal
            },
            ..SmtConfig::default()
        };
        if let Some(r) = self.max_quant_rounds {
            c.max_quant_rounds = r;
        }
        if let Some(g) = self.smt_max_generation {
            c.max_generation = g;
        }
        if epr_mode {
            c.epr_mode = true;
            c.max_quant_rounds = self.max_quant_rounds.unwrap_or(64);
        }
        c
    }
}

/// Verification status of one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    Verified,
    Failed(String),
    Unknown(String),
}

impl Status {
    pub fn is_verified(&self) -> bool {
        matches!(self, Status::Verified)
    }
}

/// Per-function verification report.
#[derive(Clone, Debug)]
pub struct FnReport {
    pub name: String,
    pub status: Status,
    pub time: Duration,
    pub query_bytes: usize,
    pub instantiations: u64,
    pub conflicts: u64,
    /// 1 (the main VC) + custom-prover side obligations.
    pub obligations: usize,
    /// Resource-meter counters for this function's queries.
    pub meter: MeterSnapshot,
    /// Phase timing breakdown (vir / encode / smt-init / smt-run).
    pub phases: PhaseTimes,
    /// Per-quantifier instantiation profile.
    pub profile: QuantProfile,
    /// Structured diagnostics: counterexamples, unsat cores,
    /// unused-hypothesis lints.
    pub diagnostics: Vec<Diagnostic>,
    /// Labeled hypotheses asserted for the main query (context size).
    pub hyps_asserted: usize,
    /// Hypotheses the refutation actually used (unsat-core size); 0 when
    /// the query did not come back `Unsat`.
    pub hyps_used: usize,
    /// True when this report was answered from the result cache (no solver
    /// was constructed; `time`/`phases` then measure only cache lookup).
    pub cache_hit: bool,
}

impl FnReport {
    /// Total meter units spent (the `rlimit` currency).
    pub fn rlimit_spent(&self) -> u64 {
        self.meter.total()
    }

    fn empty(name: &str, status: Status, time: Duration) -> FnReport {
        FnReport {
            name: name.to_owned(),
            status,
            time,
            query_bytes: 0,
            instantiations: 0,
            conflicts: 0,
            obligations: 0,
            meter: MeterSnapshot::default(),
            phases: PhaseTimes::default(),
            profile: QuantProfile::new(),
            diagnostics: Vec::new(),
            hyps_asserted: 0,
            hyps_used: 0,
            cache_hit: false,
        }
    }
}

/// Whole-crate report.
#[derive(Clone, Debug, Default)]
pub struct KrateReport {
    pub functions: Vec<FnReport>,
    pub wall_time: Duration,
    /// Incremental-verification counters: sessions opened, context
    /// re-encodings avoided, cache hits/misses.
    pub sessions: SessionStats,
    /// Krate-level lints: the pre-solver static-analysis findings
    /// (veris-lint), followed by run-derived lints (e.g. a spec function
    /// axiomatized in more than one module session).
    pub lints: Vec<Diagnostic>,
    /// Counters for the pre-solver lint pass (including run-derived lints).
    pub lint_stats: LintStats,
}

impl KrateReport {
    pub fn all_verified(&self) -> bool {
        self.functions.iter().all(|f| f.status.is_verified())
    }

    pub fn total_query_bytes(&self) -> usize {
        self.functions.iter().map(|f| f.query_bytes).sum()
    }

    pub fn total_cpu_time(&self) -> Duration {
        self.functions.iter().map(|f| f.time).sum()
    }

    pub fn failures(&self) -> Vec<&FnReport> {
        self.functions
            .iter()
            .filter(|f| !f.status.is_verified())
            .collect()
    }

    /// Element-wise sum of every function's meter counters.
    pub fn total_meter(&self) -> MeterSnapshot {
        self.functions
            .iter()
            .fold(MeterSnapshot::default(), |acc, f| acc.add(&f.meter))
    }

    /// Sum of the per-function phase breakdowns.
    pub fn total_phases(&self) -> PhaseTimes {
        self.functions
            .iter()
            .fold(PhaseTimes::default(), |acc, f| acc.add(&f.phases))
    }

    /// Quantifier profile merged across all functions.
    pub fn merged_profile(&self) -> QuantProfile {
        let mut p = QuantProfile::new();
        for f in &self.functions {
            p.merge(&f.profile);
        }
        p
    }

    /// Krate-level `--time`-style tree built from the aggregated phases.
    pub fn time_tree(&self) -> TimeTree {
        self.total_phases().to_tree()
    }

    /// All diagnostics: per-function first (in function order), then
    /// krate-level lints.
    pub fn diagnostics(&self) -> Vec<&Diagnostic> {
        self.functions
            .iter()
            .flat_map(|f| f.diagnostics.iter())
            .chain(self.lints.iter())
            .collect()
    }

    /// Context-pruning effectiveness: `(hypotheses asserted, hypotheses
    /// used)` summed over all `Unsat` (verified) queries. The ratio is the
    /// measured counterpart of the paper's §3.1 pruning claim — how much of
    /// the shipped context the proofs actually touched.
    pub fn hypothesis_usage(&self) -> (usize, usize) {
        self.functions
            .iter()
            .filter(|f| f.status.is_verified() && f.hyps_used > 0)
            .fold((0, 0), |(a, u), f| (a + f.hyps_asserted, u + f.hyps_used))
    }
}

/// Encode the shared context for functions of `module`: the visible
/// modules' axioms (Verus prunes to this module + imports; the baselines
/// ship the whole crate), plus — for non-pruning styles — every spec
/// function (and therefore every collection-theory instance) in the crate.
///
/// Shared verbatim by the fresh path ([`verify_function`]) and the module
/// sessions in [`verify_krate`]: both perform the identical operation
/// sequence against a fresh solver, so a clone of a session's base equals
/// a fresh run's state at the same point and every downstream observable
/// (verdict, core, meter, query bytes) stays byte-identical.
fn encode_context(
    solver: &mut Solver,
    ctx: &mut EncCtx,
    krate: &Krate,
    module: &Module,
    cfg: &VcConfig,
) {
    let empty = HashMap::new();
    let visible = cache::visible_modules(krate, module, cfg);
    for m in &visible {
        for (i, ax) in m.axioms.iter().enumerate() {
            let t = ctx.encode_expr(solver, ax, &empty);
            solver.assert_labeled(t, &format!("axiom:{}#{i}", m.name));
        }
    }
    if !cfg.style.prunes_context() {
        let names: Vec<String> = krate
            .all_functions()
            .filter(|(_, f)| f.mode == Mode::Spec && !matches!(f.body, FnBody::Abstract))
            .map(|(_, f)| f.name.clone())
            .collect();
        for n in names {
            ctx.ensure_spec_fn(solver, &n);
        }
    }
}

/// Everything [`check_function`] learns about one query; combined with the
/// caller's meter/phases/timing into an [`FnReport`].
struct QueryRun {
    status: Status,
    diagnostics: Vec<Diagnostic>,
    hyps_asserted: usize,
    hyps_used: usize,
    obligations: usize,
    query_bytes: usize,
    instantiations: u64,
    conflicts: u64,
    profile: QuantProfile,
}

/// Encode the function-specific query on top of an already-encoded context
/// and run the check: labeled hypotheses, loop-invariant markers, the
/// negated (possibly style-wrapped) goal, and the style's noise content —
/// then the solve, diagnostics, and custom-prover side obligations.
#[allow(clippy::too_many_arguments)]
fn check_function(
    krate: &Krate,
    fname: &str,
    wp: &WpResult,
    cfg: &VcConfig,
    solver: &mut Solver,
    ctx: &mut EncCtx,
    meter: &Arc<ResourceMeter>,
    phases: &mut PhaseTimes,
) -> QueryRun {
    let empty = HashMap::new();
    time(&mut phases.encode, || {
        // Assert the hypotheses (requires, parameter ranges) and the
        // loop-invariant markers as *labeled* formulas, then the negated
        // goal — each behind a selector literal, so an `Unsat` answer
        // comes back with the provenance set the refutation used.
        for (label, h) in &wp.hypotheses {
            let t = ctx.encode_expr(solver, h, &empty);
            solver.assert_labeled(t, label);
        }
        for (marker, label) in &wp.inv_markers {
            let t = ctx.encode_expr(solver, &var(marker, Ty::Bool), &empty);
            solver.assert_labeled(t, label);
        }
        let goal_term = ctx.encode_expr(solver, &wp.goal, &empty);
        ctx.flush_axioms(solver);
        let goal = wrap_goal(solver, goal_term, cfg.style);
        let neg = solver.store.mk_not(goal);
        solver.assert_labeled(neg, "goal");
        inject_style_noise(solver, cfg.style, &wp.assigns);
    });
    let result = time(&mut phases.smt_run, || solver.check());
    let hyps_asserted = solver.hypothesis_labels().len();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut hyps_used = 0;
    let mut status = match result {
        SmtResult::Unsat => {
            if let Some(core) = solver.unsat_core() {
                hyps_used = core.len();
                diagnostics.extend(core_diagnostics(krate, fname, solver, core));
            }
            Status::Verified
        }
        SmtResult::Sat(model) => {
            let mut diag = counterexample_diag(fname, ctx, solver, &model);
            locate_bindings(&mut diag, &SourceMap::for_krate(krate));
            diagnostics.push(diag);
            Status::Failed(render_counterexample(solver, &model))
        }
        SmtResult::Unknown(r) => Status::Unknown(r),
    };
    // Side obligations via custom provers.
    let mut obligations = 1;
    if !wp.side_obligations.is_empty() {
        obligations += wp.side_obligations.len();
        match &cfg.provers {
            None => {
                if status.is_verified() {
                    status = Status::Unknown(
                        "custom-prover obligations present but no prover registry installed".into(),
                    );
                }
            }
            Some(reg) => {
                for ob in &wp.side_obligations {
                    match reg.prove(krate, ob, meter) {
                        ProverOutcome::Proved => {}
                        ProverOutcome::Failed(msg) => {
                            status = Status::Failed(format!("{}: {msg}", ob.label));
                            break;
                        }
                        ProverOutcome::Unknown(msg) => {
                            if status.is_verified() {
                                status = Status::Unknown(format!("{}: {msg}", ob.label));
                            }
                        }
                    }
                }
            }
        }
    }
    QueryRun {
        status,
        diagnostics,
        hyps_asserted,
        hyps_used,
        obligations,
        query_bytes: solver.query_size_bytes(),
        instantiations: solver.stats.instantiations,
        conflicts: solver.stats.conflicts,
        profile: solver.profile().clone(),
    }
}

impl QueryRun {
    fn into_report(
        self,
        fname: &str,
        elapsed: Duration,
        meter: MeterSnapshot,
        phases: PhaseTimes,
    ) -> FnReport {
        FnReport {
            name: fname.to_owned(),
            status: self.status,
            time: elapsed,
            query_bytes: self.query_bytes,
            instantiations: self.instantiations,
            conflicts: self.conflicts,
            obligations: self.obligations,
            meter,
            phases,
            profile: self.profile,
            diagnostics: self.diagnostics,
            hyps_asserted: self.hyps_asserted,
            hyps_used: self.hyps_used,
            cache_hit: false,
        }
    }
}

/// The report for a function gated out by error-severity lints: `Failed`
/// with the offending codes, the findings as diagnostics, and no solver
/// work at all. Shared by [`verify_function`] and [`verify_krate`] so the
/// two paths stay verdict-identical.
fn lint_gate_report(fname: &str, errors: &[&Diagnostic], time: Duration) -> FnReport {
    let mut codes: Vec<&str> = errors.iter().map(|d| d.code.as_str()).collect();
    codes.sort_unstable();
    codes.dedup();
    let mut rep = FnReport::empty(
        fname,
        Status::Failed(format!("lint: {}", codes.join(", "))),
        time,
    );
    rep.diagnostics = errors.iter().map(|&d| d.clone()).collect();
    rep
}

/// Verify one function by name, with a fresh solver (no session reuse, no
/// cache). This is the reference semantics the incremental paths in
/// [`verify_krate`] are required to reproduce byte-for-byte.
///
/// Error-severity lint findings gate the function: it reports `Failed`
/// before any solver is constructed (same verdict as [`verify_krate`]).
/// An unknown function name reports `Failed` as well.
pub fn verify_function(krate: &Krate, fname: &str, cfg: &VcConfig) -> FnReport {
    let t0 = Instant::now();
    let Some((module, f)) = krate.find_function(fname) else {
        let status = Status::Failed(format!("unknown function `{fname}`"));
        return FnReport::empty(fname, status, t0.elapsed());
    };
    // Nothing to check for trusted or abstract functions.
    if f.trusted || matches!(f.body, FnBody::Abstract) {
        return FnReport::empty(fname, Status::Verified, t0.elapsed());
    }
    let lint = veris_lint::lint_krate(krate);
    let errors = lint.gate_errors(&module.name, fname);
    if !errors.is_empty() {
        return lint_gate_report(fname, &errors, t0.elapsed());
    }
    // One meter per function: charges are independent of how many sibling
    // functions run concurrently, so rlimit verdicts survive `threads = N`.
    let meter = Arc::new(ResourceMeter::with_limit(Some(cfg.rlimit)));
    let mut phases = PhaseTimes::default();
    let wp = time(&mut phases.vir, || vc_for_function(krate, f));
    let mut solver = time(&mut phases.smt_init, || {
        let mut s = Solver::new(cfg.smt_config(module.epr_mode));
        s.set_meter(meter.clone());
        s
    });
    let mut ctx = EncCtx::new(krate);
    time(&mut phases.encode, || {
        encode_context(&mut solver, &mut ctx, krate, module, cfg);
    });
    let q = check_function(
        krate,
        fname,
        &wp,
        cfg,
        &mut solver,
        &mut ctx,
        &meter,
        &mut phases,
    );
    q.into_report(fname, t0.elapsed(), meter.snapshot(), phases)
}

/// Diagnostics derived from an unsat core: the used-hypothesis set, plus
/// an unused-precondition/invariant lint when a user-written hypothesis
/// (a `requires` clause or a loop invariant) never participated in the
/// refutation. The lint carries the stable veris-lint ID
/// ([`lint_ids::UNUSED_HYPOTHESIS`]) and honors `Function::allow`.
fn core_diagnostics(
    krate: &Krate,
    fname: &str,
    solver: &Solver,
    core: &[String],
) -> Vec<Diagnostic> {
    let all = solver.hypothesis_labels();
    let mut out = Vec::new();
    out.push(
        Diagnostic::new(
            Severity::Note,
            "unsat-core",
            fname,
            format!(
                "proof used {} of {} labeled hypotheses",
                core.len(),
                all.len()
            ),
        )
        .with_items(core.iter().map(|l| DiagItem::new(l.clone(), "")).collect()),
    );
    let allowed = krate
        .find_function(fname)
        .is_some_and(|(_, f)| f.allows_lint(lint_ids::UNUSED_HYPOTHESIS));
    let unused: Vec<&String> = all
        .iter()
        .filter(|l| {
            (l.starts_with("requires#") || l.starts_with("invariant#")) && !core.contains(l)
        })
        .collect();
    if !unused.is_empty() && !allowed {
        out.push(
            Diagnostic::new(
                Severity::Warning,
                lint_ids::UNUSED_HYPOTHESIS,
                fname,
                format!(
                    "{} user-written hypothes{} never used by the proof",
                    unused.len(),
                    if unused.len() == 1 { "is" } else { "es" }
                ),
            )
            .with_items(
                unused
                    .iter()
                    .map(|l| DiagItem::new((*l).clone(), ""))
                    .collect(),
            ),
        );
    }
    out
}

/// Build the counterexample diagnostic: model values joined back through
/// the VC symbol table to VIR-level names (located by [`locate_bindings`]).
fn counterexample_diag(fname: &str, ctx: &EncCtx, solver: &Solver, model: &Model) -> Diagnostic {
    let mut items = Vec::new();
    for (name, t) in ctx.symbol_table() {
        // wp-internal fresh variables (`x!3`) and invariant markers
        // (`loop!1#inv0`) are not source-level names.
        if name.contains('!') || name.contains('<') {
            continue;
        }
        let value = match solver.store.sort_of(t) {
            s if s == solver.store.bool_sort() => model.bools.get(&t).map(|b| b.to_string()),
            _ => model.ints.get(&t).map(|v| v.to_string()),
        };
        if let Some(v) = value {
            items.push(DiagItem::new(name, v));
        }
    }
    let headline = if model.validated {
        "contract does not hold; the bindings below are a validated counterexample"
    } else if model.maybe_spurious {
        "contract may not hold; candidate counterexample could not be validated"
    } else {
        "contract does not hold; counterexample bindings below"
    };
    let severity = if model.validated || !model.maybe_spurious {
        Severity::Error
    } else {
        Severity::Warning
    };
    Diagnostic::new(severity, "counterexample", fname, headline).with_items(items)
}

/// Give each binding of a counterexample diagnostic the virtual source
/// location of the parameter of that name, if any. The lines follow the
/// layout of everything above the function in its module, which the cache
/// key leaves out, so fresh solves and cache hits both take them from the
/// current krate here.
fn locate_bindings(diag: &mut Diagnostic, srcmap: &SourceMap) {
    for item in &mut diag.items {
        item.loc = srcmap
            .param_loc(&diag.function, &item.label)
            .map(|l| l.to_string());
    }
}

/// One module's encoded base session: the solver and encoder right after
/// [`encode_context`], built once per run by the first worker that misses
/// in the module and then shared, read-only, by every worker.
///
/// The shared context (visible module axioms, theory instances, spec-fn
/// axioms) is encoded on an *unlimited* meter; its cost is captured in
/// `ctx_cost`. Each function is verified on a `clone()` of the base with a
/// fresh rlimit-bounded meter pre-charged with `ctx_cost`, and the clone is
/// dropped afterwards — so per-function meter totals, rlimit trip points,
/// unsat cores, and query bytes are byte-identical to a fresh solver that
/// re-encoded the context (see `encode_context`), whichever functions ran
/// before on other clones or threads.
///
/// Learnt clauses die with their clone: retained lemmas would make a later
/// function's search depend on the schedule, breaking the byte-for-byte
/// parity contract with [`verify_function`].
struct ModuleSession<'k> {
    solver: Solver,
    ctx: EncCtx<'k>,
    ctx_cost: MeterSnapshot,
}

impl<'k> ModuleSession<'k> {
    /// Encode `module`'s shared context once; every clone starts from here.
    fn open(
        krate: &'k Krate,
        module: &'k Module,
        cfg: &VcConfig,
        phases: &mut PhaseTimes,
    ) -> ModuleSession<'k> {
        let ctx_meter = Arc::new(ResourceMeter::new());
        let mut solver = time(&mut phases.smt_init, || {
            let mut s = Solver::new(cfg.smt_config(module.epr_mode));
            s.set_meter(ctx_meter.clone());
            s
        });
        let mut ctx = EncCtx::new(krate);
        time(&mut phases.encode, || {
            encode_context(&mut solver, &mut ctx, krate, module, cfg);
        });
        ModuleSession {
            solver,
            ctx,
            ctx_cost: ctx_meter.snapshot(),
        }
    }

    /// Verify one function on a clone of the base. Also returns the spec
    /// functions the clone axiomatized (the base's included), for the
    /// krate-level redundancy lint.
    fn verify(
        &self,
        krate: &Krate,
        fname: &str,
        wp: &WpResult,
        cfg: &VcConfig,
        t0: Instant,
        mut phases: PhaseTimes,
    ) -> (FnReport, Vec<String>) {
        let meter = Arc::new(ResourceMeter::with_limit(Some(cfg.rlimit)));
        meter.precharge(&self.ctx_cost);
        let (mut solver, mut ctx) = time(&mut phases.smt_init, || {
            (self.solver.clone(), self.ctx.clone())
        });
        solver.set_meter(meter.clone());
        let q = check_function(
            krate,
            fname,
            wp,
            cfg,
            &mut solver,
            &mut ctx,
            &meter,
            &mut phases,
        );
        let rep = q.into_report(fname, t0.elapsed(), meter.snapshot(), phases);
        (rep, ctx.axiomatized_spec_fns())
    }
}

/// One module's slice of the verification work.
struct ModuleGroup<'k> {
    module: &'k Module,
    /// `(output slot, function name)` in original crate order.
    fns: Vec<(usize, String)>,
    weight: u64,
    /// The module's cache context key, computed by the first worker that
    /// needs it.
    context: OnceLock<String>,
    /// The encoded base, built by the first worker that misses in the
    /// module.
    base: OnceLock<ModuleSession<'k>>,
}

/// Verify one function of `group`: probe the cache, and on a miss verify
/// on a clone of the module's base, building the base first when no worker
/// has yet. Returns the report and the spec functions its clone
/// axiomatized (none on a cache hit).
fn run_function<'k>(
    krate: &'k Krate,
    group: &ModuleGroup<'k>,
    fname: &str,
    cfg: &VcConfig,
    lint: &LintReport,
    stats: &mut SessionStats,
    srcmap: &mut Option<SourceMap>,
) -> (FnReport, Vec<String>) {
    let t0 = Instant::now();
    let (_, f) = krate.find_function(fname).expect("group function exists");
    let mut phases = PhaseTimes::default();
    let wp = time(&mut phases.vir, || vc_for_function(krate, f));
    let fp = cfg.cache_dir.as_ref().map(|_| {
        let context = group
            .context
            .get_or_init(|| cache::context_key(krate, group.module, cfg));
        let lint_key = veris_lint::cache_component(lint, f);
        cache::fingerprint(context, fname, &wp, &lint_key)
    });
    if let (Some(dir), Some(fp)) = (&cfg.cache_dir, &fp) {
        if let Some(mut rep) = cache::load(dir, fp) {
            stats.cache_hits += 1;
            for d in &mut rep.diagnostics {
                if d.code == "counterexample" {
                    let map = srcmap.get_or_insert_with(|| SourceMap::for_krate(krate));
                    locate_bindings(d, map);
                }
            }
            rep.time = t0.elapsed();
            rep.phases = phases;
            return (rep, Vec::new());
        }
    }
    stats.cache_misses += 1;
    let mut opened = false;
    let wait = Instant::now();
    let base = group.base.get_or_init(|| {
        opened = true;
        ModuleSession::open(krate, group.module, cfg, &mut phases)
    });
    // A worker that found another building the base waited for it; the
    // wait is not this function's work, so its clock starts afterwards.
    let t0 = if opened {
        stats.sessions_opened += 1;
        t0
    } else {
        stats.ctx_reencodes_avoided += 1;
        t0 + wait.elapsed()
    };
    let (rep, axiomed) = base.verify(krate, fname, &wp, cfg, t0, phases);
    if let (Some(dir), Some(fp)) = (&cfg.cache_dir, &fp) {
        cache::store(dir, fp, &rep);
    }
    (rep, axiomed)
}

/// Verify all non-trusted functions with bodies, optionally in parallel
/// (the paper's Fig 9 reports both 1-core and 8-core wall times).
///
/// The unit of work is one function. Each module's shared context is
/// encoded once, into a base session that the first worker to miss in the
/// module builds; every function then runs on its own clone of that base.
/// The work list takes modules longest-first (by prior meter totals when
/// [`VcConfig::module_weights`] is set, function count otherwise) and each
/// module's functions in crate order; workers — the calling thread and
/// `min(threads, functions) - 1` spawned ones — take the next function
/// from it. When [`VcConfig::cache_dir`] is set, unchanged functions are
/// answered from the content-addressed result cache without touching a
/// solver. Report order is the original crate order regardless of schedule,
/// and every deterministic quantity is independent of `threads`.
pub fn verify_krate(krate: &Krate, cfg: &VcConfig, threads: usize) -> KrateReport {
    let t0 = Instant::now();
    // Pre-solver static analysis gates the run: a function with
    // error-severity findings is reported `Failed` without a solver, and
    // the findings feed every function's cache fingerprint.
    let lint = veris_lint::lint_krate(krate);
    // Group verifiable functions by module, preserving crate order.
    // Lint-gated functions get a slot but never reach a session.
    let mut groups: Vec<ModuleGroup> = Vec::new();
    let mut gated: Vec<(usize, FnReport)> = Vec::new();
    let mut slotted: HashSet<&str> = HashSet::new();
    let mut slot = 0usize;
    for module in &krate.modules {
        let fns: Vec<(usize, String)> = module
            .functions
            .iter()
            .filter(|f| !f.trusted && !matches!(f.body, FnBody::Abstract))
            .filter(|f| needs_verification(f))
            .map(|f| {
                let s = slot;
                slot += 1;
                slotted.insert(f.name.as_str());
                (s, f.name.clone())
            })
            .filter(|(s, name)| {
                let errors = lint.gate_errors(&module.name, name);
                if errors.is_empty() {
                    return true;
                }
                gated.push((*s, lint_gate_report(name, &errors, Duration::ZERO)));
                false
            })
            .collect();
        if fns.is_empty() {
            continue;
        }
        let weight = cfg
            .module_weights
            .as_ref()
            .and_then(|w| w.get(&module.name).copied())
            .unwrap_or(fns.len() as u64);
        groups.push(ModuleGroup {
            module,
            fns,
            weight,
            context: OnceLock::new(),
            base: OnceLock::new(),
        });
    }
    // Longest-processing-time-first: heaviest modules start earliest so no
    // worker is left holding the one big module at the end. Stable sort
    // keeps equal-weight groups in crate order — the schedule (and with
    // threads=1 the execution order) is deterministic.
    groups.sort_by_key(|g| std::cmp::Reverse(g.weight));
    let work: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, group)| (0..group.fns.len()).map(move |i| (g, i)))
        .collect();
    // Each worker takes the next unclaimed function.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut reports = Vec::new();
        let mut stats = SessionStats::new();
        let mut axiomed = Vec::new();
        let mut srcmap = None;
        while let Some(&(g, i)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (slot, fname) = &groups[g].fns[i];
            let (rep, fns) = run_function(
                krate,
                &groups[g],
                fname,
                cfg,
                &lint,
                &mut stats,
                &mut srcmap,
            );
            reports.push((*slot, rep));
            axiomed.push((g, fns));
        }
        (reports, stats, axiomed)
    };
    let helpers = threads.min(work.len()).saturating_sub(1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(worker)).collect();
        let mut results = vec![worker()];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("verification worker panicked")),
        );
        results
    });
    let mut reports: Vec<Option<FnReport>> = vec![None; slot];
    let mut sessions = SessionStats::new();
    // One set per module: the union of what its clones axiomatized.
    let mut axiom_sets: Vec<HashSet<String>> = vec![HashSet::new(); groups.len()];
    for (reps, stats, axiomed) in results {
        for (i, r) in reps {
            reports[i] = Some(r);
        }
        sessions = sessions.add(&stats);
        for (g, fns) in axiomed {
            axiom_sets[g].extend(fns);
        }
    }
    // Lint-gated slots: `Failed` with the findings, no solver constructed.
    for (i, rep) in gated {
        reports[i] = Some(rep);
    }
    let mut functions: Vec<FnReport> = reports
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect();
    // A function outside the verification set (e.g. a decreases-less
    // recursive spec function with no contract) must still fail the run
    // when it carries error lints — soundness depends on it.
    for (_, f) in krate.all_functions() {
        if f.trusted || slotted.contains(f.name.as_str()) {
            continue;
        }
        let errors = lint.errors_for(&f.name);
        if !errors.is_empty() {
            functions.push(lint_gate_report(&f.name, &errors, Duration::ZERO));
        }
    }
    let mut lints = lint.diagnostics.clone();
    let run_lints = redundancy_lint(&axiom_sets);
    let mut lint_stats = lint.stats;
    for d in &run_lints {
        match d.severity {
            Severity::Error => lint_stats.errors += 1,
            Severity::Warning => lint_stats.warnings += 1,
            Severity::Note => lint_stats.notes += 1,
        }
    }
    lints.extend(run_lints);
    KrateReport {
        functions,
        wall_time: t0.elapsed(),
        sessions,
        lints,
        lint_stats,
    }
}

/// The spec-fn redundancy lint: a spec function axiomatized in more than
/// one module session of a single run was encoded more than once. With
/// per-module sessions this is the residual (cross-module) redundancy;
/// before sessions, every function re-encoded it silently. Reported once
/// per run as a single diagnostic listing each offender and its session
/// count.
fn redundancy_lint(axiom_sets: &[HashSet<String>]) -> Vec<Diagnostic> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for set in axiom_sets {
        for name in set {
            *counts.entry(name).or_default() += 1;
        }
    }
    let redundant: Vec<(&str, usize)> = counts.into_iter().filter(|&(_, n)| n > 1).collect();
    if redundant.is_empty() {
        return Vec::new();
    }
    let diag = Diagnostic::new(
        Severity::Note,
        lint_ids::REDUNDANT_SPEC_AXIOM,
        "krate",
        format!(
            "{} spec function{} axiomatized in more than one module session",
            redundant.len(),
            if redundant.len() == 1 { "" } else { "s" }
        ),
    )
    .with_items(
        redundant
            .into_iter()
            .map(|(name, n)| DiagItem::new(name, format!("{n} sessions")))
            .collect(),
    );
    vec![diag]
}

/// A function needs verification when it has a body to check or a contract
/// to establish (spec functions without ensures are definitional only).
fn needs_verification(f: &Function) -> bool {
    match f.mode {
        Mode::Exec | Mode::Proof => true,
        Mode::Spec => !f.ensures.is_empty(),
    }
}

fn render_counterexample(solver: &Solver, model: &veris_smt::solver::Model) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (&t, &v) in model.ints.iter() {
        if let veris_smt::term::TermKind::Var(sym, _) = solver.store.kind(t) {
            let name = solver.store.sym_name(*sym);
            if !name.contains('!') && !name.contains('<') {
                parts.push(format!("{name} = {v}"));
            }
        }
    }
    parts.sort();
    parts.truncate(12);
    if model.maybe_spurious {
        format!("possible counterexample: {{{}}}", parts.join(", "))
    } else {
        format!("counterexample: {{{}}}", parts.join(", "))
    }
}

/// F*-style monadic wrapping: extra definitional layers around the goal
/// that must be unfolded before the real work starts.
fn wrap_goal(solver: &mut Solver, goal: TermId, style: Style) -> TermId {
    let layers = style.wrapper_layers();
    if layers == 0 {
        return goal;
    }
    let b = solver.store.bool_sort();
    let mut cur = goal;
    for i in 0..layers {
        let f = solver
            .store
            .declare_fun(&format!("monad_wrap{i}"), vec![b], b);
        let bi = solver.store.fresh_bound_index();
        let bv = solver.store.mk_bound(bi, b);
        let appl = solver.store.mk_app(f, vec![bv]);
        let body = solver.store.mk_eq(appl, bv);
        let ax = solver.store.mk_forall(
            vec![(bi, b)],
            vec![vec![appl]],
            body,
            &format!("monad_wrap{i}_def"),
        );
        solver.assert(ax);
        cur = solver.store.mk_app(f, vec![cur]);
    }
    cur
}

/// Inject the query content that models each baseline's documented source
/// of solver work (see [`crate::style`]). All content consists of valid
/// assumptions — it cannot change the verification verdict, only the cost.
fn inject_style_noise(solver: &mut Solver, style: Style, assigns: &[AssignEvent]) {
    let n = assigns.len();
    if n == 0 && !style.permission_accounting() {
        return;
    }
    match style {
        Style::Verus => {}
        Style::DafnyLike | Style::FStarLike => {
            // Global-heap select/store chain with quantified frame axioms:
            // each update h_i -> h_{i+1} writes one location and must
            // preserve all others. E-matching instantiates each frame axiom
            // against every known location: O(n^2) work. Heap encodings
            // route *reads* through the heap as well — roughly 4 reads per
            // write in the list workloads (6 with the monadic wrapping) —
            // so the chain is proportionally longer than the write count.
            let steps = if style == Style::FStarLike {
                n * 6
            } else {
                n * 4
            };
            let loc = solver.store.uninterp_sort("HeapLoc");
            let heap = solver.store.uninterp_sort("Heap");
            let int = solver.store.int_sort();
            let sel = solver.store.declare_fun("heap_sel", vec![heap, loc], int);
            let mut h_prev = solver.store.mk_var("heap!0", heap);
            for i in 0..steps {
                let h_next = solver.store.mk_var(&format!("heap!{}", i + 1), heap);
                let l_i = solver.store.mk_var(&format!("loc!{}", i % n.max(1)), loc);
                let v_i = solver.store.mk_var(&format!("heapval!{i}"), int);
                let write = solver.store.mk_app(sel, vec![h_next, l_i]);
                let w_eq = solver.store.mk_eq(write, v_i);
                solver.assert(w_eq);
                let bi = solver.store.fresh_bound_index();
                let bl = solver.store.mk_bound(bi, loc);
                let sel_next = solver.store.mk_app(sel, vec![h_next, bl]);
                let sel_prev = solver.store.mk_app(sel, vec![h_prev, bl]);
                let neq = {
                    let eq = solver.store.mk_eq(bl, l_i);
                    solver.store.mk_not(eq)
                };
                let frame = solver.store.mk_eq(sel_next, sel_prev);
                let body = solver.store.mk_implies(neq, frame);
                let ax = solver.store.mk_forall(
                    vec![(bi, loc)],
                    vec![vec![sel_next]],
                    body,
                    &format!("heap_frame{i}"),
                );
                solver.assert(ax);
                h_prev = h_next;
            }
        }
        Style::PrustiLike => {
            // Permission re-verification: a fixed per-function re-encoding
            // cost (the Viper round trip re-checks the whole function's
            // ownership, giving Prusti the largest constant in Fig 7a) plus
            // per-update accounting.
            let loc = solver.store.uninterp_sort("PermLoc");
            let int = solver.store.int_sort();
            let units = n * 2 + 60;
            for i in 0..units {
                let acc = solver
                    .store
                    .declare_fun(&format!("acc!{i}"), vec![loc], int);
                let pred = solver.store.declare_fun(
                    &format!("pred!{i}"),
                    vec![loc],
                    solver.store.bool_sort(),
                );
                let bi = solver.store.fresh_bound_index();
                let bl = solver.store.mk_bound(bi, loc);
                let p = solver.store.mk_app(pred, vec![bl]);
                let a = solver.store.mk_app(acc, vec![bl]);
                let one = solver.store.mk_int(1);
                let geq = solver.store.mk_ge(a, one);
                let body = solver.store.mk_eq(p, geq);
                let ax = solver.store.mk_forall(
                    vec![(bi, loc)],
                    vec![vec![p]],
                    body,
                    &format!("perm_unfold{i}"),
                );
                solver.assert(ax);
                let l_i = solver
                    .store
                    .mk_var(&format!("permloc!{}", i % (n + 1)), loc);
                let pg = solver.store.mk_app(pred, vec![l_i]);
                let ag = solver.store.mk_app(acc, vec![l_i]);
                let one = solver.store.mk_int(1);
                let hold = solver.store.mk_eq(ag, one);
                solver.assert(hold);
                solver.assert(pg);
            }
        }
        Style::CreusotLike => {
            // Prophecy variables: each mutable update introduces a
            // current/final pair and a resolution equality — linear, cheap.
            let int = solver.store.int_sort();
            for i in 0..n {
                let cur = solver.store.mk_var(&format!("proph_cur!{i}"), int);
                let fin = solver.store.mk_var(&format!("proph_fin!{i}"), int);
                let eq = solver.store.mk_eq(cur, fin);
                solver.assert(eq);
            }
        }
    }
}
