//! The DPLL(T) solver: boolean search over theory atoms with lazy theory
//! checking (EUF + LIA at each full assignment) and round-based quantifier
//! instantiation (e-matching by default, universe saturation in EPR mode).
//!
//! Soundness note: `Unsat` answers rest only on learned clauses that are
//! valid theory lemmas (EUF/LIA explanations, instantiation clauses), so a
//! verification result of "proved" is trustworthy. `Sat` answers with
//! quantifiers present may be spurious (the model is reported with
//! `maybe_spurious = true`); the verification layer treats them as "not
//! proved" plus a best-effort counterexample.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use veris_obs::{Counter, QuantProfile, ResourceMeter};

use crate::euf::{Euf, NodeId};
use crate::lia::{LVar, Lia, LiaOutcome};
use crate::quant::{
    assemble_group, enumerate_matches, infer_triggers, match_group, match_step, pattern_head,
    ClassIndex, PatternHead, TriggerPolicy,
};
use crate::sat::{FinalCheck, LBool, Lit, SatLimits, SatResult, SatSolver};
use crate::term::{Quant, Sort, SortId, StoreMark, TermId, TermKind, TermStore};

/// An instantiation staged by an e-matching round: (quantifier proxy
/// literal, quantifier term, variable binding, instantiated body).
type PendingInstance = (Lit, TermId, Vec<(u32, TermId)>, TermId);

/// Per-quantifier instantiation dedup: a fingerprint fast-path over the
/// exact binding set, so the common already-seen candidate is rejected
/// without cloning the binding vector (the clone now happens only for
/// genuinely new instances, which need it anyway).
#[derive(Clone, Default)]
struct QuantInstances {
    fps: HashSet<u64>,
    exact: HashSet<Vec<(u32, TermId)>>,
}

/// FNV-1a over the (var, term) stream. A collision only costs a fall-through
/// to the exact set, never a wrong dedup verdict.
fn binding_fingerprint(b: &[(u32, TermId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(i, t) in b {
        for w in [i as u64, t.0 as u64] {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Cached e-matching state for one trigger group of one quantifier.
struct GroupCache {
    /// Per-pattern (head, high-water mark into that head's ground bucket).
    /// A `None` head (whole-body fallback trigger) can never match, so the
    /// group permanently yields no raw bindings — exactly `match_group`'s
    /// bail-out.
    pats: Vec<(Option<PatternHead>, usize)>,
    /// Raw (pre-assembly) bindings, as `match_group` would produce them
    /// over the watermarked prefix of each bucket.
    raw: Vec<Vec<(u32, TermId)>>,
    /// Whether the last (re)computation of `raw` consulted the class
    /// partition at all ([`ClassIndex`]'s consultation probe). Groups whose
    /// matching was decided purely syntactically — every bucket term matched
    /// on the first try, no repeated-variable class check, no class-member
    /// fallback — are pure functions of the term store and their buckets,
    /// so their cache survives class merges. The flag always describes the
    /// current `raw` contents (empty bindings are vacuously independent),
    /// so delta extensions OR in the probe rather than overwrite it.
    partition_dependent: bool,
}

/// Per-quantifier watermark cache. Partition-dependent groups are valid
/// only while the class index is unchanged (the solver resets them the
/// moment the partition moves); partition-independent groups survive.
struct QuantEmatch {
    groups: Vec<GroupCache>,
}

/// Persistent e-matching state. The class index survives across rounds and
/// is advanced by the *suffix* of newly-true equality atoms; per-quantifier
/// raw bindings survive until their ground buckets grow, and across class
/// merges too when the consultation probe proved them partition-independent.
/// Reset wholesale on [`Solver::pop`] (term ids above the mark are reused),
/// which also keeps module-session info counters identical to a fresh
/// solver's.
#[derive(Default)]
struct EmatchState {
    classes: ClassIndex,
    /// Equality pairs (in atom order) the class index was built from.
    eq_pairs: Vec<(TermId, TermId)>,
    quants: HashMap<TermId, QuantEmatch>,
}

/// Value-independent per-atom kernels cached across final checks: the
/// flattened subterm-registration plan, the dispatch shape, and the linear
/// decomposition rows. All three are pure functions of the term store, so
/// replaying them against a fresh `TheoryCtx` reproduces the batch
/// computation — same nodes, same order, same meter charges — while
/// skipping the per-check DAG re-traversal and `TermKind` clones.
#[derive(Default)]
struct TheoryKernelCache {
    reg: HashMap<TermId, Vec<TermId>>,
    dispatch: HashMap<TermId, AtomDispatch>,
    decomp: HashMap<TermId, (i128, Vec<(i128, TermId)>)>,
}

/// How `theory_final_check` routes one atom (pure function of its kind).
#[derive(Clone, Copy)]
enum AtomDispatch {
    Eq {
        a: TermId,
        b: TermId,
        int: bool,
    },
    Le0(TermId),
    /// Boolean-sorted application / datatype tester: merge with TRUE/FALSE.
    BoolMerge,
    Skip,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum quantifier-instantiation rounds before giving up.
    pub max_quant_rounds: usize,
    /// Cap on new instances per quantifier per round.
    pub max_instances_per_round: usize,
    /// Branch-and-bound node budget per LIA final check.
    pub lia_branch_nodes: usize,
    pub sat_limits: SatLimits,
    /// EPR mode: instantiate over the ground universe instead of e-matching;
    /// complete for stratified EPR problems.
    pub epr_mode: bool,
    /// Policy used when a quantifier arrives without triggers.
    pub trigger_policy: TriggerPolicy,
    /// Maximum instantiation generation (Z3-style fuel): a binding whose
    /// terms were created by generation-g instances may only instantiate
    /// further if g < max_generation. Bounds recursive definitional
    /// unfolding so rounds converge.
    pub max_generation: u32,
    /// Escape hatch: rebuild the e-matching class index and the theory
    /// context registration from scratch on every round / final check (the
    /// pre-incremental kernels). Verdicts, cores, and explain/profile bytes
    /// are identical either way — the kernel-parity test enforces it — but
    /// the batch path redoes work the incremental path skips.
    pub batch_kernels: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_quant_rounds: 12,
            max_instances_per_round: 3000,
            lia_branch_nodes: 6000,
            sat_limits: SatLimits::default(),
            epr_mode: false,
            trigger_policy: TriggerPolicy::Minimal,
            max_generation: 4,
            batch_kernels: false,
        }
    }
}

/// A (possibly partial) first-order model for diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub bools: HashMap<TermId, bool>,
    pub ints: HashMap<TermId, i128>,
    /// True when quantifiers were present and not saturated: the model may
    /// not satisfy them.
    pub maybe_spurious: bool,
    /// True when every asserted formula was re-evaluated under this model
    /// and found satisfied — the model is a genuine counterexample, not an
    /// artifact of incomplete theory reasoning.
    pub validated: bool,
}

/// Result of a `check` call.
#[derive(Clone, Debug)]
pub enum SmtResult {
    Unsat,
    Sat(Model),
    Unknown(String),
}

impl SmtResult {
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }
}

/// Cumulative statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub instantiations: u64,
    pub quant_rounds: u64,
    pub final_checks: u64,
}

/// The SMT solver. Owns the term store.
pub struct Solver {
    pub store: TermStore,
    config: Config,
    sat: SatSolver,
    /// Literal asserted true at the root (used as gate constant and as the
    /// "axiom" reason for built-in facts).
    lit_true: Lit,
    /// Tseitin cache over formula terms.
    tseitin: HashMap<TermId, Lit>,
    /// Theory atoms: term -> positive literal.
    lit_of_atom: HashMap<TermId, Lit>,
    atoms: Vec<(TermId, Lit)>,
    /// Universal quantifier proxies.
    quants: Vec<(TermId, Lit)>,
    quant_set: HashSet<TermId>,
    /// All registered (ground) terms.
    registered: HashSet<TermId>,
    /// Ground term index for e-matching.
    ground_index: HashMap<PatternHead, Vec<TermId>>,
    /// Ground terms by sort (EPR universe).
    ground_by_sort: HashMap<SortId, Vec<TermId>>,
    /// Seen instantiations per quantifier, with a fingerprint fast-path.
    instances: HashMap<TermId, QuantInstances>,
    /// Shared-argument equality atoms already materialized (theory
    /// combination).
    combo_splits: HashSet<(TermId, TermId)>,
    /// Instantiation generation of each term (absent = 0, i.e. original).
    term_gen: HashMap<TermId, u32>,
    /// Pending formulas to assert: (formula, from_axiom).
    queue: Vec<(TermId, bool)>,
    /// Terms whose div/mod axioms were generated.
    divmod_done: HashSet<TermId>,
    /// Terms whose datatype axioms were generated.
    dt_done: HashSet<TermId>,
    /// Int equalities with trichotomy lemma generated.
    tricho_done: HashSet<TermId>,
    /// Formulas asserted by the user (for the printer / query-size metric).
    pub asserted: Vec<TermId>,
    has_bv: bool,
    /// Surviving existentials encoded as unconstrained proxy atoms: a `Sat`
    /// model cannot account for them, so it is flagged `maybe_spurious`
    /// (an `Unsat` answer remains sound).
    has_opaque: bool,
    /// Labeled hypotheses: (provenance label, selector literal). Each
    /// labeled assertion is gated behind its selector; `check` passes the
    /// selectors as assumptions, and an `Unsat` answer yields the subset
    /// the refutation used (the unsat core).
    hypotheses: Vec<(String, Lit)>,
    /// Unsat core from the most recent `check`, as hypothesis labels in
    /// assertion order.
    last_core: Option<Vec<String>>,
    pub stats: Stats,
    /// Optional resource meter shared with the SAT core and theories; when
    /// its budget trips, `check` returns `Unknown` with the canonical
    /// `resource limit exceeded` message.
    meter: Option<Arc<ResourceMeter>>,
    /// Per-quantifier instantiation profile, accumulated across rounds.
    profile: QuantProfile,
    /// Open assertion frames (see [`Solver::push`]).
    frames: Vec<SolverFrame>,
    /// `VERIS_DEBUG_INST`, read once at construction.
    debug_inst: bool,
    /// Persistent watermark e-matching state (reset on [`Solver::pop`]).
    ematch: EmatchState,
    /// Persistent theory-kernel plans (reset on [`Solver::pop`]).
    theory_cache: TheoryKernelCache,
}

/// Snapshot of the formula-layer state for [`Solver::push`]/[`Solver::pop`].
///
/// The maps are cloned wholesale rather than trimmed by key watermarks: a
/// frame may *re-intern* a term that hashes to an existing id while adding
/// new facts about it (e.g. new `divmod_done`/`tricho_done` entries), so
/// value-watermark filtering cannot reconstruct the pre-push state exactly.
/// The term store itself is rolled back by allocation watermark, which keeps
/// post-pop id allocation identical to a fresh solver's.
struct SolverFrame {
    store_mark: StoreMark,
    tseitin: HashMap<TermId, Lit>,
    lit_of_atom: HashMap<TermId, Lit>,
    atoms_len: usize,
    quants_len: usize,
    quant_set: HashSet<TermId>,
    registered: HashSet<TermId>,
    ground_index: HashMap<PatternHead, Vec<TermId>>,
    ground_by_sort: HashMap<SortId, Vec<TermId>>,
    instances: HashMap<TermId, QuantInstances>,
    combo_splits: HashSet<(TermId, TermId)>,
    term_gen: HashMap<TermId, u32>,
    divmod_done: HashSet<TermId>,
    dt_done: HashSet<TermId>,
    tricho_done: HashSet<TermId>,
    asserted_len: usize,
    has_bv: bool,
    has_opaque: bool,
    hypotheses_len: usize,
    last_core: Option<Vec<String>>,
    stats: Stats,
    profile: QuantProfile,
}

impl Solver {
    pub fn new(config: Config) -> Solver {
        let mut sat = SatSolver::new();
        let v = sat.new_var();
        let lit_true = Lit::pos(v);
        sat.add_clause(vec![lit_true]);
        Solver {
            store: TermStore::new(),
            config,
            sat,
            lit_true,
            tseitin: HashMap::new(),
            lit_of_atom: HashMap::new(),
            atoms: Vec::new(),
            quants: Vec::new(),
            quant_set: HashSet::new(),
            registered: HashSet::new(),
            ground_index: HashMap::new(),
            ground_by_sort: HashMap::new(),
            instances: HashMap::new(),
            combo_splits: HashSet::new(),
            term_gen: HashMap::new(),
            queue: Vec::new(),
            divmod_done: HashSet::new(),
            dt_done: HashSet::new(),
            tricho_done: HashSet::new(),
            asserted: Vec::new(),
            has_bv: false,
            has_opaque: false,
            hypotheses: Vec::new(),
            last_core: None,
            stats: Stats::default(),
            meter: None,
            profile: QuantProfile::new(),
            frames: Vec::new(),
            debug_inst: std::env::var("VERIS_DEBUG_INST").is_ok(),
            ematch: EmatchState::default(),
            theory_cache: TheoryKernelCache::default(),
        }
    }

    /// Open an assertion frame. Everything asserted, encoded, or learnt
    /// until the matching [`Solver::pop`] is rolled back exactly — the
    /// popped solver is indistinguishable (down to term-id and SAT-variable
    /// allocation, statistics, and search state) from one that never saw
    /// the frame. This is what lets a module session verify many functions
    /// against one shared context encoding while reproducing fresh-solver
    /// verdicts, cores, and meter charges byte for byte.
    pub fn push(&mut self) {
        self.drain_queue();
        self.sat.push();
        self.frames.push(SolverFrame {
            store_mark: self.store.mark(),
            tseitin: self.tseitin.clone(),
            lit_of_atom: self.lit_of_atom.clone(),
            atoms_len: self.atoms.len(),
            quants_len: self.quants.len(),
            quant_set: self.quant_set.clone(),
            registered: self.registered.clone(),
            ground_index: self.ground_index.clone(),
            ground_by_sort: self.ground_by_sort.clone(),
            instances: self.instances.clone(),
            combo_splits: self.combo_splits.clone(),
            term_gen: self.term_gen.clone(),
            divmod_done: self.divmod_done.clone(),
            dt_done: self.dt_done.clone(),
            tricho_done: self.tricho_done.clone(),
            asserted_len: self.asserted.len(),
            has_bv: self.has_bv,
            has_opaque: self.has_opaque,
            hypotheses_len: self.hypotheses.len(),
            last_core: self.last_core.clone(),
            stats: self.stats,
            profile: self.profile.clone(),
        });
    }

    /// Close the innermost assertion frame (see [`Solver::push`]).
    ///
    /// # Panics
    /// Panics if no frame is open.
    pub fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        self.sat.pop();
        self.store.truncate_to(&f.store_mark);
        self.tseitin = f.tseitin;
        self.lit_of_atom = f.lit_of_atom;
        self.atoms.truncate(f.atoms_len);
        self.quants.truncate(f.quants_len);
        self.quant_set = f.quant_set;
        self.registered = f.registered;
        self.ground_index = f.ground_index;
        self.ground_by_sort = f.ground_by_sort;
        self.instances = f.instances;
        self.combo_splits = f.combo_splits;
        self.term_gen = f.term_gen;
        self.divmod_done = f.divmod_done;
        self.dt_done = f.dt_done;
        self.tricho_done = f.tricho_done;
        self.asserted.truncate(f.asserted_len);
        self.has_bv = f.has_bv;
        self.has_opaque = f.has_opaque;
        self.hypotheses.truncate(f.hypotheses_len);
        self.last_core = f.last_core;
        self.stats = f.stats;
        self.profile = f.profile;
        self.queue.clear();
        // Kernel caches reference term ids the truncation just freed for
        // reuse — drop them wholesale. A fresh solver also starts every
        // check with empty caches, so reuse counters replay identically in
        // module sessions.
        self.ematch = EmatchState::default();
        self.theory_cache = TheoryKernelCache::default();
    }

    /// Number of open assertion frames.
    pub fn depth(&self) -> u32 {
        self.frames.len() as u32
    }

    /// Attach a resource meter. The SAT core, congruence closure, simplex,
    /// and the quantifier engine all charge it; call before `check`.
    pub fn set_meter(&mut self, meter: Arc<ResourceMeter>) {
        self.sat.set_meter(meter.clone());
        self.meter = Some(meter);
    }

    pub fn meter(&self) -> Option<&Arc<ResourceMeter>> {
        self.meter.as_ref()
    }

    /// Quantifier-instantiation profile accumulated so far.
    pub fn profile(&self) -> &QuantProfile {
        &self.profile
    }

    pub fn with_defaults() -> Solver {
        Solver::new(Config::default())
    }

    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Assert a boolean formula.
    pub fn assert(&mut self, t: TermId) {
        debug_assert_eq!(self.store.sort_of(t), self.store.bool_sort());
        self.asserted.push(t);
        self.queue.push((t, false));
        self.drain_queue();
    }

    /// Assert a boolean formula under a provenance label. The formula is
    /// gated behind a fresh selector literal passed to the SAT core as an
    /// assumption, so an `Unsat` verdict can report, via
    /// [`Solver::unsat_core`], which labeled hypotheses the refutation
    /// actually used. Side axioms generated during encoding (ite lifting,
    /// trichotomy, datatype structure) stay unconditional.
    pub fn assert_labeled(&mut self, t: TermId, label: &str) {
        debug_assert_eq!(self.store.sort_of(t), self.store.bool_sort());
        self.asserted.push(t);
        let lit = self.encode_formula(t, false);
        let sel = self.fresh_lit();
        self.sat.add_clause(vec![sel.negate(), lit]);
        self.hypotheses.push((label.to_owned(), sel));
        self.drain_queue();
    }

    /// Labels of every hypothesis asserted via [`Solver::assert_labeled`],
    /// in assertion order.
    pub fn hypothesis_labels(&self) -> Vec<String> {
        self.hypotheses.iter().map(|(n, _)| n.clone()).collect()
    }

    /// After an `Unsat` answer from [`Solver::check`]: the labels of the
    /// hypotheses the refutation depends on, in assertion order. `None`
    /// before the first unsat check.
    pub fn unsat_core(&self) -> Option<&[String]> {
        self.last_core.as_deref()
    }

    fn drain_queue(&mut self) {
        while let Some((f, from_axiom)) = self.queue.pop() {
            let lit = self.encode_formula(f, from_axiom);
            self.sat.add_clause(vec![lit]);
        }
    }

    /// Preprocess (ite-lift + NNF/skolemize) and tseitin-encode a formula.
    fn encode_formula(&mut self, f: TermId, from_axiom: bool) -> Lit {
        let mut cache = HashMap::new();
        let f = self.lift_ites(f, from_axiom, &mut cache);
        let f = self.nnf(f, true, &[]);
        self.encode(f, from_axiom)
    }

    // ------------------------------------------------------------------
    // Preprocessing
    // ------------------------------------------------------------------

    /// Replace ground non-boolean `ite` terms with fresh constants defined
    /// by queued side assertions.
    fn lift_ites(
        &mut self,
        t: TermId,
        from_axiom: bool,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let kids = self.store.children(t);
        let new_kids: Vec<TermId> = kids
            .iter()
            .map(|&k| self.lift_ites(k, from_axiom, cache))
            .collect();
        let mut t2 = self.store.rebuild(t, &new_kids);
        if let TermKind::Ite(c, a, b) = *self.store.kind(t2) {
            if self.store.sort_of(t2) != self.store.bool_sort() && !self.store.has_bound_var(t2) {
                let sort = self.store.sort_of(t2);
                let v = self.store.mk_fresh_var("ite", sort);
                let eq_a = self.store.mk_eq(v, a);
                let eq_b = self.store.mk_eq(v, b);
                let pos = self.store.mk_implies(c, eq_a);
                let nc = self.store.mk_not(c);
                let neg = self.store.mk_implies(nc, eq_b);
                self.queue.push((pos, from_axiom));
                self.queue.push((neg, from_axiom));
                t2 = v;
            }
        }
        cache.insert(t, t2);
        t2
    }

    fn contains_quantifier(&self, t: TermId) -> bool {
        if matches!(self.store.kind(t), TermKind::Quantifier(_)) {
            return true;
        }
        self.store
            .children(t)
            .into_iter()
            .any(|c| self.contains_quantifier(c))
    }

    /// Negation normal form with polarity-aware skolemization. `univs` lists
    /// the universal binders in scope (after polarity normalization).
    fn nnf(&mut self, t: TermId, pol: bool, univs: &[(u32, SortId)]) -> TermId {
        let kind = self.store.kind(t).clone();
        match kind {
            TermKind::Not(a) => self.nnf(a, !pol, univs),
            TermKind::BoolConst(b) => self.store.mk_bool(b == pol),
            TermKind::And(parts) => {
                let parts: Vec<TermId> = parts.iter().map(|&p| self.nnf(p, pol, univs)).collect();
                if pol {
                    self.store.mk_and(parts)
                } else {
                    self.store.mk_or(parts)
                }
            }
            TermKind::Or(parts) => {
                let parts: Vec<TermId> = parts.iter().map(|&p| self.nnf(p, pol, univs)).collect();
                if pol {
                    self.store.mk_or(parts)
                } else {
                    self.store.mk_and(parts)
                }
            }
            TermKind::Implies(a, b) => {
                let na = self.nnf(a, !pol, univs);
                let nb = self.nnf(b, pol, univs);
                if pol {
                    self.store.mk_or(vec![na, nb])
                } else {
                    self.store.mk_and(vec![na, nb])
                }
            }
            TermKind::Eq(a, b) if self.store.sort_of(a) == self.store.bool_sort() => {
                if self.contains_quantifier(a) || self.contains_quantifier(b) {
                    // Expand iff so quantifier polarities are definite.
                    let fwd = self.store.mk_implies(a, b);
                    let bwd = self.store.mk_implies(b, a);
                    let both = self.store.mk_and(vec![fwd, bwd]);
                    self.nnf(both, pol, univs)
                } else if pol {
                    t
                } else {
                    self.store.mk_not(t)
                }
            }
            TermKind::Distinct(parts) => {
                let mut neqs = Vec::new();
                for i in 0..parts.len() {
                    for j in (i + 1)..parts.len() {
                        let eq = self.store.mk_eq(parts[i], parts[j]);
                        let ne = self.store.mk_not(eq);
                        neqs.push(self.nnf(ne, pol, univs));
                    }
                }
                if pol {
                    self.store.mk_and(neqs)
                } else {
                    self.store.mk_or(neqs)
                }
            }
            TermKind::Quantifier(q) => {
                let stays_universal = q.is_forall == pol;
                if stays_universal {
                    let mut inner = univs.to_vec();
                    inner.extend(q.vars.iter().copied());
                    let body = self.nnf(q.body, pol, &inner);
                    let triggers = if q.triggers.is_empty() {
                        infer_triggers(&self.store, &q.vars, body, self.config.trigger_policy)
                    } else {
                        q.triggers.clone()
                    };
                    let qid = self.store.sym_name(q.qid).to_owned();
                    self.store.mk_forall(q.vars.clone(), triggers, body, &qid)
                } else {
                    // Existential (after polarity): skolemize over `univs`.
                    let mut subst = Vec::new();
                    for &(idx, sort) in &q.vars {
                        let sk = if univs.is_empty() {
                            self.store.mk_fresh_var("sk", sort)
                        } else {
                            let args: Vec<SortId> = univs.iter().map(|&(_, s)| s).collect();
                            let name = {
                                let sym = self.store.fresh_sym("sk");
                                self.store.sym_name(sym).to_owned()
                            };
                            let func = self.store.declare_fun(&name, args, sort);
                            let arg_terms: Vec<TermId> = univs
                                .iter()
                                .map(|&(i, s)| self.store.mk_bound(i, s))
                                .collect();
                            self.store.mk_app(func, arg_terms)
                        };
                        subst.push((idx, sk));
                    }
                    let body = self.store.substitute(q.body, &subst);
                    self.nnf(body, pol, univs)
                }
            }
            // Atoms.
            _ => {
                if pol {
                    t
                } else {
                    self.store.mk_not(t)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Tseitin encoding
    // ------------------------------------------------------------------

    fn fresh_lit(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn encode(&mut self, t: TermId, from_axiom: bool) -> Lit {
        if let Some(&l) = self.tseitin.get(&t) {
            return l;
        }
        let kind = self.store.kind(t).clone();
        let lit = match kind {
            TermKind::BoolConst(b) => {
                if b {
                    self.lit_true
                } else {
                    self.lit_true.negate()
                }
            }
            TermKind::Not(a) => self.encode(a, from_axiom).negate(),
            TermKind::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|&p| self.encode(p, from_axiom)).collect();
                let o = self.fresh_lit();
                let mut big = vec![o];
                for &l in &lits {
                    self.sat.add_clause(vec![o.negate(), l]);
                    big.push(l.negate());
                }
                self.sat.add_clause(big);
                o
            }
            TermKind::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|&p| self.encode(p, from_axiom)).collect();
                let o = self.fresh_lit();
                let mut big = vec![o.negate()];
                for &l in &lits {
                    self.sat.add_clause(vec![o, l.negate()]);
                    big.push(l);
                }
                self.sat.add_clause(big);
                o
            }
            TermKind::Implies(a, b) => {
                let la = self.encode(a, from_axiom);
                let lb = self.encode(b, from_axiom);
                let o = self.fresh_lit();
                self.sat.add_clause(vec![o.negate(), la.negate(), lb]);
                self.sat.add_clause(vec![o, la]);
                self.sat.add_clause(vec![o, lb.negate()]);
                o
            }
            TermKind::Eq(a, b) if self.store.sort_of(a) == self.store.bool_sort() => {
                let la = self.encode(a, from_axiom);
                let lb = self.encode(b, from_axiom);
                let o = self.fresh_lit();
                self.sat.add_clause(vec![o.negate(), la.negate(), lb]);
                self.sat.add_clause(vec![o.negate(), la, lb.negate()]);
                self.sat.add_clause(vec![o, la, lb]);
                self.sat.add_clause(vec![o, la.negate(), lb.negate()]);
                o
            }
            TermKind::Quantifier(ref q) => {
                if q.is_forall {
                    let proxy = self.fresh_lit();
                    if self.quant_set.insert(t) {
                        self.quants.push((t, proxy));
                        // Register trigger heads' ground subterms? No:
                        // triggers contain bound vars; ground terms come
                        // from atoms.
                    } else {
                        // Same quantifier term encoded before: reuse proxy.
                        let existing = self
                            .quants
                            .iter()
                            .find(|&&(qt, _)| qt == t)
                            .map(|&(_, p)| p)
                            .expect("quant proxy");
                        self.tseitin.insert(t, existing);
                        return existing;
                    }
                    proxy
                } else {
                    // A surviving existential (under an iff without
                    // quantifier-free expansion) — treat as an unconstrained
                    // atom. Sound for Unsat; on the Sat side the model is
                    // flagged `maybe_spurious` (the proxy carries no
                    // semantics) and model validation keeps it honest.
                    self.has_opaque = true;
                    self.fresh_lit()
                }
            }
            // Theory atom.
            _ => {
                if let Some(&l) = self.lit_of_atom.get(&t) {
                    l
                } else {
                    let l = self.fresh_lit();
                    self.lit_of_atom.insert(t, l);
                    self.atoms.push((t, l));
                    self.register_term(t, from_axiom);
                    self.generate_atom_axioms(t, from_axiom);
                    l
                }
            }
        };
        self.tseitin.insert(t, lit);
        lit
    }

    /// Register a ground term (and subterms) for theory dispatch, the
    /// e-matching index, and the EPR universe; queue structural axioms.
    fn register_term(&mut self, t: TermId, from_axiom: bool) {
        if self.registered.contains(&t) {
            return;
        }
        if self.store.has_bound_var(t) {
            return;
        }
        self.registered.insert(t);
        match self.store.kind(t).clone() {
            TermKind::Quantifier(_) => return, // bodies register on instantiation
            TermKind::BvNot(_)
            | TermKind::BvAnd(..)
            | TermKind::BvOr(..)
            | TermKind::BvXor(..)
            | TermKind::BvAdd(..)
            | TermKind::BvSub(..)
            | TermKind::BvMul(..)
            | TermKind::BvUdiv(..)
            | TermKind::BvUrem(..)
            | TermKind::BvShl(..)
            | TermKind::BvLshr(..)
            | TermKind::BvUle(..)
            | TermKind::BvUlt(..)
            | TermKind::BvConst { .. } => {
                self.has_bv = true;
            }
            TermKind::IntDiv(a, b) | TermKind::IntMod(a, b) if self.divmod_done.insert(t) => {
                self.queue_divmod_axiom(a, b);
            }
            _ => {}
        }
        for c in self.store.children(t) {
            self.register_term(c, from_axiom);
        }
        // Ground index for e-matching.
        if let Some(h) = pattern_head(&self.store, t) {
            self.ground_index.entry(h).or_default().push(t);
        }
        // EPR universe: every ground term by sort.
        let sort = self.store.sort_of(t);
        let entry = self.ground_by_sort.entry(sort).or_default();
        if !entry.contains(&t) {
            entry.push(t);
        }
        // Datatype structural axioms (skip for axiom-created terms to
        // terminate on recursive datatypes).
        if !from_axiom {
            if let Sort::Datatype(dt) = *self.store.sort_data(sort) {
                if self.dt_done.insert(t) {
                    self.queue_datatype_axioms(dt, t);
                }
            }
        }
    }

    fn generate_atom_axioms(&mut self, t: TermId, _from_axiom: bool) {
        // Integer equality trichotomy: (a = b) ∨ (a < b) ∨ (b < a).
        if let TermKind::Eq(a, b) = *self.store.kind(t) {
            if self.store.sort_of(a) == self.store.int_sort() && self.tricho_done.insert(t) {
                let lt = self.store.mk_lt(a, b);
                let gt = self.store.mk_lt(b, a);
                let tri = self.store.mk_or(vec![t, lt, gt]);
                self.queue.push((tri, true));
            }
        }
    }

    fn queue_divmod_axiom(&mut self, a: TermId, b: TermId) {
        // q = a div b, r = a mod b:  b != 0 ==> a = b*q + r  /\  0 <= r < |b|
        let q = self.store.mk_int_div(a, b);
        let r = self.store.mk_int_mod(a, b);
        let bq = self.store.mk_mul(b, q);
        let sum = self.store.mk_add(vec![bq, r]);
        let defn = self.store.mk_eq(a, sum);
        let zero = self.store.mk_int(0);
        let r_lo = self.store.mk_le(zero, r);
        // |b|: encode r < b when b > 0, r < -b when b < 0.
        let b_pos = self.store.mk_lt(zero, b);
        let b_neg = self.store.mk_lt(b, zero);
        let r_lt_b = self.store.mk_lt(r, b);
        let nb = self.store.mk_neg(b);
        let r_lt_nb = self.store.mk_lt(r, nb);
        let hi_pos = self.store.mk_implies(b_pos, r_lt_b);
        let hi_neg = self.store.mk_implies(b_neg, r_lt_nb);
        let body = self.store.mk_and(vec![defn, r_lo, hi_pos, hi_neg]);
        let b_nonzero = self.store.mk_eq(b, zero);
        let guard = self.store.mk_not(b_nonzero);
        let axiom = self.store.mk_implies(guard, body);
        self.queue.push((axiom, true));
    }

    fn queue_datatype_axioms(&mut self, dt: crate::term::DatatypeId, t: TermId) {
        let nctors = self.store.datatype(dt).constructors.len();
        // Exhaustiveness.
        let tests: Vec<TermId> = (0..nctors)
            .map(|c| self.store.mk_dt_test(dt, c as u32, t))
            .collect();
        let exh = self.store.mk_or(tests.clone());
        self.queue.push((exh, true));
        // Pairwise exclusivity.
        for i in 0..nctors {
            for j in (i + 1)..nctors {
                let ni = self.store.mk_not(tests[i]);
                let nj = self.store.mk_not(tests[j]);
                let cl = self.store.mk_or(vec![ni, nj]);
                self.queue.push((cl, true));
            }
        }
        // Tester implies constructor-of-selectors (gives injectivity).
        for (c, &test) in tests.iter().enumerate().take(nctors) {
            let nfields = self.store.datatype(dt).constructors[c].fields.len();
            let sels: Vec<TermId> = (0..nfields)
                .map(|f| self.store.mk_dt_sel(dt, c as u32, f as u32, t))
                .collect();
            let ctor = self.store.mk_dt_ctor(dt, c as u32, sels);
            let eq = self.store.mk_eq(t, ctor);
            let ax = self.store.mk_implies(test, eq);
            self.queue.push((ax, true));
        }
    }

    // ------------------------------------------------------------------
    // Check
    // ------------------------------------------------------------------

    /// Check satisfiability of all asserted formulas.
    pub fn check(&mut self) -> SmtResult {
        self.drain_queue();
        self.last_core = None;
        if self.has_bv {
            return SmtResult::Unknown(
                "bit-vector or unsupported atoms present; use the bit-blasting solver".into(),
            );
        }
        let assumptions: Vec<Lit> = self.hypotheses.iter().map(|&(_, l)| l).collect();
        let max_rounds = self.config.max_quant_rounds;
        for _round in 0..=max_rounds {
            if let Some(m) = &self.meter {
                if m.check("solver") {
                    return SmtResult::Unknown(m.exhaustion_message());
                }
            }
            self.stats.quant_rounds += 1;
            let mut last_model: Option<HashMap<TermId, i128>> = None;
            let mut theory_unknown = false;
            let outcome = {
                let store = &self.store;
                let atoms = &self.atoms;
                let lia_budget = self.config.lia_branch_nodes;
                let axiom_lit = self.lit_true;
                let stats = &mut self.stats;
                let sat = &mut self.sat;
                let meter = self.meter.clone();
                let theory_cache = &mut self.theory_cache;
                let batch = self.config.batch_kernels;
                sat.solve_with_assumptions(self.config.sat_limits, &assumptions, |satref| {
                    stats.final_checks += 1;
                    match theory_final_check(
                        store,
                        atoms,
                        satref,
                        lia_budget,
                        axiom_lit,
                        meter.as_ref(),
                        theory_cache,
                        batch,
                    ) {
                        TheoryVerdict::Consistent(model) => {
                            last_model = Some(model);
                            FinalCheck::Consistent
                        }
                        TheoryVerdict::Conflict(clause) => FinalCheck::Conflict(clause),
                        TheoryVerdict::Unknown => {
                            theory_unknown = true;
                            FinalCheck::Consistent
                        }
                    }
                })
            };
            self.stats.decisions = self.sat.decisions;
            self.stats.conflicts = self.sat.conflicts;
            self.stats.propagations = self.sat.propagations;
            match outcome {
                SatResult::Unsat => {
                    let core: HashSet<Lit> = self.sat.core().iter().copied().collect();
                    self.last_core = Some(
                        self.hypotheses
                            .iter()
                            .filter(|&&(_, l)| core.contains(&l))
                            .map(|(n, _)| n.clone())
                            .collect(),
                    );
                    return SmtResult::Unsat;
                }
                SatResult::Unknown => {
                    if let Some(m) = &self.meter {
                        if m.exhausted() {
                            return SmtResult::Unknown(m.exhaustion_message());
                        }
                    }
                    return SmtResult::Unknown(format!(
                        "sat conflict limit exceeded (max_conflicts={})",
                        self.config.sat_limits.max_conflicts
                    ));
                }
                SatResult::Sat => {
                    if theory_unknown {
                        if let Some(m) = &self.meter {
                            if m.exhausted() {
                                return SmtResult::Unknown(m.exhaustion_message());
                            }
                        }
                        return SmtResult::Unknown("theory budget exceeded".into());
                    }
                    let added = self.instantiate_round() + self.combination_round();
                    // Exhaustion during instantiation can cut a round short;
                    // a zero count then must not be read as saturation.
                    if let Some(m) = &self.meter {
                        if m.check("ematch") {
                            return SmtResult::Unknown(m.exhaustion_message());
                        }
                    }
                    if added == 0 {
                        let mut model = Model::default();
                        for &(t, l) in &self.atoms {
                            if let LBool::True = self.sat.value(l) {
                                model.bools.insert(t, true);
                            } else {
                                model.bools.insert(t, false);
                            }
                        }
                        if let Some(ints) = last_model {
                            model.ints = ints;
                        }
                        let any_quant = self
                            .quants
                            .iter()
                            .any(|&(_, p)| self.sat.value(p) == LBool::True);
                        model.maybe_spurious =
                            (any_quant && !self.config.epr_mode) || self.has_opaque;
                        // Validate: re-evaluate every asserted formula under
                        // the candidate model. A definite violation means
                        // the theory layer accepted a bogus assignment
                        // (e.g. nonlinear arithmetic beyond simplex) — do
                        // not report it as a counterexample.
                        match self.validate_model(&model) {
                            Validation::Violated(t) => {
                                return SmtResult::Unknown(format!(
                                    "candidate model failed validation on `{}`",
                                    self.store.display(t)
                                ));
                            }
                            Validation::Valid => {
                                model.validated = true;
                                model.maybe_spurious = false;
                            }
                            Validation::Indeterminate => {
                                // In EPR mode saturation is complete, so an
                                // unevaluable quantifier does not make the
                                // model suspect.
                                if !self.config.epr_mode {
                                    model.maybe_spurious = true;
                                }
                            }
                        }
                        return SmtResult::Sat(model);
                    }
                    // else: loop and re-solve with the new instances.
                }
            }
        }
        SmtResult::Unknown("instantiation rounds exhausted".into())
    }

    /// One instantiation round; returns the number of new instances.
    fn instantiate_round(&mut self) -> usize {
        if let Some(m) = &self.meter {
            m.charge(Counter::EmatchRounds, 1);
        }
        // Equivalence classes from equality atoms true in the current model:
        // matching happens modulo these (poor man's e-graph). The batch path
        // rebuilds them from every true equality each round; the incremental
        // path advances a persistent index by the newly-true suffix.
        let batch = self.config.batch_kernels || self.config.epr_mode;
        let mut state = if batch {
            EmatchState::default()
        } else {
            std::mem::take(&mut self.ematch)
        };
        if batch {
            for &(t, lit) in &self.atoms {
                if self.sat.value(lit) == LBool::True {
                    if let TermKind::Eq(a, b) = self.store.kind(t) {
                        state.classes.union(*a, *b);
                    }
                }
            }
        } else {
            self.advance_classes(&mut state);
        }
        let limit = self.config.max_instances_per_round;
        let mut new_instances: Vec<PendingInstance> = Vec::new();
        for qi in 0..self.quants.len() {
            let (qterm, proxy) = self.quants[qi];
            if self.sat.value(proxy) != LBool::True {
                continue;
            }
            let q = match self.store.kind(qterm) {
                TermKind::Quantifier(q) => q.clone(),
                _ => unreachable!("quant table holds quantifiers"),
            };
            let bindings = if self.config.epr_mode {
                self.epr_bindings(&q)
            } else if batch {
                enumerate_matches(&self.store, &state.classes, &q, &self.ground_index, limit)
            } else {
                self.watermark_matches(&state.classes, &mut state.quants, qterm, &q, limit)
            };
            let qname = self.store.sym_name(q.qid).to_owned();
            self.profile.record(&qname, 0, bindings.len() as u64, 0);
            for b in bindings {
                // Generation cap: bindings built from deeply derived terms
                // do not instantiate further (bounds recursive unfolding).
                let bgen = b
                    .iter()
                    .map(|&(_, t)| self.term_gen.get(&t).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                if bgen >= self.config.max_generation {
                    continue;
                }
                {
                    let qinst = self.instances.entry(qterm).or_default();
                    let fp = binding_fingerprint(&b);
                    if qinst.fps.contains(&fp) && qinst.exact.contains(b.as_slice()) {
                        continue;
                    }
                    qinst.fps.insert(fp);
                    qinst.exact.insert(b.clone());
                }
                let inst = self.store.substitute(q.body, &b);
                new_instances.push((proxy, qterm, b, inst));
                if new_instances.len() >= limit {
                    break;
                }
            }
        }
        if !batch {
            self.ematch = state;
        }
        let n = new_instances.len();
        if self.debug_inst {
            for (_, q, b, _) in &new_instances {
                if let TermKind::Quantifier(qd) = self.store.kind(*q) {
                    eprintln!(
                        "inst {} with {:?}",
                        self.store.sym_name(qd.qid),
                        b.iter()
                            .map(|&(i, t)| format!("{}={}", i, self.store.display(t)))
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
        for (proxy, q, b, inst) in new_instances {
            self.stats.instantiations += 1;
            if let Some(m) = &self.meter {
                m.charge(Counter::Instantiations, 1);
            }
            let bgen = b
                .iter()
                .map(|&(_, t)| self.term_gen.get(&t).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if let TermKind::Quantifier(qd) = self.store.kind(q) {
                let qname = self.store.sym_name(qd.qid).to_owned();
                self.profile.record(&qname, 1, 0, bgen + 1);
            }
            let before = self.store.num_terms();
            let l = self.encode_formula(inst, false);
            self.drain_queue_no_recurse();
            // Terms created by this instance inherit generation bgen + 1.
            let after = self.store.num_terms();
            for id in before as u32..after as u32 {
                self.term_gen.entry(TermId(id)).or_insert(bgen + 1);
            }
            self.sat.add_clause(vec![proxy.negate(), l]);
        }
        n
    }

    /// Advance the persistent class index by the suffix of newly-true
    /// equality atoms. Pairs are collected in atom order, so when the
    /// previous round's list is a prefix of this round's, replaying only
    /// the suffix leaves the index byte-identical to a fresh build over the
    /// full list (same union sequence ⇒ same parent links and member
    /// order, which matching depends on). Any other change — an equality
    /// went false under the new boolean model — forces a fresh rebuild.
    /// Whenever the partition actually moved, every *partition-dependent*
    /// cached binding set is invalidated (matching is modulo these
    /// classes); groups the consultation probe proved syntactic keep their
    /// watermarks.
    fn advance_classes(&self, state: &mut EmatchState) {
        let mut cur: Vec<(TermId, TermId)> = Vec::new();
        for &(t, lit) in &self.atoms {
            if self.sat.value(lit) == LBool::True {
                if let TermKind::Eq(a, b) = self.store.kind(t) {
                    cur.push((*a, *b));
                }
            }
        }
        let is_prefix =
            cur.len() >= state.eq_pairs.len() && cur[..state.eq_pairs.len()] == state.eq_pairs[..];
        let mut changed = false;
        if is_prefix {
            for &(a, b) in &cur[state.eq_pairs.len()..] {
                if state.classes.find(a) != state.classes.find(b) {
                    changed = true;
                }
                state.classes.union(a, b);
            }
        } else {
            state.classes = ClassIndex::new();
            for &(a, b) in &cur {
                state.classes.union(a, b);
            }
            changed = true;
        }
        if changed {
            // Partition moved: reset every cached group whose matches
            // consulted the old partition (their raw bindings may be stale
            // in value or order). Partition-independent groups — decided
            // purely syntactically — keep their watermarks and bindings.
            for qc in state.quants.values_mut() {
                for g in &mut qc.groups {
                    if g.partition_dependent {
                        g.raw.clear();
                        g.partition_dependent = false;
                        for p in &mut g.pats {
                            p.1 = 0;
                        }
                    }
                }
            }
        }
        state.eq_pairs = cur;
    }

    /// Watermark e-matching for one quantifier: serve, delta-extend, or
    /// recompute each trigger group's raw bindings against the ground
    /// index, then run the batch assembly tail over them. The output is
    /// value- and order-identical to `enumerate_matches` over the full
    /// index:
    ///
    /// - a group none of whose buckets grew is served from cache (its raw
    ///   bindings are exactly what the batch fold would recompute);
    /// - a single-pattern group whose bucket grew is extended over
    ///   `bucket[wm..]` only, seeding the fold with the cached prefix
    ///   result — unless its per-group limit already fired inside the old
    ///   prefix, in which case the batch fold over the grown bucket breaks
    ///   at the same element and the cache is served frozen;
    /// - a multi-pattern group whose buckets grew is recomputed in full
    ///   (cross-product deltas would not preserve binding order).
    ///
    /// Work skipped by served/extended groups is charged to the
    /// informational `ematch-skipped` counter (never budgeted, never
    /// serialized into profile/explain JSON).
    fn watermark_matches(
        &self,
        classes: &ClassIndex,
        quants: &mut HashMap<TermId, QuantEmatch>,
        qterm: TermId,
        q: &Quant,
        limit: usize,
    ) -> Vec<Vec<(u32, TermId)>> {
        let qc = quants
            .entry(qterm)
            .or_insert_with(|| QuantEmatch { groups: Vec::new() });
        if qc.groups.len() != q.triggers.len() {
            qc.groups = q
                .triggers
                .iter()
                .map(|group| GroupCache {
                    pats: group
                        .iter()
                        .map(|&p| (pattern_head(&self.store, p), 0usize))
                        .collect(),
                    raw: Vec::new(),
                    partition_dependent: false,
                })
                .collect();
        }
        let mut skipped: u64 = 0;
        for (gi, g) in qc.groups.iter_mut().enumerate() {
            if g.pats.iter().any(|&(h, _)| h.is_none()) {
                // Unmatchable pattern: the group yields nothing, ever.
                continue;
            }
            let lens: Vec<usize> = g
                .pats
                .iter()
                .map(|&(h, _)| {
                    self.ground_index
                        .get(&h.expect("checked above"))
                        .map_or(0, |b| b.len())
                })
                .collect();
            debug_assert!(
                g.pats.iter().zip(&lens).all(|(&(_, wm), &len)| len >= wm),
                "ground buckets never shrink within a frame"
            );
            let unchanged = g.pats.iter().zip(&lens).all(|(&(_, wm), &len)| len == wm);
            if unchanged {
                skipped += g.pats.iter().map(|&(_, wm)| wm as u64).sum::<u64>();
                continue;
            }
            let group = &q.triggers[gi];
            if group.len() == 1 {
                if g.raw.len() > limit {
                    // Limit fired inside the cached prefix; the batch fold
                    // over the grown bucket breaks at the same element.
                    skipped += g.pats[0].1 as u64;
                    continue;
                }
                let head = g.pats[0].0.expect("checked above");
                let wm = g.pats[0].1;
                let bucket = self.ground_index.get(&head).expect("len > 0 bucket");
                skipped += wm as u64;
                let seed: [Vec<(u32, TermId)>; 1] = [Vec::new()];
                let mut next = std::mem::take(&mut g.raw);
                classes.reset_probe();
                match_step(
                    &self.store,
                    classes,
                    group[0],
                    &seed,
                    &bucket[wm..],
                    limit,
                    &mut next,
                );
                g.partition_dependent |= classes.probed();
                g.raw = next;
                g.pats[0].1 = lens[0];
            } else {
                classes.reset_probe();
                g.raw = match_group(&self.store, classes, group, &self.ground_index, limit);
                g.partition_dependent = classes.probed();
                for (p, &len) in g.pats.iter_mut().zip(&lens) {
                    p.1 = len;
                }
            }
        }
        if skipped > 0 {
            if let Some(m) = &self.meter {
                m.charge(Counter::EmatchSkipped, skipped);
            }
        }
        let mut out: Vec<Vec<(u32, TermId)>> = Vec::new();
        for g in &qc.groups {
            if assemble_group(q, g.raw.clone(), &mut out, limit) {
                break;
            }
        }
        out
    }

    /// Theory-combination round: materialize equality atoms between int
    /// arguments of same-symbol applications so LIA-entailed equalities can
    /// reach EUF congruence (the classic shared-term equality propagation;
    /// without it, `f(i - 1)` and `f(i - len(s))` never merge even when
    /// `len(s) = 1` is known arithmetically).
    fn combination_round(&mut self) -> usize {
        let int = self.store.int_sort();
        let mut new_pairs: Vec<(TermId, TermId)> = Vec::new();
        // Deterministic traversal: hash order must not decide which pairs
        // land under the fan-out caps (rlimit reproducibility).
        let mut by_head: Vec<(&PatternHead, &Vec<TermId>)> = self.ground_index.iter().collect();
        by_head.sort_unstable_by_key(|&(h, _)| *h);
        for (_, terms) in by_head {
            // Cap the per-symbol pair fan-out.
            let cap = 16.min(terms.len());
            for i in 0..cap {
                for j in (i + 1)..cap {
                    let (a, b) = (terms[i], terms[j]);
                    // Match on borrowed kinds; clone only the argument
                    // vectors, and only on the App/App hit.
                    let (args_a, args_b) = match (self.store.kind(a), self.store.kind(b)) {
                        (TermKind::App(f, x), TermKind::App(g, y)) if f == g => {
                            (x.clone(), y.clone())
                        }
                        _ => continue,
                    };
                    for (&x, &y) in args_a.iter().zip(args_b.iter()) {
                        if x == y || self.store.sort_of(x) != int {
                            continue;
                        }
                        let key = if x < y { (x, y) } else { (y, x) };
                        if self.combo_splits.contains(&key) {
                            continue;
                        }
                        self.combo_splits.insert(key);
                        new_pairs.push(key);
                        if new_pairs.len() >= 200 {
                            break;
                        }
                    }
                }
            }
        }
        let n = new_pairs.len();
        for (x, y) in new_pairs {
            // Materialize the atom via a tautology; the trichotomy lemma
            // generated at atom registration lets LIA decide it.
            let eq = self.store.mk_eq(x, y);
            let ne = self.store.mk_not(eq);
            let tauto = self.store.mk_or(vec![eq, ne]);
            self.queue.push((tauto, true));
        }
        self.drain_queue();
        n
    }

    fn drain_queue_no_recurse(&mut self) {
        // Identical to drain_queue; named separately for clarity at call
        // sites inside the instantiation loop.
        self.drain_queue();
    }

    /// Enumerate bindings over the ground universe (EPR saturation).
    fn epr_bindings(&mut self, q: &Quant) -> Vec<Vec<(u32, TermId)>> {
        // Ensure every sort has a witness.
        for &(_, sort) in &q.vars {
            if self.ground_by_sort.get(&sort).is_none_or(|v| v.is_empty()) {
                let w = self.store.mk_fresh_var("witness", sort);
                self.register_term(w, true);
            }
        }
        let mut bindings: Vec<Vec<(u32, TermId)>> = vec![vec![]];
        for &(idx, sort) in &q.vars {
            let universe = self.ground_by_sort.get(&sort).cloned().unwrap_or_default();
            let mut next = Vec::new();
            for b in &bindings {
                for &g in &universe {
                    let mut nb = b.clone();
                    nb.push((idx, g));
                    next.push(nb);
                    if next.len() > self.config.max_instances_per_round * 4 {
                        break;
                    }
                }
            }
            bindings = next;
        }
        bindings
    }

    /// Total size in bytes of the asserted query rendered as SMT-LIB,
    /// counted through a streaming sink (the script itself is never built).
    pub fn query_size_bytes(&self) -> usize {
        crate::printer::query_size_bytes(&self.store, &self.asserted)
    }

    // ------------------------------------------------------------------
    // Model validation
    // ------------------------------------------------------------------

    /// Re-evaluate every asserted formula under a candidate model. Ground
    /// structure is evaluated semantically (so inconsistencies the theory
    /// layer cannot see — nonlinear products, unsaturated instances — are
    /// caught); genuinely uninterpreted atoms fall back to the model's
    /// boolean assignment, and quantified formulas are indeterminate.
    pub fn validate_model(&self, model: &Model) -> Validation {
        let mut bcache: HashMap<TermId, Option<bool>> = HashMap::new();
        let mut icache: HashMap<TermId, Option<i128>> = HashMap::new();
        let mut indeterminate = false;
        for &t in &self.asserted {
            match self.eval_bool(t, model, &mut bcache, &mut icache) {
                Some(true) => {}
                Some(false) => return Validation::Violated(t),
                None => indeterminate = true,
            }
        }
        if indeterminate {
            Validation::Indeterminate
        } else {
            Validation::Valid
        }
    }

    fn eval_bool(
        &self,
        t: TermId,
        model: &Model,
        bcache: &mut HashMap<TermId, Option<bool>>,
        icache: &mut HashMap<TermId, Option<i128>>,
    ) -> Option<bool> {
        if let Some(&v) = bcache.get(&t) {
            return v;
        }
        let v = match self.store.kind(t).clone() {
            TermKind::BoolConst(b) => Some(b),
            TermKind::Not(a) => self.eval_bool(a, model, bcache, icache).map(|b| !b),
            TermKind::And(parts) => three_valued_all(
                parts
                    .iter()
                    .map(|&p| self.eval_bool(p, model, bcache, icache)),
            ),
            TermKind::Or(parts) => three_valued_all(
                parts
                    .iter()
                    .map(|&p| self.eval_bool(p, model, bcache, icache).map(|b| !b)),
            )
            .map(|b| !b),
            TermKind::Implies(a, b) => {
                let la = self.eval_bool(a, model, bcache, icache);
                let lb = self.eval_bool(b, model, bcache, icache);
                match (la, lb) {
                    (Some(false), _) | (_, Some(true)) => Some(true),
                    (Some(true), Some(false)) => Some(false),
                    _ => None,
                }
            }
            TermKind::Ite(c, a, b) => match self.eval_bool(c, model, bcache, icache) {
                Some(true) => self.eval_bool(a, model, bcache, icache),
                Some(false) => self.eval_bool(b, model, bcache, icache),
                None => {
                    let va = self.eval_bool(a, model, bcache, icache);
                    let vb = self.eval_bool(b, model, bcache, icache);
                    if va.is_some() && va == vb {
                        va
                    } else {
                        None
                    }
                }
            },
            TermKind::Eq(a, b) => {
                if self.store.sort_of(a) == self.store.bool_sort() {
                    let la = self.eval_bool(a, model, bcache, icache);
                    let lb = self.eval_bool(b, model, bcache, icache);
                    match (la, lb) {
                        (Some(x), Some(y)) => Some(x == y),
                        _ => None,
                    }
                } else if self.store.sort_of(a) == self.store.int_sort() {
                    let va = self.eval_int(a, model, bcache, icache);
                    let vb = self.eval_int(b, model, bcache, icache);
                    match (va, vb) {
                        (Some(x), Some(y)) => Some(x == y),
                        _ => None,
                    }
                } else {
                    model.bools.get(&t).copied()
                }
            }
            // For arithmetic atoms, never fall back to the SAT assignment:
            // when the operands are opaque (nonlinear, div-by-zero) the
            // assignment is precisely the unchecked claim.
            TermKind::Le0(lin) => self.eval_int(lin, model, bcache, icache).map(|v| v <= 0),
            TermKind::Distinct(parts) => {
                let vals: Vec<Option<i128>> = parts
                    .iter()
                    .map(|&p| self.eval_int(p, model, bcache, icache))
                    .collect();
                if vals.iter().all(|v| v.is_some()) {
                    let vals: Vec<i128> = vals.into_iter().map(|v| v.unwrap()).collect();
                    let mut uniq = vals.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    Some(uniq.len() == vals.len())
                } else {
                    None
                }
            }
            TermKind::Quantifier(_) => None,
            // Uninterpreted boolean atoms: the model's assignment is their
            // semantics (EUF already checked congruence consistency).
            _ => model.bools.get(&t).copied(),
        };
        bcache.insert(t, v);
        v
    }

    fn eval_int(
        &self,
        t: TermId,
        model: &Model,
        bcache: &mut HashMap<TermId, Option<bool>>,
        icache: &mut HashMap<TermId, Option<i128>>,
    ) -> Option<i128> {
        if let Some(&v) = icache.get(&t) {
            return v;
        }
        let v = match self.store.kind(t).clone() {
            TermKind::IntConst(k) => Some(k),
            TermKind::Linear { konst, monomials } => {
                let mut acc = konst;
                let mut ok = true;
                for &(c, a) in &monomials {
                    match self.eval_int(a, model, bcache, icache) {
                        Some(v) => acc += c * v,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    Some(acc)
                } else {
                    None
                }
            }
            TermKind::NlMul(factors) => {
                // Evaluate structurally so simplex-opaque nonlinear products
                // are checked against their factors.
                let mut acc = 1i128;
                let mut ok = true;
                for &f in &factors {
                    match self.eval_int(f, model, bcache, icache) {
                        Some(v) => acc = acc.checked_mul(v)?,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                // Never fall back to the simplex value of the product
                // itself: that value is exactly the unchecked quantity, and
                // trusting it would let bogus nonlinear models validate.
                if ok {
                    Some(acc)
                } else {
                    None
                }
            }
            TermKind::Ite(c, a, b) => match self.eval_bool(c, model, bcache, icache) {
                Some(true) => self.eval_int(a, model, bcache, icache),
                Some(false) => self.eval_int(b, model, bcache, icache),
                None => None,
            },
            // Div/mod are opaque simplex variables whose defining axioms
            // were ground-asserted; prefer the value the theory chose.
            TermKind::IntDiv(a, b) => match model.ints.get(&t) {
                Some(&v) => Some(v),
                None => {
                    let va = self.eval_int(a, model, bcache, icache)?;
                    let vb = self.eval_int(b, model, bcache, icache)?;
                    if vb == 0 {
                        None
                    } else {
                        Some((va - va.rem_euclid(vb)) / vb)
                    }
                }
            },
            TermKind::IntMod(a, b) => match model.ints.get(&t) {
                Some(&v) => Some(v),
                None => {
                    let va = self.eval_int(a, model, bcache, icache)?;
                    let vb = self.eval_int(b, model, bcache, icache)?;
                    if vb == 0 {
                        None
                    } else {
                        Some(va.rem_euclid(vb))
                    }
                }
            },
            // Opaque leaves (vars, applications, selectors): the simplex
            // assignment is their value.
            _ => model.ints.get(&t).copied(),
        };
        icache.insert(t, v);
        v
    }
}

/// Outcome of [`Solver::validate_model`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Validation {
    /// Every asserted formula evaluates to true: genuine model.
    Valid,
    /// Some formula could not be fully evaluated (quantifiers, opaque
    /// atoms); the model is plausible but unconfirmed.
    Indeterminate,
    /// This asserted formula evaluates to false: the model is bogus.
    Violated(TermId),
}

/// All-of over three-valued booleans: false dominates, then unknown.
fn three_valued_all(it: impl Iterator<Item = Option<bool>>) -> Option<bool> {
    let mut unknown = false;
    for v in it {
        match v {
            Some(false) => return Some(false),
            None => unknown = true,
            Some(true) => {}
        }
    }
    if unknown {
        None
    } else {
        Some(true)
    }
}

// ----------------------------------------------------------------------
// Theory final check (free function to avoid borrow entanglement)
// ----------------------------------------------------------------------

enum TheoryVerdict {
    Consistent(HashMap<TermId, i128>),
    Conflict(Vec<Lit>),
    Unknown,
}

struct TheoryCtx<'a> {
    store: &'a TermStore,
    euf: Euf,
    node_of: HashMap<TermId, NodeId>,
    lia: Lia,
    lvar_of: HashMap<TermId, LVar>,
    lvars: Vec<(TermId, LVar)>,
    /// Dense tags for structured EUF signatures.
    lin_sigs: HashMap<(i128, Vec<i128>), u64>,
    dt_tags: HashMap<(u32, u32, u32), u64>,
    tag_table: Vec<Vec<Lit>>,
    true_node: NodeId,
    false_node: NodeId,
    axiom_lit: Lit,
    /// Constructor ground terms seen per datatype, for distinctness diseqs.
    ctors_seen: HashMap<u32, Vec<(u32, NodeId)>>,
}

impl<'a> TheoryCtx<'a> {
    fn new(
        store: &'a TermStore,
        axiom_lit: Lit,
        meter: Option<&Arc<ResourceMeter>>,
    ) -> TheoryCtx<'a> {
        let mut euf = Euf::new();
        let mut lia = Lia::new();
        if let Some(m) = meter {
            euf.set_meter(m.clone());
            lia.set_meter(m.clone());
        }
        let true_node = euf.add_node(tag_leaf(u32::MAX), vec![]);
        let false_node = euf.add_node(tag_leaf(u32::MAX - 1), vec![]);
        euf.assert_neq(true_node, false_node, axiom_lit);
        TheoryCtx {
            store,
            euf,
            node_of: HashMap::new(),
            lia,
            lvar_of: HashMap::new(),
            lvars: Vec::new(),
            lin_sigs: HashMap::new(),
            dt_tags: HashMap::new(),
            tag_table: Vec::new(),
            true_node,
            false_node,
            axiom_lit,
            ctors_seen: HashMap::new(),
        }
    }

    fn tag_for(&mut self, lits: Vec<Lit>) -> u32 {
        let id = self.tag_table.len() as u32;
        self.tag_table.push(lits);
        id
    }

    fn euf_node(&mut self, t: TermId) -> NodeId {
        if let Some(&n) = self.node_of.get(&t) {
            return n;
        }
        let kind = self.store.kind(t).clone();
        let (tag, children) = match kind {
            TermKind::App(f, args) => {
                let kids = args.iter().map(|&a| self.euf_node(a)).collect();
                ((2u64 << 40) | f.0 as u64, kids)
            }
            TermKind::Linear {
                konst,
                ref monomials,
            } => {
                let coeffs: Vec<i128> = monomials.iter().map(|&(c, _)| c).collect();
                let next = self.lin_sigs.len() as u64;
                let dense = *self.lin_sigs.entry((konst, coeffs)).or_insert(next);
                let kids = monomials.iter().map(|&(_, a)| self.euf_node(a)).collect();
                ((3u64 << 40) | dense, kids)
            }
            TermKind::NlMul(ref factors) => {
                let kids = factors.iter().map(|&a| self.euf_node(a)).collect();
                ((4u64 << 40) | factors.len() as u64, kids)
            }
            TermKind::IntDiv(a, b) => {
                let kids = vec![self.euf_node(a), self.euf_node(b)];
                (5u64 << 40, kids)
            }
            TermKind::IntMod(a, b) => {
                let kids = vec![self.euf_node(a), self.euf_node(b)];
                (6u64 << 40, kids)
            }
            TermKind::DtCtor(dt, c, ref args) => {
                let next = self.dt_tags.len() as u64;
                let dense = *self.dt_tags.entry((dt.0, c, u32::MAX)).or_insert(next);
                let kids: Vec<NodeId> = args.iter().map(|&a| self.euf_node(a)).collect();
                let node = self.euf.add_node((7u64 << 40) | dense, kids.clone());
                self.node_of.insert(t, node);
                // EUF-internal selector nodes give injectivity: if two ctor
                // terms merge, congruence equates their selector projections,
                // hence their arguments.
                for (i, &arg_node) in kids.iter().enumerate() {
                    let snext = self.dt_tags.len() as u64;
                    let sdense = *self.dt_tags.entry((dt.0, c, i as u32)).or_insert(snext);
                    let sel = self.euf.add_node((8u64 << 40) | sdense, vec![node]);
                    self.euf.assert_eq(sel, arg_node, self.axiom_lit);
                }
                // Distinctness: different constructors never compare equal.
                let seen = self.ctors_seen.entry(dt.0).or_default();
                let others: Vec<NodeId> = seen
                    .iter()
                    .filter(|&&(c2, _)| c2 != c)
                    .map(|&(_, n)| n)
                    .collect();
                seen.push((c, node));
                for other in others {
                    self.euf.assert_neq(node, other, self.axiom_lit);
                }
                return node;
            }
            TermKind::DtSel(dt, c, f, a) => {
                let next = self.dt_tags.len() as u64;
                let dense = *self.dt_tags.entry((dt.0, c, f)).or_insert(next);
                ((8u64 << 40) | dense, vec![self.euf_node(a)])
            }
            TermKind::DtTest(dt, c, a) => {
                let next = self.dt_tags.len() as u64;
                let dense = *self.dt_tags.entry((dt.0, c, u32::MAX - 1)).or_insert(next);
                ((9u64 << 40) | dense, vec![self.euf_node(a)])
            }
            // Leaves and anything else: opaque per-term constants.
            _ => (tag_leaf(t.0), vec![]),
        };
        let n = self.euf.add_node(tag, children);
        self.node_of.insert(t, n);
        n
    }

    fn lvar(&mut self, t: TermId) -> LVar {
        if let Some(&v) = self.lvar_of.get(&t) {
            return v;
        }
        let v = self.lia.new_var();
        self.lvar_of.insert(t, v);
        self.lvars.push((t, v));
        v
    }

    /// Decompose an int term into (constant, combo of LIA vars).
    fn decompose(&mut self, t: TermId) -> (i128, Vec<(i128, LVar)>) {
        match self.store.kind(t).clone() {
            TermKind::IntConst(k) => (k, vec![]),
            TermKind::Linear { konst, monomials } => {
                let combo = monomials.iter().map(|&(c, a)| (c, self.lvar(a))).collect();
                (konst, combo)
            }
            _ => (0, vec![(1, self.lvar(t))]),
        }
    }
}

fn tag_leaf(id: u32) -> u64 {
    (1u64 << 40) | id as u64
}

#[allow(clippy::too_many_arguments)]
fn theory_final_check(
    store: &TermStore,
    atoms: &[(TermId, Lit)],
    sat: &SatSolver,
    lia_budget: usize,
    axiom_lit: Lit,
    meter: Option<&Arc<ResourceMeter>>,
    cache: &mut TheoryKernelCache,
    batch: bool,
) -> TheoryVerdict {
    let mut ctx = TheoryCtx::new(store, axiom_lit, meter);
    let int_sort = store.int_sort();
    let bool_sort = store.bool_sort();
    // Register every non-boolean subterm of every atom in EUF so congruence
    // reasoning sees terms that occur only under arithmetic atoms. The
    // batch path re-walks every atom's DAG on every final check; the
    // incremental path replays a flattened per-atom plan that creates the
    // same nodes in the same order (see `reg_plan`). Atoms whose plan was
    // already compiled charge the informational `theory-reuse` counter.
    if batch {
        for &(t, _) in atoms {
            register_subterms(&mut ctx, store, t, bool_sort);
        }
    } else {
        let mut reused: u64 = 0;
        for &(t, _) in atoms {
            match cache.reg.get(&t) {
                Some(plan) => {
                    reused += 1;
                    for &s in plan {
                        ctx.euf_node(s);
                    }
                }
                None => {
                    let mut plan = Vec::new();
                    let mut visited = HashSet::new();
                    reg_plan(store, t, bool_sort, &mut plan, &mut visited);
                    for &s in &plan {
                        ctx.euf_node(s);
                    }
                    cache.reg.insert(t, plan);
                }
            }
        }
        if reused > 0 {
            if let Some(m) = meter {
                m.charge(Counter::TheoryReuse, reused);
            }
        }
    }
    // Dispatch asserted atoms. The routing shape is a pure function of the
    // atom's kind, cached so repeat final checks skip the kind clone.
    for &(t, lit) in atoms {
        let val = match sat.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => continue,
        };
        let asserted_lit = if val { lit } else { lit.negate() };
        let shape = if batch {
            atom_dispatch(store, t, int_sort, bool_sort)
        } else if let Some(&s) = cache.dispatch.get(&t) {
            s
        } else {
            let s = atom_dispatch(store, t, int_sort, bool_sort);
            cache.dispatch.insert(t, s);
            s
        };
        match shape {
            AtomDispatch::Eq { a, b, int } => {
                let (na, nb) = (ctx.euf_node(a), ctx.euf_node(b));
                if val {
                    ctx.euf.assert_eq(na, nb, asserted_lit);
                    if int {
                        // a - b == 0 in LIA.
                        let (ka, mut combo) = decompose_cached(&mut ctx, cache, batch, a);
                        let (kb, cb) = decompose_cached(&mut ctx, cache, batch, b);
                        for (c, v) in cb {
                            combo.push((-c, v));
                        }
                        let konst = ka - kb;
                        let combo = merge_combo(combo);
                        let tag = ctx.tag_for(vec![asserted_lit]);
                        if combo.is_empty() {
                            if konst != 0 {
                                return TheoryVerdict::Conflict(vec![asserted_lit.negate()]);
                            }
                        } else {
                            match (
                                ctx.lia.assert_upper(&combo, -konst, Some(tag)),
                                ctx.lia.assert_lower(&combo, -konst, Some(tag)),
                            ) {
                                (Ok(None), Ok(None)) => {}
                                (Ok(Some(tags)), _) | (_, Ok(Some(tags))) => {
                                    return conflict_from_tags(&ctx, tags);
                                }
                                _ => return TheoryVerdict::Unknown,
                            }
                        }
                    }
                } else {
                    ctx.euf.assert_neq(na, nb, asserted_lit);
                }
            }
            AtomDispatch::Le0(lin) => {
                let (k, combo) = decompose_cached(&mut ctx, cache, batch, lin);
                let tag = ctx.tag_for(vec![asserted_lit]);
                let res = if combo.is_empty() {
                    let holds = k <= 0;
                    if holds != val {
                        return TheoryVerdict::Conflict(vec![asserted_lit.negate()]);
                    }
                    Ok(None)
                } else if val {
                    // Σ combo + k <= 0  =>  Σ combo <= -k
                    ctx.lia.assert_upper(&combo, -k, Some(tag))
                } else {
                    // Σ combo + k >= 1  =>  Σ combo >= 1 - k
                    ctx.lia.assert_lower(&combo, 1 - k, Some(tag))
                };
                match res {
                    Ok(None) => {}
                    Ok(Some(tags)) => return conflict_from_tags(&ctx, tags),
                    Err(_) => return TheoryVerdict::Unknown,
                }
            }
            AtomDispatch::BoolMerge => {
                // Boolean-sorted application / tester: merge with TRUE/FALSE.
                // Stays a live `euf_node` call — which atoms reach here is
                // SAT-value-dependent, so registration cannot be planned.
                let n = ctx.euf_node(t);
                let target = if val { ctx.true_node } else { ctx.false_node };
                ctx.euf.assert_eq(n, target, asserted_lit);
            }
            AtomDispatch::Skip => {}
        }
    }
    // EUF closure.
    if let Err(c) = ctx.euf.propagate() {
        let clause: Vec<Lit> = c
            .lits
            .into_iter()
            .filter(|&l| l != axiom_lit)
            .map(|l| l.negate())
            .collect();
        return TheoryVerdict::Conflict(clause);
    }
    if let Some(m) = meter {
        if m.check("euf") {
            return TheoryVerdict::Unknown;
        }
    }
    // Propagate EUF-implied equalities over int terms into LIA. Sorted so
    // class representatives and LIA assertion order are independent of hash
    // iteration order (rlimit reproducibility).
    let mut int_terms: Vec<TermId> = ctx
        .node_of
        .keys()
        .copied()
        .filter(|&t| store.sort_of(t) == int_sort)
        .collect();
    int_terms.sort_unstable();
    let mut class_reps: HashMap<NodeId, TermId> = HashMap::new();
    for t in int_terms {
        let n = ctx.node_of[&t];
        let root = ctx.euf.find(n);
        match class_reps.get(&root) {
            None => {
                class_reps.insert(root, t);
            }
            Some(&rep) => {
                let rn = ctx.node_of[&rep];
                let expl = ctx.euf.explain(rn, n);
                let lits: Vec<Lit> = expl.into_iter().filter(|&l| l != axiom_lit).collect();
                let (ka, mut combo) = decompose_cached(&mut ctx, cache, batch, rep);
                let (kb, cb) = decompose_cached(&mut ctx, cache, batch, t);
                for (c, v) in cb {
                    combo.push((-c, v));
                }
                let konst = ka - kb;
                let combo = merge_combo(combo);
                if combo.is_empty() {
                    if konst != 0 {
                        let clause = lits.into_iter().map(|l| l.negate()).collect();
                        return TheoryVerdict::Conflict(clause);
                    }
                    continue;
                }
                let tag = ctx.tag_for(lits);
                match (
                    ctx.lia.assert_upper(&combo, -konst, Some(tag)),
                    ctx.lia.assert_lower(&combo, -konst, Some(tag)),
                ) {
                    (Ok(None), Ok(None)) => {}
                    (Ok(Some(tags)), _) | (_, Ok(Some(tags))) => {
                        return conflict_from_tags(&ctx, tags);
                    }
                    _ => return TheoryVerdict::Unknown,
                }
            }
        }
    }
    // LIA feasibility + integrality.
    match ctx.lia.check(lia_budget) {
        LiaOutcome::Sat(model) => {
            let mut ints = HashMap::new();
            for &(t, v) in &ctx.lvars {
                ints.insert(t, model[v.0 as usize]);
            }
            TheoryVerdict::Consistent(ints)
        }
        LiaOutcome::Unsat(tags) => conflict_from_tags(&ctx, tags),
        LiaOutcome::Unknown => TheoryVerdict::Unknown,
    }
}

fn register_subterms(ctx: &mut TheoryCtx<'_>, store: &TermStore, t: TermId, bool_sort: SortId) {
    for c in store.children(t) {
        if store.sort_of(c) != bool_sort {
            ctx.euf_node(c);
        }
        register_subterms(ctx, store, c, bool_sort);
    }
}

/// Pure mirror of [`register_subterms`]: the first-occurrence preorder of
/// non-boolean proper subterms — exactly the sequence of *fresh* `euf_node`
/// root calls the recursive walk performs (repeat calls were memo no-ops in
/// the walk and are dropped here; `visited` also prunes re-descent into
/// shared subtrees, which the walk redoes on every final check). Replaying
/// the list against a fresh `TheoryCtx` creates the same EUF nodes, dense
/// tags, and axiom assertions in the same order.
fn reg_plan(
    store: &TermStore,
    t: TermId,
    bool_sort: SortId,
    out: &mut Vec<TermId>,
    visited: &mut HashSet<TermId>,
) {
    for c in store.children(t) {
        if visited.insert(c) {
            if store.sort_of(c) != bool_sort {
                out.push(c);
            }
            reg_plan(store, c, bool_sort, out, visited);
        }
    }
}

/// Pure dispatch shape of one theory atom (see [`AtomDispatch`]).
fn atom_dispatch(
    store: &TermStore,
    t: TermId,
    int_sort: SortId,
    bool_sort: SortId,
) -> AtomDispatch {
    match store.kind(t) {
        TermKind::Eq(a, b) => AtomDispatch::Eq {
            a: *a,
            b: *b,
            int: store.sort_of(*a) == int_sort,
        },
        TermKind::Le0(lin) => AtomDispatch::Le0(*lin),
        TermKind::Var(_, s) if *s == bool_sort => AtomDispatch::Skip,
        TermKind::App(..) | TermKind::DtTest(..) => AtomDispatch::BoolMerge,
        _ => AtomDispatch::Skip,
    }
}

/// Pure decomposition of an int term into (constant, coefficient rows over
/// term ids). [`TheoryCtx::decompose`] is this followed by LIA-variable
/// interning.
fn decomp_rows(store: &TermStore, t: TermId) -> (i128, Vec<(i128, TermId)>) {
    match store.kind(t) {
        TermKind::IntConst(k) => (*k, vec![]),
        TermKind::Linear { konst, monomials } => (*konst, monomials.clone()),
        _ => (0, vec![(1, t)]),
    }
}

/// [`TheoryCtx::decompose`] with the kind-derived rows memoized across
/// final checks. LIA variables are interned in row order, matching the
/// uncached path's allocation order exactly.
fn decompose_cached(
    ctx: &mut TheoryCtx<'_>,
    cache: &mut TheoryKernelCache,
    batch: bool,
    t: TermId,
) -> (i128, Vec<(i128, LVar)>) {
    if batch {
        return ctx.decompose(t);
    }
    if let Some((k, rows)) = cache.decomp.get(&t) {
        let combo = rows.iter().map(|&(c, a)| (c, ctx.lvar(a))).collect();
        return (*k, combo);
    }
    let (k, rows) = decomp_rows(ctx.store, t);
    let combo = rows.iter().map(|&(c, a)| (c, ctx.lvar(a))).collect();
    cache.decomp.insert(t, (k, rows));
    (k, combo)
}

fn conflict_from_tags(ctx: &TheoryCtx<'_>, tags: Vec<u32>) -> TheoryVerdict {
    let mut lits = Vec::new();
    for tg in tags {
        lits.extend(ctx.tag_table[tg as usize].iter().copied());
    }
    lits.sort_unstable();
    lits.dedup();
    TheoryVerdict::Conflict(lits.into_iter().map(|l| l.negate()).collect())
}

fn merge_combo(mut combo: Vec<(i128, LVar)>) -> Vec<(i128, LVar)> {
    combo.sort_by_key(|&(_, v)| v);
    let mut out: Vec<(i128, LVar)> = Vec::with_capacity(combo.len());
    for (c, v) in combo {
        if let Some(last) = out.last_mut() {
            if last.1 == v {
                last.0 += c;
                continue;
            }
        }
        out.push((c, v));
    }
    out.retain(|&(c, _)| c != 0);
    out
}
