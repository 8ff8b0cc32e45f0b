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

use crate::fxhash::{HashMap, HashSet};
use std::sync::Arc;

use veris_obs::{Counter, QuantProfile, ResourceMeter};

use crate::euf::{Euf, EufMark, NodeId};
use crate::lia::{Col, LVar, Lia, LiaLimit, LiaMark, LiaOutcome, Overflow};
use crate::quant::{
    enumerate_matches, infer_triggers, pattern_head, ClassIndex, PatternHead, TriggerPolicy,
};
use crate::relevancy::{Marks, Relevancy};
use crate::sat::{FinalCheck, LBool, Lit, SatResult, SatSolver};
use crate::term::{Quant, Sort, SortId, TermId, TermKind, TermStore};

/// An instantiation staged by an e-matching round: (quantifier proxy
/// literal, quantifier term, variable binding, instantiated body).
type PendingInstance = (Lit, TermId, Vec<(u32, TermId)>, TermId);

/// Cap on new instances per quantifier per round.
const MAX_INSTANCES_PER_ROUND: usize = 3000;

/// Branch-and-bound node budget per LIA final check.
const LIA_BRANCH_NODES: usize = 6000;

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum quantifier-instantiation rounds before giving up.
    pub max_quant_rounds: usize,
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
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_quant_rounds: 12,
            epr_mode: false,
            trigger_policy: TriggerPolicy::Minimal,
            max_generation: 4,
        }
    }
}

/// A (possibly partial) first-order model for diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub bools: std::collections::HashMap<TermId, bool>,
    pub ints: std::collections::HashMap<TermId, i128>,
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
///
/// A `clone()` is a deep copy of the whole state — term store, every map
/// (Fx-hashed, so the copy iterates in the same order), the SAT core and
/// the statistics — and is therefore indistinguishable, down to term-id and
/// SAT-variable allocation, from a fresh solver given the same operations.
/// This is what lets a module session encode a shared context once and
/// verify each function on its own copy while reproducing fresh-solver
/// verdicts, cores and meter charges byte for byte. The meter `Arc` is
/// shared by the copy until [`Solver::set_meter`] replaces it.
#[derive(Clone)]
pub struct Solver {
    pub store: TermStore,
    config: Config,
    sat: SatSolver,
    /// Literal asserted true at the root (used as gate constant and as the
    /// "axiom" reason for built-in facts).
    lit_true: Lit,
    /// Tseitin cache over formula terms.
    tseitin: HashMap<TermId, Lit>,
    /// Gates, roots and gated literals of the encoding: what a final check
    /// walks to find the atoms the theories must see.
    relevancy: Relevancy,
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
    /// Seen instantiation bindings per quantifier.
    instances: HashMap<TermId, HashSet<Vec<(u32, TermId)>>>,
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
            tseitin: HashMap::default(),
            relevancy: Relevancy::default(),
            lit_of_atom: HashMap::default(),
            atoms: Vec::new(),
            quants: Vec::new(),
            quant_set: HashSet::default(),
            registered: HashSet::default(),
            ground_index: HashMap::default(),
            ground_by_sort: HashMap::default(),
            instances: HashMap::default(),
            combo_splits: HashSet::default(),
            term_gen: HashMap::default(),
            queue: Vec::new(),
            divmod_done: HashSet::default(),
            dt_done: HashSet::default(),
            tricho_done: HashSet::default(),
            asserted: Vec::new(),
            has_bv: false,
            has_opaque: false,
            hypotheses: Vec::new(),
            last_core: None,
            stats: Stats::default(),
            meter: None,
            profile: QuantProfile::new(),
        }
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
        self.relevancy.root(sel);
        self.relevancy.gate(sel, lit);
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
            self.relevancy.root(lit);
        }
    }

    /// Preprocess (ite-lift + NNF/skolemize) and tseitin-encode a formula.
    fn encode_formula(&mut self, f: TermId, from_axiom: bool) -> Lit {
        let mut cache = HashMap::default();
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
        // Rebuilding over unchanged children re-interns `t` itself, so skip
        // the `mk_*` calls (for `Linear`, an `mk_add` of `mk_mul`s).
        let mut t2 = if new_kids == kids {
            t
        } else {
            self.store.rebuild(t, &new_kids)
        };
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
                self.relevancy.and(o, &lits);
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
                self.relevancy.or(o, &lits);
                o
            }
            TermKind::Implies(a, b) => {
                let la = self.encode(a, from_axiom);
                let lb = self.encode(b, from_axiom);
                let o = self.fresh_lit();
                self.sat.add_clause(vec![o.negate(), la.negate(), lb]);
                self.sat.add_clause(vec![o, la]);
                self.sat.add_clause(vec![o, lb.negate()]);
                self.relevancy.implies(o, la, lb);
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
                self.relevancy.iff(o, la, lb);
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
        // EPR universe: every ground term by sort (`registered` admits each
        // term once, and `pop` restores both together).
        let sort = self.store.sort_of(t);
        self.ground_by_sort.entry(sort).or_default().push(t);
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
        // One theory state for the whole call: it follows the SAT trail
        // across final checks and rounds, and is dropped on return.
        let mut theory = Theory::new(&self.store, self.lit_true, self.meter.clone());
        for _round in 0..=max_rounds {
            if let Some(m) = &self.meter {
                if m.check("solver") {
                    return SmtResult::Unknown(m.exhaustion_message());
                }
            }
            self.stats.quant_rounds += 1;
            let mut last_model: Option<std::collections::HashMap<TermId, i128>> = None;
            let mut theory_unknown: Option<LiaLimit> = None;
            let outcome = {
                let store = &self.store;
                let atoms = &self.atoms;
                let relevancy = &self.relevancy;
                let stats = &mut self.stats;
                let sat = &mut self.sat;
                let theory = &mut theory;
                sat.solve_with_assumptions(&assumptions, |satref| {
                    stats.final_checks += 1;
                    match theory.final_check(store, atoms, relevancy, satref) {
                        TheoryVerdict::Consistent(model) => {
                            last_model = Some(model);
                            FinalCheck::Consistent
                        }
                        TheoryVerdict::Conflict(clause) => FinalCheck::Conflict(clause),
                        TheoryVerdict::Unknown(limit) => {
                            theory_unknown = Some(limit);
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
                    // Only the meter stops a SAT search early.
                    return SmtResult::Unknown(self.meter.as_ref().map_or_else(
                        || "resource limit exceeded".to_owned(),
                        |m| m.exhaustion_message(),
                    ));
                }
                SatResult::Sat => {
                    if let Some(limit) = theory_unknown {
                        if let Some(m) = &self.meter {
                            if m.exhausted() {
                                return SmtResult::Unknown(m.exhaustion_message());
                            }
                        }
                        return SmtResult::Unknown(format!(
                            "theory budget exceeded (lia: {limit})"
                        ));
                    }
                    let added = self.instantiate_round(&theory.relevant) + self.combination_round();
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
    /// `relevant` holds the marks of the final check that accepted the
    /// current model.
    fn instantiate_round(&mut self, relevant: &Marks) -> usize {
        if let Some(m) = &self.meter {
            m.charge(Counter::EmatchRounds, 1);
        }
        // E-matching works modulo the equivalence classes of the relevant
        // equality atoms true in the current model (poor man's e-graph),
        // built fresh each round in atom order. EPR saturation enumerates
        // the ground universe and never reads the index.
        let epr = self.config.epr_mode;
        let classes = if epr {
            ClassIndex::new()
        } else {
            self.current_classes(relevant)
        };
        let limit = MAX_INSTANCES_PER_ROUND;
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
            let bindings = if epr {
                self.epr_bindings(&q)
            } else {
                enumerate_matches(&self.store, &classes, &q, &self.ground_index, limit)
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
                let seen = self.instances.entry(qterm).or_default();
                if seen.contains(&b) {
                    continue;
                }
                seen.insert(b.clone());
                let inst = self.store.substitute(q.body, &b);
                new_instances.push((proxy, qterm, b, inst));
                if new_instances.len() >= limit {
                    break;
                }
            }
        }
        let n = new_instances.len();
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
            self.drain_queue();
            // Terms created by this instance inherit generation bgen + 1.
            let after = self.store.num_terms();
            for id in before as u32..after as u32 {
                self.term_gen.entry(TermId(id)).or_insert(bgen + 1);
            }
            self.sat.add_clause(vec![proxy.negate(), l]);
            self.relevancy.gate(proxy, l);
        }
        n
    }

    /// The class index over the relevant equality atoms true in the
    /// current boolean model, unioned in atom order (matching depends on
    /// the resulting parent links and member order, so the order is part
    /// of the result). These are exactly the equalities EUF was given.
    fn current_classes(&self, relevant: &Marks) -> ClassIndex {
        let mut classes = ClassIndex::new();
        for &(t, lit) in &self.atoms {
            if self.sat.value(lit) == LBool::True && relevant.is_relevant(lit.var()) {
                if let TermKind::Eq(a, b) = self.store.kind(t) {
                    classes.union(*a, *b);
                }
            }
        }
        classes
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
                    if next.len() > MAX_INSTANCES_PER_ROUND * 4 {
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
        let mut bcache: HashMap<TermId, Option<bool>> = HashMap::default();
        let mut icache: HashMap<TermId, Option<i128>> = HashMap::default();
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
// Theory state on the SAT trail
// ----------------------------------------------------------------------

enum TheoryVerdict {
    Consistent(std::collections::HashMap<TermId, i128>),
    Conflict(Vec<Lit>),
    /// The limit that stopped the check (the meter's included).
    Unknown(LiaLimit),
}

/// An int term `konst + Σ combo` with its combination resolved to a LIA
/// column (`None` when the combination is empty).
type Resolved = (i128, Option<Col>);

/// How one theory atom is asserted; fixed when the atom is registered.
#[derive(Clone, Copy)]
enum AtomShape {
    /// Equality: merge or separate the two nodes. An int equality also
    /// bounds `konst + Σ combo` to zero in LIA.
    Eq {
        a: NodeId,
        b: NodeId,
        lia: Option<Resolved>,
    },
    /// `konst + Σ combo <= 0`.
    Le0(Resolved),
    /// Boolean-sorted application or datatype tester: merge with TRUE or
    /// FALSE.
    Bool(NodeId),
}

/// Why a LIA bound holds, resolved into literals only on conflict.
#[derive(Clone, Copy)]
enum TagReason {
    Lit(Lit),
    /// The two shared nodes are EUF-equal (explained lazily: the proof
    /// forest path between them does not change while they stay merged).
    Shared(NodeId, NodeId),
}

/// Theory state before one relevant atom literal was asserted.
#[derive(Clone, Copy)]
struct TheoryMark {
    euf: EufMark,
    lia: LiaMark,
    tags: usize,
}

/// EUF and LIA for one [`Solver::check`] call, kept in step with the
/// relevant part of the SAT trail. Nodes, LIA columns and atom rows are
/// created at the base state, with nothing asserted, and never undone.
///
/// A final check marks relevance from the roots under the full assignment
/// (see [`Relevancy`]) and lists the relevant atom literals in trail order.
/// Only those reach EUF and LIA: an atom that no asserted formula needs
/// under the assignment (a conjunct under a disjunct that is already true,
/// say) is decided by the SAT core but never asserted, so it can neither
/// cause a theory conflict nor cost a merge. The check undoes the theories
/// to the common prefix of this list and the previous check's, and asserts
/// the rest in order. Decisions, the e-matching ground index and the set of
/// instantiated proxies do not look at relevance; e-matching's class index
/// ([`Solver::current_classes`]) unions exactly the equalities EUF saw.
/// `Unsat` stays sound, since every learnt clause is still a theory lemma
/// or an instance; a relevance mark that wrongly drops an atom can only
/// let a bad model through to `validate_model`, which then answers
/// `Unknown`. New atoms appear only between rounds: the state is undone to
/// the base, they are registered, and the next check re-asserts the list.
struct Theory {
    euf: Euf,
    lia: Lia,
    node_of: HashMap<TermId, NodeId>,
    /// Term of each shared (int-sorted) node.
    term_of: HashMap<NodeId, TermId>,
    lvar_of: HashMap<TermId, LVar>,
    lvars: Vec<(TermId, LVar)>,
    /// `x - y` of each ordered pair of shared nodes EUF has equated, filled
    /// on the pair's first equality (when its LIA columns are created).
    shared_diffs: HashMap<(NodeId, NodeId), Resolved>,
    /// Dense tags for structured EUF signatures.
    lin_sigs: HashMap<(i128, Vec<i128>), u64>,
    dt_tags: HashMap<(u32, u32, u32), u64>,
    /// Constructor ground terms seen per datatype, for distinctness diseqs.
    ctors_seen: HashMap<u32, Vec<(u32, NodeId)>>,
    /// Subterms already walked by registration.
    walked: HashSet<TermId>,
    true_node: NodeId,
    false_node: NodeId,
    axiom_lit: Lit,
    int_sort: SortId,
    bool_sort: SortId,
    /// Registered atoms: shape and positive literal, indexed through
    /// `atom_of_var`.
    shapes: Vec<(AtomShape, Lit)>,
    atom_of_var: Vec<Option<u32>>,
    /// Prefix of the solver's atom list registered so far.
    registered: usize,
    tags: Vec<TagReason>,
    /// Relevance marks of the last final check.
    relevant: Marks,
    /// The relevant atom literals of the last final check, in trail order.
    lits: Vec<Lit>,
    /// (index in `lits` of an asserted literal, state before it).
    points: Vec<(usize, TheoryMark)>,
    base: TheoryMark,
    /// Prefix of `lits` the theory state reflects.
    synced: usize,
    meter: Option<Arc<ResourceMeter>>,
}

impl Theory {
    fn new(store: &TermStore, axiom_lit: Lit, meter: Option<Arc<ResourceMeter>>) -> Theory {
        let mut euf = Euf::new();
        let mut lia = Lia::new();
        if let Some(m) = &meter {
            euf.set_meter(m.clone());
            lia.set_meter(m.clone());
        }
        let true_node = euf.add_node(tag_leaf(u32::MAX), vec![]);
        let false_node = euf.add_node(tag_leaf(u32::MAX - 1), vec![]);
        euf.assert_neq(true_node, false_node, axiom_lit);
        let base = TheoryMark {
            euf: euf.mark(),
            lia: lia.mark(),
            tags: 0,
        };
        Theory {
            euf,
            lia,
            node_of: HashMap::default(),
            term_of: HashMap::default(),
            lvar_of: HashMap::default(),
            lvars: Vec::new(),
            shared_diffs: HashMap::default(),
            lin_sigs: HashMap::default(),
            dt_tags: HashMap::default(),
            ctors_seen: HashMap::default(),
            walked: HashSet::default(),
            true_node,
            false_node,
            axiom_lit,
            int_sort: store.int_sort(),
            bool_sort: store.bool_sort(),
            shapes: Vec::new(),
            atom_of_var: Vec::new(),
            registered: 0,
            tags: Vec::new(),
            relevant: Marks::default(),
            lits: Vec::new(),
            points: Vec::new(),
            base,
            synced: 0,
            meter,
        }
    }

    fn mark(&self) -> TheoryMark {
        TheoryMark {
            euf: self.euf.mark(),
            lia: self.lia.mark(),
            tags: self.tags.len(),
        }
    }

    fn restore(&mut self, m: TheoryMark) {
        self.euf.undo(m.euf);
        self.lia.undo(m.lia);
        self.tags.truncate(m.tags);
    }

    /// Undo every literal asserted from `lits[pos]` on.
    fn undo_to(&mut self, pos: usize) {
        let mut target = None;
        while let Some(&(i, m)) = self.points.last() {
            if i < pos {
                break;
            }
            target = Some(m);
            self.points.pop();
        }
        if let Some(m) = target {
            self.restore(m);
        }
        self.synced = self.synced.min(pos);
    }

    fn tag(&mut self, r: TagReason) -> u32 {
        self.tags.push(r);
        (self.tags.len() - 1) as u32
    }

    fn euf_node(&mut self, store: &TermStore, t: TermId) -> NodeId {
        if let Some(&n) = self.node_of.get(&t) {
            return n;
        }
        let (tag, children) = match store.kind(t) {
            TermKind::App(f, args) => {
                let kids = args.iter().map(|&a| self.euf_node(store, a)).collect();
                ((2u64 << 40) | f.0 as u64, kids)
            }
            TermKind::Linear { konst, monomials } => {
                let coeffs: Vec<i128> = monomials.iter().map(|&(c, _)| c).collect();
                let next = self.lin_sigs.len() as u64;
                let dense = *self.lin_sigs.entry((*konst, coeffs)).or_insert(next);
                let kids = monomials
                    .iter()
                    .map(|&(_, a)| self.euf_node(store, a))
                    .collect();
                ((3u64 << 40) | dense, kids)
            }
            TermKind::NlMul(factors) => {
                let kids = factors.iter().map(|&a| self.euf_node(store, a)).collect();
                ((4u64 << 40) | factors.len() as u64, kids)
            }
            TermKind::IntDiv(a, b) => {
                let kids = vec![self.euf_node(store, *a), self.euf_node(store, *b)];
                (5u64 << 40, kids)
            }
            TermKind::IntMod(a, b) => {
                let kids = vec![self.euf_node(store, *a), self.euf_node(store, *b)];
                (6u64 << 40, kids)
            }
            TermKind::DtCtor(dt, c, args) => {
                let (dt, c) = (*dt, *c);
                let next = self.dt_tags.len() as u64;
                let dense = *self.dt_tags.entry((dt.0, c, u32::MAX)).or_insert(next);
                let kids: Vec<NodeId> = args.iter().map(|&a| self.euf_node(store, a)).collect();
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
                let dense = *self.dt_tags.entry((dt.0, *c, *f)).or_insert(next);
                ((8u64 << 40) | dense, vec![self.euf_node(store, *a)])
            }
            TermKind::DtTest(dt, c, a) => {
                let next = self.dt_tags.len() as u64;
                let dense = *self.dt_tags.entry((dt.0, *c, u32::MAX - 1)).or_insert(next);
                ((9u64 << 40) | dense, vec![self.euf_node(store, *a)])
            }
            // Leaves and anything else: opaque per-term constants.
            _ => (tag_leaf(t.0), vec![]),
        };
        let n = self.euf.add_node(tag, children);
        self.node_of.insert(t, n);
        if store.sort_of(t) == self.int_sort {
            self.term_of.insert(n, t);
            self.euf.set_shared(n);
        }
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
    fn decompose(&mut self, store: &TermStore, t: TermId) -> (i128, Vec<(i128, LVar)>) {
        match store.kind(t) {
            TermKind::IntConst(k) => (*k, vec![]),
            TermKind::Linear { konst, monomials } => {
                let combo = monomials.iter().map(|&(c, a)| (c, self.lvar(a))).collect();
                (*konst, combo)
            }
            _ => (0, vec![(1, self.lvar(t))]),
        }
    }

    /// `a - b` as (constant, merged combo).
    fn difference(&mut self, store: &TermStore, a: TermId, b: TermId) -> (i128, Vec<(i128, LVar)>) {
        let (ka, mut combo) = self.decompose(store, a);
        let (kb, cb) = self.decompose(store, b);
        combo.extend(cb.into_iter().map(|(c, v)| (-c, v)));
        (ka - kb, merge_combo(combo))
    }

    /// Resolve `konst + Σ combo`'s combination to a LIA column.
    fn resolve(&mut self, (konst, combo): (i128, Vec<(i128, LVar)>)) -> Result<Resolved, Overflow> {
        if combo.is_empty() {
            return Ok((konst, None));
        }
        Ok((konst, Some(self.lia.register(&combo)?)))
    }

    /// Register one atom at the base state: EUF nodes for every
    /// non-boolean subterm (so congruence sees terms that occur only under
    /// arithmetic atoms), LIA columns and rows, and its shape.
    fn register_atom(&mut self, store: &TermStore, t: TermId, lit: Lit) -> Result<(), Overflow> {
        self.walk_subterms(store, t);
        let shape = match store.kind(t) {
            TermKind::Eq(a, b) => {
                let (a, b) = (*a, *b);
                let (na, nb) = (self.euf_node(store, a), self.euf_node(store, b));
                let lia = if store.sort_of(a) == self.int_sort {
                    let diff = self.difference(store, a, b);
                    Some(self.resolve(diff)?)
                } else {
                    None
                };
                AtomShape::Eq { a: na, b: nb, lia }
            }
            TermKind::Le0(lin) => {
                let lin = self.decompose(store, *lin);
                AtomShape::Le0(self.resolve(lin)?)
            }
            TermKind::Var(_, s) if *s == self.bool_sort => return Ok(()),
            TermKind::App(..) | TermKind::DtTest(..) => AtomShape::Bool(self.euf_node(store, t)),
            _ => return Ok(()),
        };
        let v = lit.var().0 as usize;
        if self.atom_of_var.len() <= v {
            self.atom_of_var.resize(v + 1, None);
        }
        self.atom_of_var[v] = Some(self.shapes.len() as u32);
        self.shapes.push((shape, lit));
        Ok(())
    }

    fn walk_subterms(&mut self, store: &TermStore, t: TermId) {
        for c in store.children(t) {
            if self.walked.insert(c) {
                if store.sort_of(c) != self.bool_sort {
                    self.euf_node(store, c);
                }
                self.walk_subterms(store, c);
            }
        }
    }

    /// Negated explanation literals, as a conflict clause.
    fn clause(&self, lits: impl IntoIterator<Item = Lit>) -> Vec<Lit> {
        let mut lits: Vec<Lit> = lits.into_iter().filter(|&l| l != self.axiom_lit).collect();
        lits.sort_unstable();
        lits.dedup();
        lits.into_iter().map(|l| l.negate()).collect()
    }

    fn conflict_from_tags(&self, tags: Vec<u32>) -> TheoryVerdict {
        let mut lits = Vec::new();
        for tg in tags {
            match self.tags[tg as usize] {
                TagReason::Lit(l) => lits.push(l),
                TagReason::Shared(a, b) => lits.extend(self.euf.explain(a, b)),
            }
        }
        TheoryVerdict::Conflict(self.clause(lits))
    }

    /// Bound `konst + Σ combo` to zero, `col` resolving the combination.
    fn assert_zero(
        &mut self,
        konst: i128,
        col: Col,
        reason: TagReason,
    ) -> Result<(), TheoryVerdict> {
        let tag = self.tag(reason);
        match (
            self.lia.assert_upper_col(col, -konst, Some(tag)),
            self.lia.assert_lower_col(col, -konst, Some(tag)),
        ) {
            (Ok(None), Ok(None)) => Ok(()),
            (Ok(Some(tags)), _) | (_, Ok(Some(tags))) => Err(self.conflict_from_tags(tags)),
            _ => Err(TheoryVerdict::Unknown(LiaLimit::Overflow)),
        }
    }

    /// Close pending merges and send the equalities between shared nodes
    /// they made to LIA.
    fn close(&mut self, store: &TermStore) -> Result<(), TheoryVerdict> {
        self.euf.close();
        for (x, y) in self.euf.take_shared_eqs() {
            let diff = match self.shared_diffs.get(&(x, y)) {
                Some(&diff) => diff,
                None => {
                    let (tx, ty) = (self.term_of[&x], self.term_of[&y]);
                    let diff = self.difference(store, tx, ty);
                    let diff = self
                        .resolve(diff)
                        .map_err(|Overflow| TheoryVerdict::Unknown(LiaLimit::Overflow))?;
                    self.shared_diffs.insert((x, y), diff);
                    diff
                }
            };
            match diff {
                (konst, None) => {
                    if konst != 0 {
                        let expl = self.euf.explain(x, y);
                        return Err(TheoryVerdict::Conflict(self.clause(expl)));
                    }
                }
                (konst, Some(col)) => self.assert_zero(konst, col, TagReason::Shared(x, y))?,
            }
        }
        Ok(())
    }

    /// Assert one literal of a registered atom.
    fn assert_atom(&mut self, store: &TermStore, atom: u32, lit: Lit) -> Result<(), TheoryVerdict> {
        let (shape, pos) = self.shapes[atom as usize];
        let val = lit == pos;
        match shape {
            AtomShape::Eq { a, b, lia } => {
                if !val {
                    self.euf.assert_neq(a, b, lit);
                    return Ok(());
                }
                self.euf.assert_eq(a, b, lit);
                match lia {
                    Some((konst, None)) if konst != 0 => {
                        return Err(TheoryVerdict::Conflict(vec![lit.negate()]));
                    }
                    Some((konst, Some(col))) => {
                        self.assert_zero(konst, col, TagReason::Lit(lit))?
                    }
                    _ => {}
                }
                self.close(store)
            }
            AtomShape::Le0((k, col)) => {
                let Some(col) = col else {
                    if (k <= 0) != val {
                        return Err(TheoryVerdict::Conflict(vec![lit.negate()]));
                    }
                    return Ok(());
                };
                let tag = Some(self.tag(TagReason::Lit(lit)));
                let res = if val {
                    // Σ combo + k <= 0  =>  Σ combo <= -k
                    self.lia.assert_upper_col(col, -k, tag)
                } else {
                    // Σ combo + k >= 1  =>  Σ combo >= 1 - k
                    self.lia.assert_lower_col(col, 1 - k, tag)
                };
                match res {
                    Ok(None) => Ok(()),
                    Ok(Some(tags)) => Err(self.conflict_from_tags(tags)),
                    Err(Overflow) => Err(TheoryVerdict::Unknown(LiaLimit::Overflow)),
                }
            }
            AtomShape::Bool(n) => {
                let target = if val { self.true_node } else { self.false_node };
                self.euf.assert_eq(n, target, lit);
                self.close(store)
            }
        }
    }

    /// Register atoms added since the last call, at the base state.
    fn register_new(
        &mut self,
        store: &TermStore,
        atoms: &[(TermId, Lit)],
    ) -> Result<(), TheoryVerdict> {
        self.points.clear();
        self.restore(self.base);
        self.synced = 0;
        for &(t, lit) in &atoms[self.registered..] {
            if self.register_atom(store, t, lit).is_err() {
                return Err(TheoryVerdict::Unknown(LiaLimit::Overflow));
            }
        }
        self.registered = atoms.len();
        self.close(store)?;
        self.base = self.mark();
        Ok(())
    }

    fn atom_of(&self, lit: Lit) -> Option<u32> {
        self.atom_of_var
            .get(lit.var().0 as usize)
            .copied()
            .flatten()
    }

    /// Check the relevant part of the full assignment on `sat`'s trail. An
    /// `Unknown` (overflow, exhausted meter or branch budget) ends the
    /// `check` call, so a state an overflow left inconsistent is never used
    /// again.
    fn final_check(
        &mut self,
        store: &TermStore,
        atoms: &[(TermId, Lit)],
        relevancy: &Relevancy,
        sat: &SatSolver,
    ) -> TheoryVerdict {
        if self.registered < atoms.len() {
            if let Err(v) = self.register_new(store, atoms) {
                return v;
            }
        }
        relevancy.mark(sat, &mut self.relevant);
        let lits: Vec<Lit> = sat
            .trail()
            .iter()
            .copied()
            .filter(|&l| self.relevant.is_relevant(l.var()) && self.atom_of(l).is_some())
            .collect();
        let common = self.lits[..self.synced]
            .iter()
            .zip(&lits)
            .take_while(|(a, b)| a == b)
            .count();
        self.undo_to(common);
        self.lits = lits;
        for i in common..self.lits.len() {
            let lit = self.lits[i];
            let atom = self.atom_of(lit).expect("listed literals are atoms");
            self.points.push((i, self.mark()));
            if let Err(v) = self.assert_atom(store, atom, lit) {
                // Leave the state as it was before this literal, so a
                // later check can assert it afresh.
                self.undo_to(i);
                self.synced = i;
                return v;
            }
        }
        self.synced = self.lits.len();
        if let Err(c) = self.euf.check_diseqs() {
            return TheoryVerdict::Conflict(self.clause(c.lits));
        }
        if let Some(m) = &self.meter {
            if m.check("euf") {
                return TheoryVerdict::Unknown(LiaLimit::Meter);
            }
        }
        match self.lia.check(LIA_BRANCH_NODES) {
            LiaOutcome::Sat(model) => TheoryVerdict::Consistent(
                self.lvars
                    .iter()
                    .map(|&(t, v)| (t, model[v.0 as usize]))
                    .collect(),
            ),
            LiaOutcome::Unsat(tags) => self.conflict_from_tags(tags),
            LiaOutcome::Unknown(limit) => TheoryVerdict::Unknown(limit),
        }
    }
}

fn tag_leaf(id: u32) -> u64 {
    (1u64 << 40) | id as u64
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
