//! CDCL SAT core with two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-style activities, phase saving, and Luby restarts.
//!
//! The solver is incremental in the limited way the SMT layer needs: new
//! variables and clauses may be added between `solve` calls (the solver
//! backtracks to level 0 first), and the caller supplies a *final-check*
//! callback invoked on every full assignment; the callback either accepts
//! the model or returns a conflict clause to learn.
//!
//! When a [`ResourceMeter`] is attached, the search charges conflicts,
//! decisions, and propagations to it, and aborts with `Unknown` once the
//! meter's budget trips — checked only at conflicts, so the abort point is
//! a deterministic function of the input.

use std::collections::HashSet;
use std::sync::Arc;

use veris_obs::{Counter, ResourceMeter};

/// A boolean variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BVar(pub u32);

/// A literal: variable plus sign. Encoded as `var * 2 + (negated as usize)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Lit(pub u32);

impl Lit {
    pub fn new(var: BVar, negated: bool) -> Lit {
        Lit(var.0 * 2 + negated as u32)
    }

    pub fn pos(var: BVar) -> Lit {
        Lit::new(var, false)
    }

    pub fn neg(var: BVar) -> Lit {
        Lit::new(var, true)
    }

    pub fn var(self) -> BVar {
        BVar(self.0 / 2)
    }

    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Tri-state assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

/// Snapshot of the complete mutable solver state, taken by
/// [`SatSolver::push`] and restored wholesale by [`SatSolver::pop`].
///
/// A full snapshot (rather than watermark-based trimming) guarantees that a
/// popped solver is *bit-identical* to its state at push time — including
/// VSIDS activities, saved phases, the in-place literal permutations the
/// two-watched-literal scheme applies to clause bodies, and the search
/// counters — so a check run inside a frame is byte-for-byte identical to
/// the same check run on a fresh solver with the same prefix of operations.
struct SatFrame {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<BVar>,
    heap_index: Vec<i32>,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    root_conflict: bool,
    conflict_core: Vec<Lit>,
}

/// Outcome of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    Sat,
    Unsat,
    /// Resource limit reached.
    Unknown,
}

/// Reason a final-check callback can give for rejecting a full assignment.
pub enum FinalCheck {
    /// The assignment is consistent with the theories; accept it.
    Consistent,
    /// Learn this clause (must be false under the current assignment) and
    /// continue searching.
    Conflict(Vec<Lit>),
    /// New clauses were added out-of-band (e.g., quantifier instances);
    /// restart the search loop.
    Restart,
}

/// Resource limits for the SAT search. The deterministic budget is the
/// solver's resource meter; the conflict cap is only a backstop for
/// unmetered (test) solvers. Every conflict charges the meter at least one
/// unit, so a metered search at an rlimit up to the cap (the default
/// rlimit included) runs out of meter before it reaches the cap.
#[derive(Clone, Copy, Debug)]
pub struct SatLimits {
    pub max_conflicts: u64,
}

impl Default for SatLimits {
    fn default() -> Self {
        SatLimits {
            max_conflicts: 2_000_000,
        }
    }
}

/// CDCL SAT solver.
pub struct SatSolver {
    num_vars: u32,
    /// Input and learnt clauses of two or more literals; the first two
    /// literals of each are its watches.
    clauses: Vec<Vec<Lit>>,
    /// For each literal, the clauses watching it.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<LBool>,
    /// Saved phases for decision polarity.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary heap order is approximated with a simple scan + cache; for our
    /// problem sizes an indexed heap is not the bottleneck, but we keep one
    /// anyway for robustness.
    heap: Vec<BVar>,
    heap_index: Vec<i32>,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    root_conflict: bool,
    /// After an `Unsat` answer from [`SatSolver::solve_with_assumptions`]:
    /// the subset of assumption literals implicated in the refutation (empty
    /// when the problem is unsat without any assumptions).
    conflict_core: Vec<Lit>,
    /// Optional resource meter; charged during search when present.
    meter: Option<Arc<ResourceMeter>>,
    /// Open assertion frames (see [`SatSolver::push`]).
    frames: Vec<SatFrame>,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    pub fn new() -> SatSolver {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            root_conflict: false,
            conflict_core: Vec::new(),
            meter: None,
            frames: Vec::new(),
        }
    }

    /// Attach a resource meter; search work is charged to it from now on.
    pub fn set_meter(&mut self, meter: Arc<ResourceMeter>) {
        self.meter = Some(meter);
    }

    /// Number of open assertion frames.
    pub fn depth(&self) -> u32 {
        self.frames.len() as u32
    }

    /// Open an assertion frame: snapshot the complete solver state. A later
    /// [`SatSolver::pop`] restores it exactly, so anything added or learnt
    /// in between leaves no trace.
    pub fn push(&mut self) {
        self.frames.push(SatFrame {
            num_vars: self.num_vars,
            clauses: self.clauses.clone(),
            watches: self.watches.clone(),
            assign: self.assign.clone(),
            phase: self.phase.clone(),
            level: self.level.clone(),
            reason: self.reason.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            heap: self.heap.clone(),
            heap_index: self.heap_index.clone(),
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
            root_conflict: self.root_conflict,
            conflict_core: self.conflict_core.clone(),
        });
    }

    /// Close the innermost assertion frame, restoring the exact state at
    /// the matching [`SatSolver::push`].
    ///
    /// # Panics
    /// Panics if no frame is open.
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        self.num_vars = frame.num_vars;
        self.clauses = frame.clauses;
        self.watches = frame.watches;
        self.assign = frame.assign;
        self.phase = frame.phase;
        self.level = frame.level;
        self.reason = frame.reason;
        self.trail = frame.trail;
        self.trail_lim = frame.trail_lim;
        self.qhead = frame.qhead;
        self.activity = frame.activity;
        self.var_inc = frame.var_inc;
        self.heap = frame.heap;
        self.heap_index = frame.heap_index;
        self.conflicts = frame.conflicts;
        self.decisions = frame.decisions;
        self.propagations = frame.propagations;
        self.root_conflict = frame.root_conflict;
        self.conflict_core = frame.conflict_core;
    }

    pub fn new_var(&mut self) -> BVar {
        let v = BVar(self.num_vars);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.heap_index.push(-1);
        self.heap_insert(v);
        v
    }

    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    pub fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(!l.is_neg()),
            LBool::False => LBool::from_bool(l.is_neg()),
        }
    }

    pub fn value_var(&self, v: BVar) -> LBool {
        self.assign[v.0 as usize]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause. May be called between (or during, via final check)
    /// solves; the solver backtracks as needed. Returns false if the clause
    /// makes the problem trivially unsat at the root level.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        if self.root_conflict {
            return false;
        }
        // Normalize at root only when safe: dedupe, drop root-false lits,
        // detect tautology and root-true lits.
        lits.sort_unstable();
        lits.dedup();
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return true; // tautology: contains l and !l
            }
            i += 1;
        }
        let root_value = |s: &Self, l: Lit| -> LBool {
            if s.level[l.var().0 as usize] == 0 {
                s.value(l)
            } else {
                LBool::Undef
            }
        };
        if lits.iter().any(|&l| root_value(self, l) == LBool::True) {
            return true;
        }
        lits.retain(|&l| root_value(self, l) != LBool::False);
        match lits.len() {
            0 => {
                self.root_conflict = true;
                false
            }
            1 => {
                self.backtrack_to(0);
                if self.value(lits[0]) == LBool::False {
                    self.root_conflict = true;
                    return false;
                }
                if self.value(lits[0]) == LBool::Undef {
                    self.enqueue(lits[0], None);
                    if self.propagate().is_some() {
                        self.root_conflict = true;
                        return false;
                    }
                }
                true
            }
            _ => {
                self.attach_clause(lits);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef(self.clauses.len() as u32);
        self.watches[lits[0].negate().index()].push(cref);
        self.watches[lits[1].negate().index()].push(cref);
        self.clauses.push(lits);
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.assign[v] = LBool::from_bool(!l.is_neg());
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            if let Some(m) = &self.meter {
                m.charge(Counter::SatPropagations, 1);
            }
            // Clauses watching !l need a new watch or are unit/conflicting.
            let mut watchers = std::mem::take(&mut self.watches[l.index()]);
            let mut j = 0;
            let mut conflict = None;
            for i in 0..watchers.len() {
                let cref = watchers[i];
                let watched_false = l.negate();
                // Ensure lits[1] is the false watch.
                {
                    let clause = &mut self.clauses[cref.0 as usize];
                    if clause[0] == watched_false {
                        clause.swap(0, 1);
                    }
                }
                let first = self.clauses[cref.0 as usize][0];
                if self.value(first) == LBool::True {
                    watchers[j] = cref;
                    j += 1;
                    continue;
                }
                // Find a new watch.
                let mut found = false;
                {
                    let len = self.clauses[cref.0 as usize].len();
                    for k in 2..len {
                        let cand = self.clauses[cref.0 as usize][k];
                        if self.value(cand) != LBool::False {
                            self.clauses[cref.0 as usize].swap(1, k);
                            self.watches[cand.negate().index()].push(cref);
                            found = true;
                            break;
                        }
                    }
                }
                if found {
                    continue;
                }
                // Unit or conflict.
                watchers[j] = cref;
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict; keep remaining watchers.
                    for k in i + 1..watchers.len() {
                        watchers[j] = watchers[k];
                        j += 1;
                    }
                    conflict = Some(cref);
                    break;
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            watchers.truncate(j);
            self.watches[l.index()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause and the
    /// backjump level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut seen = vec![false; self.num_vars as usize];
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        loop {
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = self.clauses[cref.0 as usize][start..].to_vec();
            for q in lits {
                let v = q.var().0 as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                let l = self.trail[index];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize;
            counter -= 1;
            seen[pv] = false;
            if counter == 0 {
                learnt[0] = p.unwrap().negate();
                break;
            }
            cref = self.reason[pv].expect("non-decision must have a reason");
        }
        // Conflict-clause minimization (simple recursive check).
        let in_clause: HashSet<BVar> = learnt.iter().map(|l| l.var()).collect();
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.redundant(l, &in_clause))
            .collect();
        let learnt: Vec<Lit> = learnt
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| if k { Some(l) } else { None })
            .collect();
        // Backjump level: second-highest level in the clause.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        (learnt, bt)
    }

    /// Is `l` implied by the other literals in the learnt clause (one step)?
    fn redundant(&self, l: Lit, in_clause: &HashSet<BVar>) -> bool {
        match self.reason[l.var().0 as usize] {
            None => false,
            Some(cref) => self.clauses[cref.0 as usize][1..]
                .iter()
                .all(|&q| in_clause.contains(&q.var()) || self.level[q.var().0 as usize] == 0),
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assign[v.0 as usize] = LBool::Undef;
            self.reason[v.0 as usize] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v.0 as usize] == LBool::Undef {
                return Some(Lit::new(v, !self.phase[v.0 as usize]));
            }
        }
        None
    }

    // --- activity heap -------------------------------------------------

    fn bump_var(&mut self, v: BVar) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn decay_var(&mut self) {
        self.var_inc /= 0.95;
    }

    fn heap_insert(&mut self, v: BVar) {
        if self.heap_index[v.0 as usize] >= 0 {
            return;
        }
        self.heap_index[v.0 as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<BVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top.0 as usize] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.0 as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: BVar) {
        let idx = self.heap_index[v.0 as usize];
        if idx >= 0 {
            self.heap_up(idx as usize);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].0 as usize] > self.activity[self.heap[parent].0 as usize]
            {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].0 as usize]
                    > self.activity[self.heap[best].0 as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].0 as usize]
                    > self.activity[self.heap[best].0 as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_index[self.heap[a].0 as usize] = a as i32;
        self.heap_index[self.heap[b].0 as usize] = b as i32;
    }

    // --- main search ----------------------------------------------------

    /// Solve with a final-check callback (theory integration hook).
    pub fn solve_with<F>(&mut self, limits: SatLimits, final_check: F) -> SatResult
    where
        F: FnMut(&SatSolver) -> FinalCheck,
    {
        self.solve_with_assumptions(limits, &[], final_check)
    }

    /// After `solve_with_assumptions` returns `Unsat`, the subset of
    /// assumption literals implicated in the final conflict. Empty when the
    /// clause set is unsatisfiable on its own.
    pub fn core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Solve under a set of assumption literals (MiniSat-style incremental
    /// interface). Each assumption is enqueued as a decision at its own
    /// level before ordinary branching; an `Unsat` answer additionally
    /// yields, via [`SatSolver::core`], the subset of assumptions the
    /// refutation depends on (final-conflict analysis over the implication
    /// graph).
    pub fn solve_with_assumptions<F>(
        &mut self,
        limits: SatLimits,
        assumptions: &[Lit],
        mut final_check: F,
    ) -> SatResult
    where
        F: FnMut(&SatSolver) -> FinalCheck,
    {
        self.conflict_core.clear();
        if self.root_conflict {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.root_conflict = true;
            return SatResult::Unsat;
        }
        let mut conflicts_at_start = self.conflicts;
        let mut luby_idx = 1u64;
        let mut next_restart = self.conflicts + RESTART_UNIT * luby(luby_idx);
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    self.root_conflict = true;
                    return SatResult::Unsat;
                }
                if self.conflicts - conflicts_at_start > limits.max_conflicts {
                    return SatResult::Unknown;
                }
                if let Some(m) = &self.meter {
                    m.charge(Counter::SatConflicts, 1);
                    if m.check("sat") {
                        return SatResult::Unknown;
                    }
                }
                let (learnt, bt) = self.analyze(conflict);
                self.backtrack_to(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], None);
                } else {
                    let uip = learnt[0];
                    let cref = self.attach_clause(learnt);
                    self.enqueue(uip, Some(cref));
                }
                self.decay_var();
            } else {
                if self.conflicts >= next_restart {
                    luby_idx += 1;
                    next_restart = self.conflicts + RESTART_UNIT * luby(luby_idx);
                    self.backtrack_to(0);
                    continue;
                }
                if (self.decision_level() as usize) < assumptions.len() {
                    // Assumptions occupy the lowest decision levels, one
                    // per level, re-established after every restart.
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied: open an empty level so level
                            // indices stay aligned with assumption indices.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // The clause set refutes this assumption given
                            // the ones already decided.
                            self.conflict_core = self.analyze_final(a);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.decisions += 1;
                            if let Some(m) = &self.meter {
                                m.charge(Counter::SatDecisions, 1);
                            }
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        // Full assignment: ask the theories.
                        match final_check(self) {
                            FinalCheck::Consistent => return SatResult::Sat,
                            FinalCheck::Conflict(clause) => {
                                // The clause must be false under the current
                                // assignment. Learn it and backtrack.
                                debug_assert!(
                                    clause.iter().all(|&l| self.value(l) == LBool::False),
                                    "theory conflict clause must be falsified"
                                );
                                self.conflicts += 1;
                                if self.conflicts - conflicts_at_start > limits.max_conflicts {
                                    return SatResult::Unknown;
                                }
                                if let Some(m) = &self.meter {
                                    m.charge(Counter::SatConflicts, 1);
                                    if m.check("sat") {
                                        return SatResult::Unknown;
                                    }
                                }
                                if clause.is_empty() {
                                    self.root_conflict = true;
                                    return SatResult::Unsat;
                                }
                                // Restart to the root so the learned theory
                                // clause is attached with sound watches; the
                                // clause excludes the current model, so the
                                // search makes progress.
                                self.backtrack_to(0);
                                if !self.add_clause(clause) {
                                    return SatResult::Unsat;
                                }
                                conflicts_at_start = conflicts_at_start.min(self.conflicts);
                            }
                            FinalCheck::Restart => {
                                self.backtrack_to(0);
                                if self.root_conflict {
                                    return SatResult::Unsat;
                                }
                            }
                        }
                    }
                    Some(l) => {
                        self.decisions += 1;
                        if let Some(m) = &self.meter {
                            m.charge(Counter::SatDecisions, 1);
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Plain SAT solve without theories.
    pub fn solve(&mut self, limits: SatLimits) -> SatResult {
        self.solve_with(limits, |_| FinalCheck::Consistent)
    }

    /// Final-conflict analysis: the assumption `p` is falsified under the
    /// currently-decided assumptions. Walk the implication graph backwards
    /// from `¬p` and collect the assumption decisions it rests on.
    fn analyze_final(&self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            // `¬p` is implied at the root: `p` alone is refuted.
            return core;
        }
        let mut seen = vec![false; self.num_vars as usize];
        seen[p.var().0 as usize] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            if !seen[v] {
                continue;
            }
            match self.reason[v] {
                // Every decision below the assumption levels is itself an
                // assumption (empty levels carry no trail literals).
                None => core.push(l),
                Some(cref) => {
                    for &q in &self.clauses[cref.0 as usize][1..] {
                        if self.level[q.var().0 as usize] > 0 {
                            seen[q.var().0 as usize] = true;
                        }
                    }
                }
            }
        }
        core
    }
}

/// Conflicts per Luby unit between restarts.
const RESTART_UNIT: u64 = 64;

/// Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u64) -> u64 {
    let mut x = i as i64 - 1;
    let (mut size, mut seq) = (1i64, 0i64);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq.clamp(0, 62)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        let var = BVar(v.unsigned_abs() - 1);
        Lit::new(var, v < 0)
    }

    fn solver_with_vars(n: u32) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1), lit(2)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause(vec![lit(1)]));
        assert!(!s.add_clause(vec![lit(-1)]) || s.solve(SatLimits::default()) == SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes. Var p(i,h) = i*2 + h + 1.
        let mut s = solver_with_vars(6);
        let p = |i: u32, h: u32| lit((i * 2 + h + 1) as i32);
        for i in 0..3 {
            assert!(s.add_clause(vec![p(i, 0), p(i, 1)]));
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    assert!(s.add_clause(vec![p(i, h).negate(), p(j, h).negate()]));
                }
            }
        }
        assert_eq!(s.solve(SatLimits::default()), SatResult::Unsat);
    }

    #[test]
    fn chain_implications_sat() {
        let n = 50;
        let mut s = solver_with_vars(n);
        for i in 1..n as i32 {
            assert!(s.add_clause(vec![lit(-i), lit(i + 1)]));
        }
        assert!(s.add_clause(vec![lit(1)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        for i in 0..n {
            assert_eq!(s.value_var(BVar(i)), LBool::True);
        }
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1), lit(2)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        assert!(s.add_clause(vec![lit(-1)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        assert_eq!(s.value_var(BVar(1)), LBool::True);
        s.add_clause(vec![lit(-2)]);
        assert_eq!(s.solve(SatLimits::default()), SatResult::Unsat);
    }

    #[test]
    fn final_check_conflict_loop() {
        // Theory: x1 and x2 cannot both be true; expressed only via the
        // final-check callback.
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1)]));
        assert!(s.add_clause(vec![lit(2), lit(-1)]));
        let r = s.solve_with(SatLimits::default(), |sat| {
            if sat.value(lit(1)) == LBool::True && sat.value(lit(2)) == LBool::True {
                FinalCheck::Conflict(vec![lit(-1), lit(-2)])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    fn assumptions_sat_then_unsat_with_core() {
        // (x1 -> x2), (x3 -> !x2): sat under {x1}, sat under {x3},
        // unsat under {x1, x3} with both assumptions in the core.
        let mut s = solver_with_vars(3);
        assert!(s.add_clause(vec![lit(-1), lit(2)]));
        assert!(s.add_clause(vec![lit(-3), lit(-2)]));
        let asm = [lit(1)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Sat
        );
        let asm = [lit(3)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Sat
        );
        let asm = [lit(1), lit(3)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
        let mut core = s.core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![lit(1), lit(3)]);
        // Not a root conflict: solving without assumptions is still sat.
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
    }

    #[test]
    fn assumption_core_excludes_irrelevant() {
        // x1 and !x1 both forced by assumptions {x1, x4, !x1}; x4 is
        // irrelevant and must not appear in the core.
        let mut s = solver_with_vars(4);
        assert!(s.add_clause(vec![lit(-1), lit(2)]));
        assert!(s.add_clause(vec![lit(-2), lit(3)]));
        let asm = [lit(4), lit(1), lit(-3)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
        let mut core = s.core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![lit(1), lit(-3)]);
    }

    #[test]
    fn root_unsat_yields_empty_core() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![lit(1)]);
        s.add_clause(vec![lit(-1)]);
        let asm = [lit(2)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
        assert!(s.core().is_empty());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1), lit(2)]));
        let asm = [lit(1), lit(-1)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
        let mut core = s.core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![lit(1), lit(-1)]);
    }

    #[test]
    fn pop_removes_clauses_added_above() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1), lit(2)]));
        s.push();
        s.add_clause(vec![lit(-1)]);
        s.add_clause(vec![lit(-2)]);
        assert_eq!(s.solve(SatLimits::default()), SatResult::Unsat);
        s.pop();
        // The frame's units (and the root conflict) are gone.
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn pop_restores_vars_and_counters() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(vec![lit(1), lit(2)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        let (c0, d0, p0) = (s.conflicts, s.decisions, s.propagations);
        s.push();
        let v = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(v), lit(-1)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        s.pop();
        assert_eq!(s.num_vars(), 2);
        assert_eq!((s.conflicts, s.decisions, s.propagations), (c0, d0, p0));
        // Solver still fully usable after the pop.
        assert!(s.add_clause(vec![lit(-1)]));
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        assert_eq!(s.value_var(BVar(1)), LBool::True);
    }

    #[test]
    fn nested_push_pop() {
        let mut s = solver_with_vars(3);
        assert!(s.add_clause(vec![lit(1), lit(2), lit(3)]));
        s.push();
        s.add_clause(vec![lit(-1)]);
        s.push();
        s.add_clause(vec![lit(-2)]);
        s.add_clause(vec![lit(-3)]);
        assert_eq!(s.solve(SatLimits::default()), SatResult::Unsat);
        s.pop();
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        s.pop();
        assert_eq!(s.solve(SatLimits::default()), SatResult::Sat);
        assert_eq!(s.depth(), 0);
    }

    /// PHP(3,2) with a relaxation literal `r` in every clause: unsat under
    /// the assumption `¬r`, and the search must pass through genuine
    /// conflicts (so clauses get learnt) before concluding.
    fn relaxed_pigeonhole() -> SatSolver {
        let mut s = solver_with_vars(7);
        let p = |i: u32, h: u32| lit((i * 2 + h + 1) as i32);
        let r = lit(7);
        for i in 0..3 {
            assert!(s.add_clause(vec![p(i, 0), p(i, 1), r]));
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    assert!(s.add_clause(vec![p(i, h).negate(), p(j, h).negate(), r]));
                }
            }
        }
        s
    }

    #[test]
    fn pop_discards_learnts() {
        let mut s = relaxed_pigeonhole();
        let clauses_before_push = s.clauses.len();
        s.push();
        let asm = [lit(-7)];
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
        assert!(
            s.clauses.len() > clauses_before_push,
            "the PHP search must learn clauses"
        );
        s.pop();
        assert_eq!(
            s.clauses.len(),
            clauses_before_push,
            "pop restores the pre-push clause set"
        );
        assert_eq!(
            s.solve_with_assumptions(SatLimits::default(), &asm, |_| FinalCheck::Consistent),
            SatResult::Unsat
        );
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }
}
