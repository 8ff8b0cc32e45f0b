//! Deterministic resource metering.
//!
//! A [`ResourceMeter`] is a set of monotone counters charged from the
//! solver's inner loops plus an optional budget (`rlimit`). The solver
//! checks [`ResourceMeter::exhausted`] at deterministic program points
//! (per SAT conflict, per e-matching round, per simplex pivot batch, ...)
//! and aborts cleanly when the budget is gone. Because the trip condition
//! depends only on counter values — never on time — the same input with
//! the same `rlimit` exhausts at the same point on every machine and
//! every thread count.
//!
//! The meter is shared via `Arc` so cloned theory solvers (LIA snapshots
//! its state for branch-and-bound) keep charging the same account.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One metered resource. The discriminant is the counter's slot index.
/// Every counter is budgeted: each unit counts toward
/// [`ResourceMeter::spent`], the rlimit, [`MeterSnapshot::total`] and the
/// JSON emitters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// CDCL conflicts in the main SAT core.
    SatConflicts,
    /// CDCL decisions in the main SAT core.
    SatDecisions,
    /// Unit propagations in the main SAT core.
    SatPropagations,
    /// Union-find merges in the congruence closure.
    EufMerges,
    /// Simplex pivot operations in the LIA solver.
    SimplexPivots,
    /// Branch-and-bound case splits in the LIA solver.
    BranchSplits,
    /// E-matching rounds run by the quantifier engine.
    EmatchRounds,
    /// Quantifier instances asserted by the quantifier engine.
    Instantiations,
    /// CNF clauses emitted by the bit-vector bit-blaster.
    BitblastClauses,
}

pub const COUNTERS: [Counter; 9] = [
    Counter::SatConflicts,
    Counter::SatDecisions,
    Counter::SatPropagations,
    Counter::EufMerges,
    Counter::SimplexPivots,
    Counter::BranchSplits,
    Counter::EmatchRounds,
    Counter::Instantiations,
    Counter::BitblastClauses,
];

impl Counter {
    pub fn name(self) -> &'static str {
        match self {
            Counter::SatConflicts => "sat-conflicts",
            Counter::SatDecisions => "sat-decisions",
            Counter::SatPropagations => "sat-propagations",
            Counter::EufMerges => "euf-merges",
            Counter::SimplexPivots => "simplex-pivots",
            Counter::BranchSplits => "branch-splits",
            Counter::EmatchRounds => "ematch-rounds",
            Counter::Instantiations => "instantiations",
            Counter::BitblastClauses => "bitblast-clauses",
        }
    }
}

/// Shared monotone counters plus an optional budget.
#[derive(Debug, Default)]
pub struct ResourceMeter {
    counters: [AtomicU64; COUNTERS.len()],
    /// `u64::MAX` means unlimited.
    limit: AtomicU64,
    /// Phase name recorded the first time the budget trips.
    tripped_in: Mutex<Option<String>>,
}

impl ResourceMeter {
    /// Unlimited meter: counts, never trips.
    pub fn new() -> ResourceMeter {
        ResourceMeter::with_limit(None)
    }

    /// Meter with an optional budget on total spent units.
    pub fn with_limit(rlimit: Option<u64>) -> ResourceMeter {
        ResourceMeter {
            counters: Default::default(),
            limit: AtomicU64::new(rlimit.unwrap_or(u64::MAX)),
            tripped_in: Mutex::new(None),
        }
    }

    pub fn limit(&self) -> Option<u64> {
        match self.limit.load(Ordering::Relaxed) {
            u64::MAX => None,
            n => Some(n),
        }
    }

    /// Add `n` units to counter `c`. Monotone; never blocks.
    pub fn charge(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Total units spent across all counters.
    pub fn spent(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// True once total spent exceeds the budget. Callers invoke this at
    /// deterministic program points only, so where it first returns true
    /// is a pure function of the input and the rlimit.
    pub fn exhausted(&self) -> bool {
        self.spent() > self.limit.load(Ordering::Relaxed)
    }

    /// `exhausted()`, and on the first trip record which phase hit it.
    pub fn check(&self, phase: &str) -> bool {
        if !self.exhausted() {
            return false;
        }
        let mut t = self.tripped_in.lock().unwrap_or_else(|e| e.into_inner());
        if t.is_none() {
            *t = Some(phase.to_string());
        }
        true
    }

    /// Phase that first tripped the budget, if any.
    pub fn tripped_in(&self) -> Option<String> {
        self.tripped_in
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The canonical `Status::Unknown` message for an exhausted budget.
    pub fn exhaustion_message(&self) -> String {
        let rlimit = self.limit.load(Ordering::Relaxed);
        let phase = self.tripped_in().unwrap_or_else(|| "solver".to_string());
        format!(
            "resource limit exceeded (rlimit={}, spent={} in {})",
            rlimit,
            self.spent(),
            phase
        )
    }

    /// Pre-charge the meter with a snapshot's counters. Used by module
    /// sessions: the shared context is encoded once on an unlimited meter,
    /// its cost captured in a snapshot, and each function's fresh limited
    /// meter is then pre-charged with that snapshot — so the per-function
    /// totals (and the deterministic rlimit trip points derived from them)
    /// are identical to a fresh-solver run that re-encoded the context.
    pub fn precharge(&self, snap: &MeterSnapshot) {
        for c in COUNTERS {
            let v = snap.get(c);
            if v > 0 {
                self.charge(c, v);
            }
        }
    }

    /// Plain-value copy of the counters, for reports and equality checks.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            sat_conflicts: self.get(Counter::SatConflicts),
            sat_decisions: self.get(Counter::SatDecisions),
            sat_propagations: self.get(Counter::SatPropagations),
            euf_merges: self.get(Counter::EufMerges),
            simplex_pivots: self.get(Counter::SimplexPivots),
            branch_splits: self.get(Counter::BranchSplits),
            ematch_rounds: self.get(Counter::EmatchRounds),
            instantiations: self.get(Counter::Instantiations),
            bitblast_clauses: self.get(Counter::BitblastClauses),
            ..MeterSnapshot::default()
        }
    }
}

/// Plain-value counter snapshot. `Eq` so determinism tests can compare
/// whole runs directly. Each field but the last two is one [`Counter`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MeterSnapshot {
    pub sat_conflicts: u64,
    pub sat_decisions: u64,
    pub sat_propagations: u64,
    pub euf_merges: u64,
    pub simplex_pivots: u64,
    pub branch_splits: u64,
    pub ematch_rounds: u64,
    pub instantiations: u64,
    pub bitblast_clauses: u64,
    /// Always 0: no counter feeds it. Kept only because the benchmark's
    /// trace reader still reports it.
    pub ematch_skipped: u64,
    /// Always 0: no counter feeds it. Kept only because the benchmark's
    /// trace reader still reports it.
    pub theory_reuse: u64,
}

impl MeterSnapshot {
    /// Sum of the counters — the quantity `rlimit` budgets against and
    /// reports serialize.
    pub fn total(&self) -> u64 {
        self.sat_conflicts
            + self.sat_decisions
            + self.sat_propagations
            + self.euf_merges
            + self.simplex_pivots
            + self.branch_splits
            + self.ematch_rounds
            + self.instantiations
            + self.bitblast_clauses
    }

    pub fn get(&self, c: Counter) -> u64 {
        match c {
            Counter::SatConflicts => self.sat_conflicts,
            Counter::SatDecisions => self.sat_decisions,
            Counter::SatPropagations => self.sat_propagations,
            Counter::EufMerges => self.euf_merges,
            Counter::SimplexPivots => self.simplex_pivots,
            Counter::BranchSplits => self.branch_splits,
            Counter::EmatchRounds => self.ematch_rounds,
            Counter::Instantiations => self.instantiations,
            Counter::BitblastClauses => self.bitblast_clauses,
        }
    }

    /// Element-wise sum, for aggregating per-function meters into a
    /// krate-level report.
    pub fn add(&self, other: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            sat_conflicts: self.sat_conflicts + other.sat_conflicts,
            sat_decisions: self.sat_decisions + other.sat_decisions,
            sat_propagations: self.sat_propagations + other.sat_propagations,
            euf_merges: self.euf_merges + other.euf_merges,
            simplex_pivots: self.simplex_pivots + other.simplex_pivots,
            branch_splits: self.branch_splits + other.branch_splits,
            ematch_rounds: self.ematch_rounds + other.ematch_rounds,
            instantiations: self.instantiations + other.instantiations,
            bitblast_clauses: self.bitblast_clauses + other.bitblast_clauses,
            ..MeterSnapshot::default()
        }
    }

    /// Two-column human-readable table of non-zero counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in COUNTERS {
            let v = self.get(c);
            if v > 0 {
                out.push_str(&format!("  {:<18} {v}\n", c.name()));
            }
        }
        if out.is_empty() {
            out.push_str("  (no resources spent)\n");
        }
        out
    }

    /// JSON over the counters plus their total.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        for c in COUNTERS {
            fields.push(format!("\"{}\":{}", c.name(), self.get(c)));
        }
        fields.push(format!("\"total\":{}", self.total()));
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_snapshot() {
        let m = ResourceMeter::new();
        m.charge(Counter::SatConflicts, 3);
        m.charge(Counter::Instantiations, 2);
        m.charge(Counter::SatConflicts, 1);
        let s = m.snapshot();
        assert_eq!(s.sat_conflicts, 4);
        assert_eq!(s.instantiations, 2);
        assert_eq!(s.total(), 6);
        assert!(!m.exhausted());
    }

    #[test]
    fn budget_trips_and_names_phase() {
        let m = ResourceMeter::with_limit(Some(5));
        m.charge(Counter::EufMerges, 5);
        assert!(!m.check("euf"), "limit is inclusive");
        m.charge(Counter::EufMerges, 1);
        assert!(m.check("euf"));
        assert!(m.check("lia"), "stays tripped");
        assert_eq!(m.tripped_in().as_deref(), Some("euf"));
        assert_eq!(
            m.exhaustion_message(),
            "resource limit exceeded (rlimit=5, spent=6 in euf)"
        );
    }

    #[test]
    fn precharge_reproduces_context_cost() {
        let ctx = ResourceMeter::new();
        ctx.charge(Counter::SatPropagations, 7);
        ctx.charge(Counter::EufMerges, 2);
        let snap = ctx.snapshot();
        let m = ResourceMeter::with_limit(Some(10));
        m.precharge(&snap);
        assert_eq!(m.spent(), 9);
        assert_eq!(m.snapshot().sat_propagations, 7);
        m.charge(Counter::SatConflicts, 2);
        assert!(m.check("sat"), "pre-charged units count against the budget");
    }

    #[test]
    fn every_counter_is_budgeted_and_serialized() {
        let n = COUNTERS.len() as u64;
        let m = ResourceMeter::with_limit(Some(n - 1));
        for c in COUNTERS {
            m.charge(c, 1);
        }
        assert_eq!(m.spent(), n);
        assert!(m.check("all"));
        let s = m.snapshot();
        assert_eq!(s.total(), n);
        let json = s.to_json();
        for c in COUNTERS {
            assert!(json.contains(&format!("\"{}\":1", c.name())), "{json}");
        }
        let copy = ResourceMeter::new();
        copy.precharge(&s);
        assert_eq!(copy.snapshot(), s, "precharge carries every counter");
    }

    #[test]
    fn snapshot_equality_and_sum() {
        let a = MeterSnapshot {
            sat_conflicts: 1,
            ..Default::default()
        };
        let b = MeterSnapshot {
            euf_merges: 2,
            ..Default::default()
        };
        let c = a.add(&b);
        assert_eq!(c.total(), 3);
        assert_eq!(a.add(&b), b.add(&a));
        assert!(c.to_json().contains("\"euf-merges\":2"));
    }
}
