//! Macrobenchmark reporting in the shape of the paper's Figure 9: line
//! counts (trusted / proof / code), proof-to-code ratio, verification times
//! at 1 and N cores, total SMT query bytes, and the observability columns
//! (rlimit resource units spent, quantifier instantiations).

use std::fmt::Write as _;
use std::time::Duration;

use veris_vc::{KrateReport, SessionStats};
use veris_vir::loc::{count_krate, LineCounts};
use veris_vir::Krate;

/// One row of the Figure 9 table.
#[derive(Clone, Debug)]
pub struct MacroRow {
    pub system: String,
    pub lines: LineCounts,
    pub time_1core: Duration,
    pub time_ncore: Duration,
    pub smt_bytes: usize,
    /// Deterministic resource units spent verifying at 1 core (the quantity
    /// `--rlimit` budgets against), summed over all functions.
    pub rlimit_spent: u64,
    /// Total quantifier instantiations performed at 1 core.
    pub quant_insts: u64,
    /// Context-pruning effectiveness: labeled hypotheses asserted and
    /// actually used (unsat-core membership) over the verified queries.
    pub hyps_asserted: usize,
    pub hyps_used: usize,
    /// Incremental-verification counters from the 1-core run: module solver
    /// sessions opened, context re-encodings avoided by base-session reuse,
    /// and result-cache hits/misses.
    pub sessions: SessionStats,
    /// Pre-solver static-analysis findings emitted for the 1-core run
    /// (errors + warnings + notes; suppressed findings are not counted).
    pub lints: u64,
    pub all_verified: bool,
}

impl MacroRow {
    /// Build a row by verifying `krate` at 1 core and `threads` cores.
    pub fn measure(
        system: &str,
        krate: &Krate,
        cfg: &veris_vc::VcConfig,
        threads: usize,
    ) -> MacroRow {
        let r1 = veris_vc::verify_krate(krate, cfg, 1);
        let rn = veris_vc::verify_krate(krate, cfg, threads);
        MacroRow::from_reports(system, krate, &r1, &rn)
    }

    pub fn from_reports(
        system: &str,
        krate: &Krate,
        one_core: &KrateReport,
        n_core: &KrateReport,
    ) -> MacroRow {
        let (hyps_asserted, hyps_used) = one_core.hypothesis_usage();
        MacroRow {
            system: system.to_owned(),
            lines: count_krate(krate),
            time_1core: one_core.wall_time,
            time_ncore: n_core.wall_time,
            smt_bytes: one_core.total_query_bytes(),
            rlimit_spent: one_core.total_meter().total(),
            quant_insts: one_core.merged_profile().total_instantiations(),
            hyps_asserted,
            hyps_used,
            sessions: one_core.sessions,
            lints: one_core.lint_stats.total(),
            all_verified: one_core.all_verified() && n_core.all_verified(),
        }
    }

    /// Fraction of asserted labeled hypotheses the proofs actually used
    /// (unsat-core membership), as a percentage. 100 when nothing was
    /// asserted.
    pub fn ctx_used_pct(&self) -> f64 {
        if self.hyps_asserted == 0 {
            100.0
        } else {
            100.0 * self.hyps_used as f64 / self.hyps_asserted as f64
        }
    }
}

/// The Figure 9 table.
#[derive(Clone, Debug, Default)]
pub struct MacroTable {
    pub rows: Vec<MacroRow>,
}

impl MacroTable {
    pub fn push(&mut self, row: MacroRow) {
        self.rows.push(row);
    }

    /// Render as an aligned text table (the benchmark binaries print this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8} {:>7} {:>6} {:>9} {:>9} {:>10} {:>9} {:>8} {:>5} {:>5} {:>6} {:>5} {:>5} {:>4}",
            "System",
            "trusted",
            "proof",
            "code",
            "P/C",
            "t(1core)",
            "t(Ncore)",
            "SMT(KB)",
            "rlimit",
            "qinst",
            "ctx%",
            "sess",
            "reuse",
            "hits",
            "lints",
            "ok"
        );
        let mut total = LineCounts::default();
        for r in &self.rows {
            total.add(r.lines);
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>8} {:>7} {:>6.1} {:>8.2}s {:>8.2}s {:>10} {:>9} {:>8} {:>4.0}% {:>5} {:>6} {:>5} {:>5} {:>4}",
                r.system,
                r.lines.trusted,
                r.lines.proof,
                r.lines.code,
                r.lines.ratio(),
                r.time_1core.as_secs_f64(),
                r.time_ncore.as_secs_f64(),
                r.smt_bytes / 1024,
                r.rlimit_spent,
                r.quant_insts,
                r.ctx_used_pct(),
                r.sessions.sessions_opened,
                r.sessions.ctx_reencodes_avoided,
                r.sessions.cache_hits,
                r.lints,
                if r.all_verified { "yes" } else { "NO" },
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8} {:>7} {:>6.1}",
            "total",
            total.trusted,
            total.proof,
            total.code,
            total.ratio()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn table_renders() {
        let x = var("x", Ty::Int);
        let r = var("r", Ty::Int);
        let f = Function::new("id", Mode::Exec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .ensures(r.eq_e(x.clone()))
            .stmts(vec![Stmt::ret(x.clone())]);
        let k = Krate::new().module(Module::new("m").func(f));
        let cfg = VcConfig::default();
        let row = MacroRow::measure("demo", &k, &cfg, 2);
        assert!(row.all_verified);
        let mut t = MacroTable::default();
        t.push(row);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("P/C"));
        assert!(s.contains("rlimit"));
        assert!(s.contains("qinst"));
        assert!(s.contains("sess"));
        assert!(s.contains("reuse"));
        assert!(s.contains("lints"));
    }
}
