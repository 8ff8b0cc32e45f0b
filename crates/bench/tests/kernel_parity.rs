//! Kernel parity: the incremental solver kernels (watermark e-matching,
//! merge-log class index, persistent theory registration/decomposition
//! caches) must be *invisible* in every deterministic quantity. For each
//! example system this pins byte-identical `explain --json` and profile
//! output between the incremental kernels and the `batch_kernels` escape
//! hatch (which forces the pre-incremental rebuild-every-round behavior),
//! at 1 thread and at 8 — the incremental kernels may skip only uncharged
//! work, so verdicts, unsat cores, diagnostics, budgeted meter totals, and
//! instantiation sets/order all replay exactly.

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_bench::{casestudy, explain};
use veris_vc::{verify_krate, KrateReport, Style, VcConfig};

/// All example systems: the Fig 9 case studies plus the diagnostics demo
/// (whose failing/unknown functions exercise parity of counterexamples and
/// unsat cores, not just verified proofs).
fn systems() -> Vec<&'static str> {
    let mut names: Vec<&str> = casestudy::NAMES.to_vec();
    names.push("diagdemo");
    names
}

/// The baseline configuration: the deterministic rlimit budget, so every
/// compared quantity is machine-independent.
fn cfg(batch: bool) -> VcConfig {
    let mut c = veris_idioms::config_with_provers();
    c.style = Style::Verus;
    c.max_quant_rounds = Some(8);
    c.with_rlimit(BASELINE_RLIMIT).with_batch_kernels(batch)
}

/// Compare every deterministic, *budgeted* quantity of two reports. The
/// informational reuse counters (`ematch_skipped`, `theory_reuse`) are the
/// one legitimate divergence between kernels, so whole-snapshot equality is
/// deliberately not asserted; the budgeted serialization and total are.
fn assert_budgeted_parity(system: &str, incr: &KrateReport, batch: &KrateReport, what: &str) {
    assert_eq!(
        incr.functions.len(),
        batch.functions.len(),
        "{system} ({what}): report length"
    );
    for (a, b) in incr.functions.iter().zip(&batch.functions) {
        let ctx = format!("{system}::{} ({what})", a.name);
        assert_eq!(a.name, b.name, "{ctx}: name");
        assert_eq!(a.status, b.status, "{ctx}: status");
        assert_eq!(
            a.meter.to_json(),
            b.meter.to_json(),
            "{ctx}: budgeted meter"
        );
        assert_eq!(a.meter.total(), b.meter.total(), "{ctx}: rlimit spent");
        assert_eq!(a.instantiations, b.instantiations, "{ctx}: instantiations");
        assert_eq!(a.conflicts, b.conflicts, "{ctx}: conflicts");
        assert_eq!(a.obligations, b.obligations, "{ctx}: obligations");
        assert_eq!(a.hyps_asserted, b.hyps_asserted, "{ctx}: hyps asserted");
        assert_eq!(a.hyps_used, b.hyps_used, "{ctx}: hyps used (unsat core)");
        assert_eq!(a.profile, b.profile, "{ctx}: quantifier profile");
        assert_eq!(a.diagnostics, b.diagnostics, "{ctx}: diagnostics");
    }
}

/// The incremental kernels must produce byte-identical explain/profile
/// output to the forced-batch escape hatch, at 1 thread and at 8, for
/// every example system — while the batch run never charges the
/// informational reuse counters.
#[test]
fn incremental_kernels_match_batch_for_every_system() {
    let mut any_reuse = false;
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        let incr1 = verify_krate(&krate, &cfg(false), 1);
        let batch1 = verify_krate(&krate, &cfg(true), 1);

        assert_budgeted_parity(system, &incr1, &batch1, "incremental vs batch, 1 thread");
        assert_eq!(
            explain::render_json(system, &incr1),
            explain::render_json(system, &batch1),
            "{system}: explain --json bytes, incremental vs batch"
        );
        assert_eq!(
            incr1.merged_profile().to_json(),
            batch1.merged_profile().to_json(),
            "{system}: merged profile bytes, incremental vs batch"
        );

        let bm = batch1.total_meter();
        assert_eq!(
            (bm.ematch_skipped, bm.theory_reuse),
            (0, 0),
            "{system}: batch kernels must not charge reuse counters"
        );
        let im = incr1.total_meter();
        any_reuse |= im.ematch_skipped > 0 || im.theory_reuse > 0;

        // The 8-thread schedule must not perturb either kernel, and the
        // informational counters must also be schedule-independent (they
        // are per-function solver work, reset at session pop).
        let incr8 = verify_krate(&krate, &cfg(false), 8);
        let batch8 = verify_krate(&krate, &cfg(true), 8);
        assert_budgeted_parity(system, &incr8, &batch8, "incremental vs batch, 8 threads");
        assert_eq!(
            explain::render_json(system, &incr1),
            explain::render_json(system, &incr8),
            "{system}: explain --json bytes, 1 vs 8 threads (incremental)"
        );
        assert_eq!(
            explain::render_json(system, &batch1),
            explain::render_json(system, &batch8),
            "{system}: explain --json bytes, 1 vs 8 threads (batch)"
        );
        for (a, b) in incr1.functions.iter().zip(&incr8.functions) {
            assert_eq!(
                a.meter, b.meter,
                "{system}::{}: full meter snapshot (incl. reuse counters), 1 vs 8 threads",
                a.name
            );
        }
    }
    assert!(
        any_reuse,
        "incremental kernels reused nothing on any system — watermarks/theory cache inert"
    );
}
