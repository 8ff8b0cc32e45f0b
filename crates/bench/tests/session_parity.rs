//! Incremental-verification parity: per-module solver sessions (push/pop
//! frames over a once-encoded context) and the content-addressed result
//! cache must be *invisible* in every deterministic quantity. For each
//! example system this asserts that session-reuse verification produces the
//! same verdicts, unsat cores, diagnostics, and resource-meter totals as a
//! fresh solver per function, at 0, 1 and 8 threads, and that a warm-cache
//! run answers every function from the cache without opening a session.
//! The `#[epr_mode]` models are held to the same contract: each module's
//! flag picks its own solver mode, in sessions as in fresh solvers.

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_bench::casestudy;
use veris_vc::{verify_function, verify_krate, FnReport, KrateReport, Style, VcConfig};
use veris_vir::expr::{int, var, ExprExt};
use veris_vir::module::{Function, Mode, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;
use veris_vir::Krate;

/// All example systems: the Fig 9 case studies plus the diagnostics demo
/// (whose failing/unknown functions exercise cache round-tripping of
/// counterexamples and unsat cores).
fn systems() -> Vec<&'static str> {
    let mut names: Vec<&str> = casestudy::NAMES.to_vec();
    names.push("diagdemo");
    names
}

/// The baseline configuration: the deterministic rlimit budget, so every
/// compared quantity is machine-independent.
fn cfg() -> VcConfig {
    let mut c = veris_idioms::config_with_provers();
    c.style = Style::Verus;
    c.max_quant_rounds = Some(8);
    c.with_rlimit(BASELINE_RLIMIT)
}

/// Compare every deterministic field of two reports for the same function.
/// Wall-clock fields (`time`, `phases`) are exempt by design.
fn assert_deterministic_eq(system: &str, a: &FnReport, b: &FnReport, what: &str) {
    let ctx = format!("{system}::{} ({what})", a.name);
    assert_eq!(a.name, b.name, "{ctx}: name");
    assert_eq!(a.status, b.status, "{ctx}: status");
    assert_eq!(a.meter, b.meter, "{ctx}: meter snapshot");
    assert_eq!(a.query_bytes, b.query_bytes, "{ctx}: query bytes");
    assert_eq!(a.instantiations, b.instantiations, "{ctx}: instantiations");
    assert_eq!(a.conflicts, b.conflicts, "{ctx}: conflicts");
    assert_eq!(a.obligations, b.obligations, "{ctx}: obligations");
    assert_eq!(a.hyps_asserted, b.hyps_asserted, "{ctx}: hyps asserted");
    assert_eq!(a.hyps_used, b.hyps_used, "{ctx}: hyps used (unsat core)");
    assert_eq!(a.profile, b.profile, "{ctx}: quantifier profile");
    assert_eq!(a.diagnostics, b.diagnostics, "{ctx}: diagnostics");
}

/// Session reuse must be byte-identical to fresh per-function solving, and
/// neither the work-stealing 8-thread schedule nor `threads = 0` (run
/// inline, like 1) may perturb any verdict or counter (the meter is
/// deterministic solver work, not wall-clock).
#[test]
fn sessions_match_fresh_solver_for_every_system() {
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        assert_sessions_match_fresh(system, &krate);
    }
}

/// Verify `krate` at 1 thread, check every function against a fresh
/// solver and against 0 and 8 threads, and return the 1-thread report.
fn assert_sessions_match_fresh(system: &str, krate: &Krate) -> KrateReport {
    let cfg = cfg();
    let t1 = verify_krate(krate, &cfg, 1);
    assert!(
        t1.sessions.sessions_opened > 0,
        "{system}: crate verification should open module sessions"
    );
    assert_eq!(
        t1.sessions.cache_hits, 0,
        "{system}: no cache configured, so no hits"
    );
    for rep in &t1.functions {
        let fresh = verify_function(krate, &rep.name, &cfg);
        assert_deterministic_eq(system, &fresh, rep, "fresh vs session");
    }
    for threads in [0, 8] {
        let other = verify_krate(krate, &cfg, threads);
        let what = format!("1 vs {threads} threads");
        assert_eq!(
            t1.functions.len(),
            other.functions.len(),
            "{system}: report length at {what}"
        );
        for (a, b) in t1.functions.iter().zip(&other.functions) {
            assert_deterministic_eq(system, a, b, &what);
        }
        assert_eq!(
            t1.sessions, other.sessions,
            "{system}: session counters at {what}"
        );
    }
    t1
}

/// A warm cache run of an unchanged crate answers every function from the
/// store: zero sessions opened (hence zero SMT `check()` calls) while all
/// deterministic quantities replay identically.
#[test]
fn warm_cache_skips_solver_and_replays_reports() {
    for system in ["lists", "diagdemo"] {
        let dir = cache_dir(system);
        let krate = casestudy::krate(system).expect("known system");
        assert_warm_cache_replays(system, &krate, &dir);

        // Changing the config (here: the rlimit budget) must change the
        // fingerprint — a stale verdict for a different budget is a miss.
        let cfg2 = self::cfg()
            .with_rlimit(BASELINE_RLIMIT + 1)
            .with_cache_dir(&dir);
        let other = verify_krate(&krate, &cfg2, 1);
        assert_eq!(
            other.sessions.cache_hits, 0,
            "{system}: different rlimit must not hit the old entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh, empty cache directory for one test.
fn cache_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("veris-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Verify `krate` cold and then warm through the cache at `dir`: the warm
/// run hits every function, opens no session and replays every report.
fn assert_warm_cache_replays(system: &str, krate: &Krate, dir: &std::path::Path) {
    let cfg = cfg().with_cache_dir(dir);
    let cold = verify_krate(krate, &cfg, 1);
    let n = cold.functions.len() as u64;
    assert_eq!(
        cold.sessions.cache_hits, 0,
        "{system}: cold run has no hits"
    );
    assert_eq!(
        cold.sessions.cache_misses, n,
        "{system}: cold run misses all"
    );
    assert!(cold.sessions.sessions_opened > 0);

    let warm = verify_krate(krate, &cfg, 1);
    assert_eq!(warm.sessions.cache_hits, n, "{system}: warm run hits all");
    assert_eq!(
        warm.sessions.cache_misses, 0,
        "{system}: warm run misses none"
    );
    assert_eq!(
        warm.sessions.sessions_opened, 0,
        "{system}: warm run must not construct a solver"
    );
    for (c, w) in cold.functions.iter().zip(&warm.functions) {
        assert_deterministic_eq(system, c, w, "cold vs warm");
        assert!(
            w.cache_hit,
            "{system}::{}: warm report marked as hit",
            w.name
        );
    }
    assert_eq!(
        veris_vc::cache::stats(dir).0,
        cold.functions.len(),
        "{system}: one cache entry per function"
    );
}

/// The two `#[epr_mode]` models: sessions, thread counts and the cache
/// reproduce fresh solving, with the same verdicts as their own tests.
#[test]
fn epr_models_match_fresh_solver_and_cache() {
    let models = [
        (
            "delegation_epr",
            veris_ironkv::model::epr_krate(),
            &["set_preserves_invariants", "get_after_set"][..],
        ),
        (
            "distlock_epr",
            veris_collections::distlock::epr_mode_krate(),
            &["epr_transfer_preserves"][..],
        ),
    ];
    for (system, krate, expected) in models {
        let rep = assert_sessions_match_fresh(system, &krate);
        let names: Vec<&str> = rep.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, expected, "{system}: reported functions");
        assert!(rep.all_verified(), "{system}: {:?}", rep.failures());
        assert_eq!(rep.lint_stats.errors, 0, "{system}: {:?}", rep.lints);
        let dir = cache_dir(system);
        assert_warm_cache_replays(system, &krate, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `proof fn add_one(x: int) requires x >= 0 { assert(x + 1 > 0) }`: needs
/// arithmetic, so it only verifies (and is only legal) in default mode.
fn int_module() -> Module {
    let x = var("x", Ty::Int);
    let f = Function::new("add_one", Mode::Proof)
        .param("x", Ty::Int)
        .requires(x.ge(int(0)))
        .stmts(vec![Stmt::assert(x.add(int(1)).gt(int(0)))]);
    Module::new("arith").func(f)
}

/// The distlock EPR module with its `epr_mode` flag set to `epr`.
fn distlock_module(epr: bool) -> Module {
    let mut m = veris_collections::distlock::epr_mode_krate()
        .modules
        .remove(0);
    m.epr_mode = epr;
    m
}

/// One EPR module next to one default-mode module: each session takes its
/// mode from its own module, so every function reports exactly what it
/// reports in a krate of its own, and the flag is part of the cache key.
#[test]
fn mixed_krate_gives_each_module_its_own_mode() {
    let mixed = Krate::new()
        .module(int_module())
        .module(distlock_module(true));
    let rep = assert_sessions_match_fresh("mixed", &mixed);
    assert!(rep.all_verified(), "{:?}", rep.failures());
    let alone = [
        Krate::new().module(int_module()),
        veris_collections::distlock::epr_mode_krate(),
    ];
    for (f, k) in rep.functions.iter().zip(&alone) {
        let single = verify_krate(k, &cfg(), 1);
        assert_deterministic_eq("mixed", &single.functions[0], f, "alone vs mixed");
    }
    // The flag changes the solver mode, and so the work done.
    let ematch = verify_krate(&Krate::new().module(distlock_module(false)), &cfg(), 1);
    assert_ne!(ematch.functions[0].meter, rep.functions[1].meter);

    // Turning `.epr()` off changes the fingerprint of that module's
    // functions only.
    let dir = cache_dir("mixed");
    let cached = cfg().with_cache_dir(&dir);
    verify_krate(&mixed, &cached, 1);
    let flipped = Krate::new()
        .module(int_module())
        .module(distlock_module(false));
    let again = verify_krate(&flipped, &cached, 1);
    assert_eq!(again.sessions.cache_hits, 1, "the default-mode module hits");
    assert_eq!(again.sessions.cache_misses, 1, "the flipped module misses");
    assert!(!again.functions[1].cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}
