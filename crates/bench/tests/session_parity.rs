//! Incremental-verification parity: per-module solver sessions (push/pop
//! frames over a once-encoded context) and the content-addressed result
//! cache must be *invisible* in every deterministic quantity. For each
//! example system this asserts that session-reuse verification produces the
//! same verdicts, unsat cores, diagnostics, and resource-meter totals as a
//! fresh solver per function, at 0, 1 and 8 threads, and that a warm-cache
//! run answers every function from the cache without opening a session.

use std::time::Duration;

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_bench::casestudy;
use veris_vc::{verify_function, verify_krate, FnReport, Style, VcConfig};

/// All example systems: the Fig 9 case studies plus the diagnostics demo
/// (whose failing/unknown functions exercise cache round-tripping of
/// counterexamples and unsat cores).
fn systems() -> Vec<&'static str> {
    let mut names: Vec<&str> = casestudy::NAMES.to_vec();
    names.push("diagdemo");
    names
}

/// The baseline configuration: deterministic rlimit budget instead of a
/// wall-clock timeout, so every compared quantity is machine-independent.
fn cfg() -> VcConfig {
    let mut c = veris_idioms::config_with_provers();
    c.style = Style::Verus;
    c.timeout = Duration::from_secs(20);
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
    let cfg = cfg();
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        let t1 = verify_krate(&krate, &cfg, 1);
        assert!(
            t1.sessions.sessions_opened > 0,
            "{system}: crate verification should open module sessions"
        );
        assert_eq!(
            t1.sessions.cache_hits, 0,
            "{system}: no cache configured, so no hits"
        );
        for rep in &t1.functions {
            let fresh = verify_function(&krate, &rep.name, &cfg);
            assert_deterministic_eq(system, &fresh, rep, "fresh vs session");
        }
        for threads in [0, 8] {
            let other = verify_krate(&krate, &cfg, threads);
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
    }
}

/// A warm cache run of an unchanged crate answers every function from the
/// store: zero sessions opened (hence zero SMT `check()` calls) while all
/// deterministic quantities replay identically.
#[test]
fn warm_cache_skips_solver_and_replays_reports() {
    for system in ["lists", "diagdemo"] {
        let dir =
            std::env::temp_dir().join(format!("veris-cache-test-{}-{system}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg().with_cache_dir(&dir);
        let krate = casestudy::krate(system).expect("known system");

        let cold = verify_krate(&krate, &cfg, 1);
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

        let warm = verify_krate(&krate, &cfg, 1);
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
            veris_vc::cache::stats(&dir).0,
            cold.functions.len(),
            "{system}: one cache entry per function"
        );

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
