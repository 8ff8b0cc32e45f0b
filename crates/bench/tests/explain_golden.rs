//! Determinism contract for the `explain` harness: its JSON output is
//! byte-identical across repeated runs and thread counts, and matches the
//! committed golden file exactly. The golden file doubles as the schema
//! pin — any shape change must bump `explain::SCHEMA_VERSION` and
//! regenerate it (`cargo run -p veris-bench --bin explain -- diagdemo --json`).
//! Each case-study system has a golden of its own, regenerated the same way
//! with the system's name.

use veris_bench::casestudy;
use veris_bench::explain::{explain_system, SCHEMA_VERSION};

#[test]
fn explain_json_matches_committed_golden() {
    let golden = include_str!("golden/explain_diagdemo.json");
    let fresh = explain_system("diagdemo", None, 1, true).expect("known system");
    assert_eq!(
        fresh, golden,
        "explain --json drifted from the golden file; if intentional, bump \
         SCHEMA_VERSION and regenerate crates/bench/tests/golden/explain_diagdemo.json"
    );
    assert!(golden.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
}

/// Every case-study system and the merged EPR models, pinned at 1 thread:
/// verdicts, unsat cores, diagnostics and meter units per function. A diff
/// here means a change moved what the verifier reports, not only how fast.
#[test]
fn every_system_matches_its_committed_golden() {
    let goldens = [
        ("ironkv", include_str!("golden/explain_ironkv.json")),
        ("nr", include_str!("golden/explain_nr.json")),
        ("pagetable", include_str!("golden/explain_pagetable.json")),
        ("mimalloc", include_str!("golden/explain_mimalloc.json")),
        ("plog", include_str!("golden/explain_plog.json")),
        ("lists", include_str!("golden/explain_lists.json")),
        ("epr", include_str!("golden/explain_epr.json")),
    ];
    assert_eq!(goldens.len(), casestudy::NAMES.len() + 1);
    for (system, golden) in goldens {
        let fresh = explain_system(system, None, 1, true).expect("known system");
        assert_eq!(
            fresh, golden,
            "explain --json for {system} drifted from its golden file; if intentional, \
             regenerate crates/bench/tests/golden/explain_{system}.json"
        );
    }
}

#[test]
fn explain_json_byte_identical_across_runs_and_threads() {
    let a = explain_system("diagdemo", None, 1, true).unwrap();
    let b = explain_system("diagdemo", None, 1, true).unwrap();
    let c = explain_system("diagdemo", None, 4, true).unwrap();
    assert_eq!(a, b, "repeated runs differ");
    assert_eq!(a, c, "thread count changed the output");
}

#[test]
fn unsat_cores_deterministic_across_threads_on_real_system() {
    let a = explain_system("lists", None, 1, true).unwrap();
    let b = explain_system("lists", None, 4, true).unwrap();
    assert_eq!(a, b, "lists cores differ between 1 and 4 threads");
}

#[test]
fn explain_human_reports_counterexample_and_unused_hypothesis() {
    let out = explain_system("diagdemo", None, 1, false).unwrap();
    assert!(out.contains("validated counterexample"), "{out}");
    assert!(out.contains("unused-hypothesis"), "{out}");
    assert!(out.contains("context pruning:"), "{out}");
}
