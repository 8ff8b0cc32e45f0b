//! Determinism contract for the `lint` harness: its JSONL output is
//! byte-identical across repeated runs, and matches the committed golden
//! file exactly. The golden file doubles as the schema pin — any shape
//! change must bump `lint::SCHEMA_VERSION` and regenerate it
//! (`cargo run -p veris-bench --bin lint -- lists --json`).

use veris_bench::lint::{lint_system, report_for, SCHEMA_VERSION};

#[test]
fn lint_jsonl_matches_committed_golden() {
    let golden = include_str!("golden/lint_lists.jsonl");
    let fresh = lint_system("lists", true).expect("known system");
    assert_eq!(
        fresh, golden,
        "lint --json drifted from the golden file; if intentional, bump \
         SCHEMA_VERSION and regenerate crates/bench/tests/golden/lint_lists.jsonl"
    );
    assert!(golden.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
}

#[test]
fn lint_jsonl_byte_identical_across_runs() {
    for system in veris_bench::casestudy::NAMES {
        let a = lint_system(system, true).unwrap();
        let b = lint_system(system, true).unwrap();
        assert_eq!(a, b, "repeated lint runs differ for {system}");
    }
}

#[test]
fn every_case_study_system_is_free_of_error_lints() {
    // `epr` also holds the #[epr_mode] models to the EPR fragment.
    for system in veris_bench::casestudy::NAMES
        .iter()
        .chain(&["diagdemo", "epr"])
    {
        let report = report_for(system).unwrap();
        assert_eq!(
            report.stats.errors,
            0,
            "{system} has error-severity lints: {:?}",
            report
                .diagnostics
                .iter()
                .map(|d| (&d.code, &d.function))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn jsonl_header_carries_stats() {
    let out = lint_system("plog", true).unwrap();
    let header = out.lines().next().unwrap();
    assert!(header.contains("\"system\":\"plog\""), "{header}");
    assert!(header.contains("\"stats\":{"), "{header}");
    // plog's abstract-log axioms produce one alternation advisory.
    assert!(header.contains("\"notes\":1"), "{header}");
}
