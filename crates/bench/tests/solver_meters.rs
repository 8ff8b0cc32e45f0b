//! Exact meter pins for the solver-heavy queries: Fig 7b `memory_ops` at
//! several push counts and the Fig 8 `list_index` proof with its
//! precondition dropped. `BENCH_baseline.json` covers only the six corpus
//! systems; these pins hold the search itself fixed on the queries where
//! SAT, EUF and simplex work dominates, so a change that claims to make the
//! solver cheaper per step (not smarter) must leave every count unchanged.

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_collections::model::{broken_singly_list_krate, memory_reasoning_krate, BrokenProof};
use veris_obs::meter::MeterSnapshot;
use veris_vc::{verify_function, Status, Style, VcConfig};
use veris_vir::Krate;

/// The benchmark's solver-heavy configuration: Verus style with the
/// standard custom provers, 8 instantiation rounds and the baseline rlimit.
fn cfg() -> VcConfig {
    let mut c = veris_idioms::config_with_provers();
    c.style = Style::Verus;
    c.max_quant_rounds = Some(8);
    c.with_rlimit(BASELINE_RLIMIT)
}

fn run(krate: &Krate, name: &str) -> (Status, MeterSnapshot) {
    let r = verify_function(krate, name, &cfg());
    (r.status, r.meter)
}

/// A snapshot from its nine counters, in `MeterSnapshot` field order.
fn snap(c: [u64; 9]) -> MeterSnapshot {
    MeterSnapshot {
        sat_conflicts: c[0],
        sat_decisions: c[1],
        sat_propagations: c[2],
        euf_merges: c[3],
        simplex_pivots: c[4],
        branch_splits: c[5],
        ematch_rounds: c[6],
        instantiations: c[7],
        bitblast_clauses: c[8],
        ..MeterSnapshot::default()
    }
}

#[test]
fn memory_ops_meters_are_pinned() {
    let pins = [
        (4, [81, 19_521, 33_913, 6_318, 13, 2, 2, 81, 0], 59_931),
        (16, [17, 8_720, 15_067, 3_720, 40, 10, 2, 237, 0], 27_813),
        (40, [17, 19_832, 33_643, 8_184, 88, 10, 2, 549, 0], 62_325),
    ];
    for (pushes, counters, total) in pins {
        let (status, meter) = run(&memory_reasoning_krate(pushes), "memory_ops");
        assert_eq!(status, Status::Verified, "memory_ops at p = {pushes}");
        assert_eq!(meter, snap(counters), "memory_ops at p = {pushes}");
        assert_eq!(meter.total(), total, "memory_ops at p = {pushes}");
    }
}

#[test]
fn broken_list_index_meters_are_pinned() {
    let krate = broken_singly_list_krate(BrokenProof::IndexRequires);
    let (status, meter) = run(&krate, "list_index");
    assert_eq!(
        status,
        Status::Unknown("instantiation rounds exhausted".into())
    );
    assert_eq!(meter, snap([95, 8_026, 12_224, 3_455, 92, 46, 9, 63, 0]));
    assert_eq!(meter.total(), 24_010);
}
