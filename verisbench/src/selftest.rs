//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path verisbench/Cargo.toml`.

use std::path::PathBuf;

use crate::answers;
use crate::trace::Trace;
use crate::workload::{corpus_krates, edit_sites, Fixture, Request, Requests, Workload, ITEMS};

fn scratch_dir(test: &str) -> PathBuf {
    crate::out_dir().join(format!("test-{test}-{}", std::process::id()))
}

fn first(workload: Workload, seed: u64, n: usize) -> Vec<Request> {
    Requests::new(workload, seed, edit_sites(&corpus_krates()))
        .take(n)
        .collect()
}

#[test]
fn same_seed_gives_the_same_requests() {
    for w in Workload::ALL {
        assert_eq!(first(w, 7, 300), first(w, 7, 300), "{}", w.name());
        assert_ne!(first(w, 7, 300), first(w, 8, 300), "{}", w.name());
    }
}

#[test]
fn answer_table_covers_every_request() {
    let sites = edit_sites(&corpus_krates());
    assert_eq!(
        sites.len(),
        answers::CORPUS.iter().map(|(_, f)| f.len()).sum::<usize>()
    );
    for w in Workload::ALL {
        for req in first(w, 3, 500) {
            match req {
                Request::Corpus(order) => {
                    assert_eq!(order.len(), ITEMS.len());
                    assert!(ITEMS.iter().all(|i| order.contains(i)));
                }
                Request::Edit {
                    system,
                    function,
                    position,
                    ..
                } => {
                    assert!(answers::CORPUS[system].1.contains(&function));
                    let site = sites
                        .iter()
                        .find(|s| s.system == system && s.function == function)
                        .expect("edit site");
                    assert!(position < site.stmts);
                }
                Request::MemoryOps { pushes } => assert!(answers::MEMORY_PUSHES.contains(&pushes)),
                Request::BrokenIndex => {}
            }
        }
    }
    // Each set-up verifies a request of its workload against the table
    // (the whole corpus for the first two) and fails on any mismatch.
    for w in Workload::ALL {
        let fx = Fixture::set_up(w, &scratch_dir(w.name()));
        assert!(fx.is_ok(), "{}: {:?}", w.name(), fx.err());
    }
}

#[test]
fn broken_index_is_never_verified() {
    let fx = Fixture::set_up(Workload::SolverHeavy, &scratch_dir("broken")).expect("set-up");
    let req = Request::BrokenIndex;
    let out = fx.run(&fx.prepare(&req), 0, None);
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert_eq!(out.verdicts_ok, 1);
}

/// Every possible edit (every site, every position) keeps its system fully
/// verified and misses the cache at least once.
#[test]
fn every_edit_misses_the_cache_and_stays_verified() {
    let fx = Fixture::set_up(Workload::EditLoop, &scratch_dir("edits")).expect("set-up");
    let mut n = 0;
    for site in fx.edit_sites() {
        for position in 0..site.stmts {
            let req = Request::Edit {
                system: site.system,
                function: site.function,
                position,
                label: format!("selftest-edit-{n}"),
            };
            n += 1;
            let out = fx.run(&fx.prepare(&req), 0, None);
            assert!(out.errors.is_empty(), "{req:?}: {:?}", out.errors);
            assert!(out.cache_misses >= 1, "{req:?} hit the cache everywhere");
        }
    }
}

/// The per-layer counts of a traced run's count window repeat exactly.
#[test]
fn meter_counts_repeat_for_a_seed() {
    for w in Workload::ALL {
        let window = match w {
            Workload::SolverHeavy => 3,
            _ => 8,
        };
        let counts = |run: usize| {
            let fx = Fixture::set_up(w, &scratch_dir(&format!("counts-{}-{run}", w.name())))
                .expect("set-up");
            let mut trace = Trace::new();
            for (id, req) in Requests::new(w, 5, fx.edit_sites())
                .take(window)
                .enumerate()
            {
                let out = fx.run(&fx.prepare(&req), id as u64, Some(&mut trace));
                assert!(out.errors.is_empty(), "{:?}", out.errors);
            }
            trace
                .per_layer(window as u64, (0, 0))
                .into_iter()
                .filter(|(_, _, unit)| *unit == "count" || *unit == "bytes")
                .collect::<Vec<_>>()
        };
        let first = counts(0);
        assert!(first
            .iter()
            .any(|(name, v, _)| *name == "smt.units" && *v > 0.0));
        assert_eq!(first, counts(1), "{}", w.name());
    }
}
