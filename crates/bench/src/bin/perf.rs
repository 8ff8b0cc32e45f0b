//! Per-system performance record for the incremental solver kernels.
//!
//! ```text
//! cargo run --release -p veris-bench --bin perf -- all --json
//! cargo run --release -p veris-bench --bin perf -- all --write
//! cargo run --release -p veris-bench --bin perf -- all --check
//! cargo run --release -p veris-bench --bin perf -- all --compare
//! cargo run --release -p veris-bench --bin perf -- pagetable
//! ```
//!
//! Measures every Fig 9 case study (or one named system) at 1 thread under
//! the baseline rlimit budget and reports wall clock, budgeted meter units,
//! and the informational kernel-reuse counters (`ematch_skipped`,
//! `theory_reuse`). `--write` commits the record to `BENCH_perf.json` at the
//! repo root; `--check` recomputes and exits 1 if any system's
//! `meter_units` drifts more than 10% from the committed file (wall clock
//! is informational and never gated, mirroring `baseline --check`).
//! `--compare` runs the incremental kernels and the `batch_kernels` escape
//! hatch back to back — the budgeted totals must agree (kernel parity)
//! while the reuse counters show the work the incremental kernels avoided.

use veris_bench::{baseline, casestudy, perf};

fn usage() -> ! {
    eprintln!("usage: perf <all|SYSTEM> [--json|--write|--check|--compare]");
    std::process::exit(2);
}

fn main() {
    let mut target: Option<String> = None;
    let mut mode = String::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" | "--write" | "--check" | "--compare" => mode = a,
            _ if target.is_none() && !a.starts_with('-') => target = Some(a),
            _ => usage(),
        }
    }
    let target = target.unwrap_or_else(|| usage());

    let names: Vec<&str> = if target == "all" {
        casestudy::NAMES.to_vec()
    } else if casestudy::NAMES.contains(&target.as_str()) {
        vec![target.as_str()]
    } else {
        eprintln!(
            "unknown system {target:?} (known: {})",
            casestudy::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    if mode == "--compare" {
        let incr = perf::measure_systems(&names, false);
        let batch = perf::measure_systems(&names, true);
        println!("incremental vs batch kernels (budgeted meters must agree):");
        print!("{}", perf::render_table(&incr, Some(&batch)));
        let mut mismatches = 0;
        for (i, b) in incr.iter().zip(&batch) {
            if i.meter_units != b.meter_units
                || i.quant_insts != b.quant_insts
                || i.verified != b.verified
            {
                eprintln!(
                    "  MISMATCH: {} diverges between kernels \
                     (meter {} vs {}, qinst {} vs {}, verified {} vs {})",
                    i.system,
                    i.meter_units,
                    b.meter_units,
                    i.quant_insts,
                    b.quant_insts,
                    i.verified,
                    b.verified
                );
                mismatches += 1;
            }
            if b.ematch_skipped != 0 || b.theory_reuse != 0 {
                eprintln!(
                    "  MISMATCH: {} charged reuse counters under batch kernels",
                    b.system
                );
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            eprintln!("kernel comparison failed: {mismatches} divergence(s)");
            std::process::exit(1);
        }
        println!("kernel comparison ok: budgeted meters identical across kernels");
        return;
    }

    let rows = perf::measure_systems(&names, false);
    match mode.as_str() {
        "--json" => print!("{}", perf::render(&rows)),
        "--write" => {
            if target != "all" {
                eprintln!("--write requires `all` (the committed record covers every system)");
                std::process::exit(2);
            }
            let path = perf::committed_path();
            std::fs::write(&path, perf::render(&rows)).expect("write BENCH_perf.json");
            println!("wrote {}", path.display());
            print!("{}", perf::render_table(&rows, None));
        }
        "--check" => {
            if target != "all" {
                eprintln!("--check requires `all` (the committed record covers every system)");
                std::process::exit(2);
            }
            let path = perf::committed_path();
            let committed = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let failures = baseline::drift_failures(
                &baseline::parse_meter_units(&committed),
                rows.iter().map(|r| (r.system.as_str(), r.meter_units)),
            );
            if failures.is_empty() {
                println!(
                    "perf check ok: {} systems within {:.0}% of committed meter_units \
                     (wall clock informational)",
                    rows.len(),
                    baseline::DRIFT_TOLERANCE_PCT
                );
            } else {
                eprintln!("perf meter drift detected:");
                for f in &failures {
                    eprintln!("  {f}");
                }
                eprintln!("(if intentional, regenerate with `perf all --write` and commit)");
                std::process::exit(1);
            }
        }
        _ => print!("{}", perf::render_table(&rows, None)),
    }
}
