//! Deterministic verification-cost baseline over the Fig 9 case studies.
//!
//! ```text
//! cargo run --release -p veris-bench --bin baseline -- --write
//! cargo run --release -p veris-bench --bin baseline -- --check
//! cargo run --release -p veris-bench --bin baseline -- --check --cache
//! ```
//!
//! `--write` regenerates `BENCH_baseline.json` at the repo root from the
//! deterministic resource-meter totals (fixed per-function rlimit budget,
//! 1 thread — no wall-clock quantities), including a per-module breakdown
//! used to schedule module sessions longest-first. `--check` recomputes the
//! totals and exits 1 if any system's `meter_units` drifts more than 10%
//! from the committed file; CI runs it as the one meter-drift gate. Every
//! mode first prints a table of the measured totals with the informational
//! e-matching reuse counter (`ematch_skipped`), which the committed file
//! leaves out.
//!
//! `--cache [DIR]` routes both a cold and a warm run through the
//! content-addressed VC result cache (default `.veris-cache`), reports
//! cold-vs-warm session counters, and fails if the warm run's deterministic
//! meter totals diverge from the cold run — the cache-correctness tripwire
//! CI runs alongside the drift check.

use std::path::PathBuf;

use veris_bench::baseline;

fn usage() -> ! {
    eprintln!("usage: baseline [--write|--check] [--cache [DIR]]");
    std::process::exit(2);
}

fn main() {
    let mut mode = String::from("--check");
    let mut cache: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--write" | "--check" => mode = a,
            "--cache" => {
                let dir = match args.peek() {
                    Some(next) if !next.starts_with('-') => args.next().unwrap(),
                    _ => String::from(".veris-cache"),
                };
                cache = Some(PathBuf::from(dir));
            }
            _ => usage(),
        }
    }

    let rows = if let Some(dir) = &cache {
        let cold = baseline::measure(Some(dir));
        let warm = baseline::measure(Some(dir));
        println!("cold vs warm (cache at {}):", dir.display());
        println!(
            "{:<12} {:>12} {:>6} {:>6} {:>6} {:>6}",
            "system", "meter_units", "sess", "cold+", "hits", "miss"
        );
        let mut mismatches = 0;
        for (c, w) in cold.iter().zip(&warm) {
            println!(
                "{:<12} {:>12} {:>6} {:>6} {:>6} {:>6}",
                c.system,
                c.meter_units,
                c.sessions.sessions_opened,
                c.sessions.cache_misses,
                w.sessions.cache_hits,
                w.sessions.cache_misses,
            );
            if w.meter_units != c.meter_units
                || w.quant_insts != c.quant_insts
                || w.verified != c.verified
            {
                eprintln!(
                    "  MISMATCH: warm run of {} disagrees with cold run \
                     (meter {} vs {}, qinst {} vs {}, verified {} vs {})",
                    c.system,
                    w.meter_units,
                    c.meter_units,
                    w.quant_insts,
                    c.quant_insts,
                    w.verified,
                    c.verified
                );
                mismatches += 1;
            }
        }
        let (entries, bytes) = veris_vc::cache::stats(dir);
        println!("cache: {entries} entries, {bytes} bytes");
        if mismatches > 0 {
            eprintln!("cache correctness check failed: {mismatches} system(s) diverged");
            std::process::exit(1);
        }
        let warm_hits: u64 = warm.iter().map(|r| r.sessions.cache_hits).sum();
        if warm_hits == 0 {
            eprintln!("cache correctness check failed: warm run had zero cache hits");
            std::process::exit(1);
        }
        // The warm rows' meter totals are replayed from the cache; checking
        // drift against them exercises the cache-serialized counters too.
        warm
    } else {
        baseline::measure(None)
    };
    print!("{}", baseline::render_table(&rows));
    let rendered = baseline::render(&rows);
    let path = baseline::committed_path();

    if mode == "--write" {
        std::fs::write(&path, &rendered).expect("write BENCH_baseline.json");
        println!("wrote {}", path.display());
        print!("{rendered}");
        return;
    }

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
            "baseline check ok: {} systems within {:.0}% of committed meter_units",
            rows.len(),
            baseline::DRIFT_TOLERANCE_PCT
        );
    } else {
        eprintln!("baseline drift detected:");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!("(if intentional, regenerate with `baseline --write` and commit)");
        std::process::exit(1);
    }
}
