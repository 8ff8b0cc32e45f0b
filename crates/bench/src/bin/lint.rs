//! Pre-solver static analysis over one case-study krate: matching-loop
//! detection on inferred triggers, termination call-graph checking,
//! quantifier-alternation advisories, the EPR fragment check of
//! `#[epr_mode]` modules, and spec-health lints. No solver is ever
//! constructed.
//!
//! ```text
//! cargo run -p veris-bench --bin lint -- lists
//! cargo run -p veris-bench --bin lint -- ironkv --json
//! cargo run -p veris-bench --bin lint -- all --json
//! cargo run -p veris-bench --bin lint -- epr --json
//! ```
//!
//! `--json` emits deterministic JSONL: a header line (schema version,
//! system, stats), then one line per finding. Exit status is 0 when no
//! error-severity findings were emitted, 1 otherwise, 2 on usage errors.

use veris_bench::{casestudy, lint};

fn usage() -> ! {
    eprintln!(
        "usage: lint <{}|diagdemo|epr|all> [--json]",
        casestudy::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut system = String::new();
    let mut json = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => usage(),
            name if system.is_empty() && !name.starts_with('-') => system = name.to_owned(),
            _ => usage(),
        }
    }
    if system.is_empty() {
        usage();
    }
    let systems: Vec<&str> = if system == "all" {
        casestudy::NAMES.to_vec()
    } else {
        vec![system.as_str()]
    };
    let mut errors = 0u64;
    for name in systems {
        let Some(report) = lint::report_for(name) else {
            eprintln!("unknown system `{name}`");
            usage();
        };
        errors += report.stats.errors;
        if json {
            println!("{}", lint::render_jsonl(name, &report));
        } else {
            println!("{}", lint::render_human(name, &report));
        }
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
