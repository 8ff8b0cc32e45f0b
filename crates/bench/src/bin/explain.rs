//! Failure-diagnostics harness: unsat cores, counterexamples, and
//! unused-hypothesis lints per function.
//!
//! ```text
//! cargo run --release -p veris-bench --bin explain -- diagdemo
//! cargo run --release -p veris-bench --bin explain -- diagdemo --fn demo_fail
//! cargo run --release -p veris-bench --bin explain -- lists --json
//! ```
//!
//! Output is deterministic — no wall-clock quantities — so it is
//! byte-identical across repeated runs and thread counts.

use veris_bench::casestudy;
use veris_bench::explain::explain_system;

struct Opts {
    system: String,
    fn_filter: Option<String>,
    threads: usize,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: explain <{}|diagdemo|epr> [--fn NAME] [--threads N] [--json]",
        casestudy::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        system: String::new(),
        fn_filter: None,
        threads: 1,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fn" => match args.next() {
                Some(n) => opts.fn_filter = Some(n),
                None => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.threads = n,
                None => usage(),
            },
            "--json" => opts.json = true,
            "--help" | "-h" => usage(),
            name if opts.system.is_empty() && !name.starts_with('-') => {
                opts.system = name.to_owned();
            }
            _ => usage(),
        }
    }
    if opts.system.is_empty() {
        usage();
    }
    opts
}

fn main() {
    let opts = parse_opts();
    match explain_system(
        &opts.system,
        opts.fn_filter.as_deref(),
        opts.threads,
        opts.json,
    ) {
        Some(out) => println!("{out}"),
        None => {
            eprintln!("unknown system `{}`", opts.system);
            usage();
        }
    }
}
