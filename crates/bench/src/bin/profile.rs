//! Solver observability harness: phase timings, resource counters, and the
//! quantifier-instantiation profile for one case-study krate.
//!
//! ```text
//! cargo run --release -p veris-bench --bin profile -- ironkv
//! cargo run --release -p veris-bench --bin profile -- lists --rlimit 50000
//! cargo run --release -p veris-bench --bin profile -- nr --top 5 --json
//! ```
//!
//! Prints (in the style of Verus `--time` / `--profile`):
//! 1. a per-phase wall-clock tree (vir lowering, SMT encoding, solver init,
//!    solve) aggregated over all functions;
//! 2. the deterministic resource-meter counters per theory (SAT, EUF,
//!    simplex, branch-and-bound, e-matching, bit-blasting);
//! 3. the top-k quantifiers by instantiation count;
//! 4. per-function verdicts with rlimit units spent.

use std::time::Duration;

use veris_bench::casestudy;
use veris_vc::{verify_krate, Style, VcConfig};

struct Opts {
    system: String,
    rlimit: Option<u64>,
    top: usize,
    threads: usize,
    json: bool,
    cache: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile <{}|epr> [--rlimit N] [--top K] [--threads N] [--json] [--cache [DIR]|--no-cache]",
        casestudy::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        system: String::new(),
        rlimit: None,
        top: 10,
        threads: 1,
        json: false,
        cache: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rlimit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.rlimit = Some(n),
                None => usage(),
            },
            "--top" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.top = n,
                None => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.threads = n,
                None => usage(),
            },
            "--json" => opts.json = true,
            "--cache" => {
                let dir = match args.peek() {
                    Some(next) if !next.starts_with('-') => args.next().unwrap(),
                    _ => String::from(".veris-cache"),
                };
                opts.cache = Some(std::path::PathBuf::from(dir));
            }
            "--no-cache" => opts.cache = None,
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

fn config(opts: &Opts) -> VcConfig {
    let mut cfg = veris_idioms::config_with_provers();
    cfg.style = Style::Verus;
    cfg.timeout = Duration::from_secs(20);
    cfg.max_quant_rounds = Some(8);
    if let Some(n) = opts.rlimit {
        cfg = cfg.with_rlimit(n);
    }
    if let Some(dir) = &opts.cache {
        cfg = cfg.with_cache_dir(dir.clone());
    }
    if let Some(weights) = veris_bench::baseline::module_weights_for(&opts.system) {
        cfg = cfg.with_module_weights(weights);
    }
    cfg
}

fn main() {
    let opts = parse_opts();
    let Some(krate) = casestudy::krate(&opts.system) else {
        eprintln!("unknown system `{}`", opts.system);
        usage();
    };
    let cfg = config(&opts);
    let report = verify_krate(&krate, &cfg, opts.threads);

    if opts.json {
        let fns: Vec<String> = report
            .functions
            .iter()
            .map(|f| {
                format!(
                    "{{\"name\":{:?},\"status\":{:?},\"time_ms\":{},\"rlimit_spent\":{},\"cache_hit\":{},\"meter\":{}}}",
                    f.name,
                    format!("{:?}", f.status),
                    f.time.as_millis(),
                    f.rlimit_spent(),
                    f.cache_hit,
                    f.meter.to_json()
                )
            })
            .collect();
        println!(
            "{{\"schema_version\":{},\"system\":{:?},\"rlimit\":{},\"time\":{},\"meter\":{},\"quantifiers\":{},\"sessions\":{},\"functions\":[{}]}}",
            veris_bench::explain::SCHEMA_VERSION,
            opts.system,
            opts.rlimit.map_or("null".into(), |n| n.to_string()),
            report.time_tree().to_json(),
            report.total_meter().to_json(),
            report.merged_profile().to_json(),
            report.sessions.to_json(),
            fns.join(",")
        );
        return;
    }

    println!(
        "== profile: {} ({} functions, {} thread{}) ==",
        opts.system,
        report.functions.len(),
        opts.threads,
        if opts.threads == 1 { "" } else { "s" }
    );
    if let Some(n) = opts.rlimit {
        println!("rlimit: {n} units per function");
    }
    println!("\n-- phase times --\n{}", report.time_tree().render());
    println!("-- incremental sessions --\n{}", report.sessions.render());
    if let Some(dir) = &opts.cache {
        let (entries, bytes) = veris_vc::cache::stats(dir);
        println!(
            "cache at {}: {entries} entries, {bytes} bytes\n",
            dir.display()
        );
    }
    println!("-- resource counters --\n{}", report.total_meter().render());
    let profile = report.merged_profile();
    if profile.is_empty() {
        println!("-- quantifier instantiations --\n(none)");
    } else {
        println!(
            "-- top {} quantifiers --\n{}",
            opts.top,
            profile.render_top_k(opts.top)
        );
    }
    println!("-- per-function --");
    for f in &report.functions {
        println!(
            "{:<40} {:>10} {:>8.2}s {:>9} units{}",
            f.name,
            match &f.status {
                veris_vc::Status::Verified => "verified".to_owned(),
                veris_vc::Status::Failed(_) => "FAILED".to_owned(),
                veris_vc::Status::Unknown(r) if r.starts_with("resource limit") =>
                    "rlimit".to_owned(),
                veris_vc::Status::Unknown(_) => "unknown".to_owned(),
            },
            f.time.as_secs_f64(),
            f.rlimit_spent(),
            if f.cache_hit { " (cached)" } else { "" }
        );
    }
    if !report.all_verified() {
        std::process::exit(1);
    }
}
