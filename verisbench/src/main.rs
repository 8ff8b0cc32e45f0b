//! verisbench: how long a developer waits for the veris verifier.
//!
//! ```text
//! cargo run --release --manifest-path verisbench/Cargo.toml -- \
//!     --workload <corpus_cold|edit_loop|solver_heavy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread sends requests in a closed loop for `--seconds`
//! seconds, checks every verdict against the hand-written answer table, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See README.md for the workloads and metrics.

mod answers;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Trace;
use workload::{Fixture, Requests, Workload};

const USAGE: &str =
    "usage: verisbench --workload <corpus_cold|edit_loop|solver_heavy> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median. The first builds the
/// fixture the requests use. The others are spread evenly over the timed
/// loop, in pauses its clock leaves out, so that `setup_s` samples the
/// machine over the whole run and not only over its first seconds.
const SETUP_REPEATS: usize = 15;

/// A run goes on past `--seconds` until it holds this many requests, so
/// that at least 10 samples lie beyond p90 ...
const MIN_REQUESTS: usize = 110;

/// ... but never past this much time since the process started.
const TIME_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]`; 0 when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Requests of each traced run whose counts are taken: a fixed prefix of
/// the seeded sequence (ten corpus passes, one deck of edits or of
/// `solver_heavy` requests), so counts repeat exactly for a seed.
fn count_window(w: Workload) -> u64 {
    match w {
        Workload::CorpusCold => 10,
        Workload::EditLoop => 31,
        Workload::SolverHeavy => 38,
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set up `w` with its cache (if any) in `cache_dir`, timed.
fn timed_set_up(w: Workload, cache_dir: &Path) -> Result<(Fixture, f64), String> {
    let t = Instant::now();
    let fx = Fixture::set_up(w, cache_dir)?;
    Ok((fx, t.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<RunResult, String> {
    let started = Instant::now();
    let w = args.workload;
    let dir = |what: &str| out_dir().join(format!("{what}-{}-{}", w.name(), std::process::id()));
    let (fx, first) = timed_set_up(w, &dir("cache"))?;
    let mut setups = vec![first];
    // A repeat set-up builds a spare fixture, with a cache directory of its
    // own, and drops it, which removes that directory.
    let spare_dir = dir("spare-cache");
    let repeat_set_up = |setups: &mut Vec<f64>, paused: &mut Duration| -> Result<(), String> {
        let t = Instant::now();
        setups.push(timed_set_up(w, &spare_dir)?.1);
        *paused += t.elapsed();
        Ok(())
    };

    let mut requests = Requests::new(w, args.seed, fx.edit_sites());
    let mut trace = args.trace.then(Trace::new);
    let window = count_window(w);
    // The cache directory's (entries, bytes) once the count window is done,
    // counting the entries each request stored before they were dropped.
    let mut window_cache = fx.cache_dir().map_or((0, 0), veris_vc::cache::stats);
    let mut latencies_ms = Vec::new();
    let (mut failed, mut verdicts_ok) = (0usize, 0usize);
    let budget = Duration::from_secs(args.seconds);
    // Time spent in repeat set-ups and in dropping cache entries, which the
    // loop's clock leaves out.
    let mut paused = Duration::ZERO;
    let t0 = Instant::now();
    while t0.elapsed() - paused < budget
        || (latencies_ms.len() < MIN_REQUESTS && started.elapsed() < TIME_CAP)
    {
        if setups.len() < SETUP_REPEATS
            && t0.elapsed() - paused >= budget * setups.len() as u32 / SETUP_REPEATS as u32
        {
            repeat_set_up(&mut setups, &mut paused)?;
        }
        let req = requests.next().expect("the request sequence is endless");
        let prepared = fx.prepare(&req);
        let id = latencies_ms.len() as u64;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| fx.run(&prepared, id, trace.as_mut())));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(outcome) => {
                verdicts_ok += outcome.verdicts_ok;
                if !outcome.errors.is_empty() {
                    failed += 1;
                    eprintln!("request {id} ({req:?}) failed: {:?}", outcome.errors);
                }
            }
            Err(_) => {
                failed += 1;
                eprintln!("request {id} ({req:?}) panicked");
                if let Some(t) = trace.as_mut() {
                    t.abandon_request();
                }
            }
        }
        // Keep the cache at its set-up size, outside the loop's clock, so
        // that every edit meets the same cache however long the run is.
        let t = Instant::now();
        let stored = fx.drop_new_cache_entries();
        paused += t.elapsed();
        if id < window {
            window_cache.0 += stored.0;
            window_cache.1 += stored.1;
        }
    }
    let wall = (t0.elapsed() - paused).as_secs_f64();
    while setups.len() < SETUP_REPEATS {
        repeat_set_up(&mut setups, &mut paused)?;
    }
    let attempted = latencies_ms.len();
    eprintln!(
        "{} seed {}: {attempted} requests in {wall:.2} s ({} beyond p90), {failed} failed (failed_ratio {}), set-up {setups:?} s",
        w.name(),
        args.seed,
        attempted - (attempted as f64 * 0.9).ceil() as usize,
        failed as f64 / attempted as f64,
    );

    let metrics = match &trace {
        None => vec![
            ("setup_s", median(&mut setups), "s"),
            ("request_p50_ms", percentile(&mut latencies_ms, 0.5), "ms"),
            ("request_p90_ms", percentile(&mut latencies_ms, 0.9), "ms"),
            ("verdicts_per_s", verdicts_ok as f64 / wall, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            (
                "request_ok_ratio",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
        Some(t) => {
            let path = out_dir().join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, t.to_jsonl()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "{} spans over {attempted} traced requests written to {}; counts over the first {window} requests",
                t.spans.len(),
                path.display()
            );
            eprintln!(
                "{:<24} {:>8} {:>12} {:>12}",
                "layer", "calls", "total ms", "self ms"
            );
            for (name, calls, total, own) in t.self_times() {
                eprintln!(
                    "{name:<24} {calls:>8} {:>12.3} {:>12.3}",
                    total.as_secs_f64() * 1e3,
                    own.as_secs_f64() * 1e3
                );
            }
            t.per_layer(window, window_cache)
        }
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verisbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verisbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("{name:<30} {value:>16.4} {unit}");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest;
