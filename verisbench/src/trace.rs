//! Spans around the verifier's public calls, kept in memory and written out
//! when the run ends, and the per-layer metrics computed from them.
//!
//! Only the benchmark's own code records spans: the verifier is not
//! instrumented. A span carries the counters its call's report already
//! holds (`FnReport`, `KrateReport`, `SessionStats`, the lint report).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use veris_vc::{FnReport, KrateReport, MeterSnapshot, PhaseTimes};

/// Counters attached to a span, read from the call's report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Worker threads the call was given.
    pub threads: u64,
    pub functions: u64,
    /// Σ `FnReport.time`.
    pub fn_time: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Σ `FnReport.time` of cache hits (fingerprint plus load).
    pub hit_time: Duration,
    pub sessions_opened: u64,
    pub ctx_reencodes_avoided: u64,
    /// Σ `FnReport.phases`, cache hits included.
    pub phases: PhaseTimes,
    /// Solver work: the fields below sum cache misses only, since a hit
    /// replays a stored report without running the solver.
    pub meter: MeterSnapshot,
    pub query_bytes: u64,
    pub hyps_asserted: u64,
    pub hyps_used: u64,
    pub lint_findings: u64,
    /// Process CPU time (all threads) over the span, read just outside its
    /// wall-clock interval.
    pub cpu: Duration,
}

impl Counters {
    pub fn from_reports(reports: &[FnReport], threads: usize) -> Counters {
        let mut c = Counters {
            threads: threads as u64,
            functions: reports.len() as u64,
            ..Counters::default()
        };
        for r in reports {
            c.fn_time += r.time;
            c.phases = c.phases.add(&r.phases);
            if r.cache_hit {
                c.cache_hits += 1;
                c.hit_time += r.time;
                continue;
            }
            c.meter = c.meter.add(&r.meter);
            c.query_bytes += r.query_bytes as u64;
            if r.status.is_verified() && r.hyps_used > 0 {
                c.hyps_asserted += r.hyps_asserted as u64;
                c.hyps_used += r.hyps_used as u64;
            }
        }
        c
    }

    pub fn from_krate(r: &KrateReport, threads: usize) -> Counters {
        Counters {
            cache_hits: r.sessions.cache_hits,
            cache_misses: r.sessions.cache_misses,
            sessions_opened: r.sessions.sessions_opened,
            ctx_reencodes_avoided: r.sessions.ctx_reencodes_avoided,
            ..Counters::from_reports(&r.functions, threads)
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    /// Offsets from the start of the trace.
    pub start: Duration,
    pub end: Duration,
    pub counters: Counters,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// The spans that stand for calls an untraced request also makes; the
    /// others are the root and the lint/WP probes.
    fn is_workload_call(&self) -> bool {
        matches!(
            self.name,
            "vc.verify_krate" | "vc.verify_function" | "epr.verify_epr_module"
        )
    }
}

/// The in-memory span log of a traced run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, Duration)>,
    request: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Open the root span of request `id`.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
        self.open("request");
    }

    pub fn end_request(&mut self) {
        let root = self
            .open
            .first()
            .map(|&(id, _)| id)
            .expect("a request is open");
        self.close(root, Counters::default());
    }

    /// Close every span a panicking request left open.
    pub fn abandon_request(&mut self) {
        while let Some(&(id, _)) = self.open.last() {
            self.close(id, Counters::default());
        }
    }

    /// Open a span under the innermost open span. The CPU clock is read
    /// before the wall clock starts, and the bookkeeping happens before it
    /// too, so neither falls inside the span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().map(|&(p, _)| p),
            start: Duration::ZERO,
            end: Duration::ZERO,
            counters: Counters::default(),
        });
        self.open.push((id, cpu_time()));
        let start = self.origin.elapsed();
        self.spans[id].start = start;
        self.spans[id].end = start;
        id
    }

    /// Close span `id`: the wall clock stops before the CPU clock is read.
    pub fn close(&mut self, id: usize, mut counters: Counters) {
        let end = self.origin.elapsed();
        let (top, cpu0) = self.open.pop().expect("an open span");
        assert_eq!(top, id, "spans close innermost first");
        counters.cpu = cpu_time().saturating_sub(cpu0);
        let span = &mut self.spans[id];
        span.end = end;
        span.counters = counters;
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its child spans cover. Children of one span never overlap, because
    /// the client is single-threaded. Returns `(name, calls, total, self)`
    /// in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut rows: Vec<(&'static str, usize, Duration, Duration)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_time) {
            let own = s.duration().saturating_sub(*child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.duration();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.duration(), own)),
            }
        }
        rows
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let c = &s.counters;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{},\
\"counters\":{{\"threads\":{},\"functions\":{},\"fn_time_us\":{},\"cache_hits\":{},\"cache_misses\":{},\"hit_time_us\":{},\
\"sessions_opened\":{},\"ctx_reencodes_avoided\":{},\"vir_us\":{},\"encode_us\":{},\"smt_init_us\":{},\"smt_run_us\":{},\
\"meter_units\":{},\"query_bytes\":{},\"hyps_asserted\":{},\"hyps_used\":{},\"lint_findings\":{},\"cpu_us\":{}}}}}",
                s.name,
                s.request,
                s.start.as_micros(),
                s.end.as_micros(),
                c.threads,
                c.functions,
                c.fn_time.as_micros(),
                c.cache_hits,
                c.cache_misses,
                c.hit_time.as_micros(),
                c.sessions_opened,
                c.ctx_reencodes_avoided,
                c.phases.vir.as_micros(),
                c.phases.encode.as_micros(),
                c.phases.smt_init.as_micros(),
                c.phases.smt_run.as_micros(),
                c.meter.total(),
                c.query_bytes,
                c.hyps_asserted,
                c.hyps_used,
                c.lint_findings,
                c.cpu.as_micros(),
            );
        }
        out
    }

    /// The per-layer metrics, as `(name, value, unit)`.
    ///
    /// Times are medians over traced requests of each request's total in
    /// that layer. Counts, and the cache ratios, are taken over the requests
    /// with an id below `count_window`, a fixed prefix of the seeded
    /// sequence, so they repeat exactly for a seed however many requests
    /// the run managed. `cache` is the cache directory's `(entries, bytes)`
    /// once that prefix is done. A layer that is not on a workload's path
    /// reads 0.
    pub fn per_layer(
        &self,
        count_window: u64,
        cache: (usize, u64),
    ) -> Vec<(&'static str, f64, &'static str)> {
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        let requests = roots.len().max(1);
        let index: std::collections::HashMap<u64, usize> = roots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.request, i))
            .collect();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // Median over requests of each request's total of `pick` over the
        // spans `keep` selects.
        let per_request = |keep: &dyn Fn(&Span) -> bool, pick: &dyn Fn(&Span) -> f64| -> f64 {
            let mut totals = vec![0.0; requests];
            for s in self.spans.iter().filter(|s| keep(s)) {
                totals[index[&s.request]] += pick(s);
            }
            crate::median(&mut totals)
        };
        let verify = |s: &Span| s.name.starts_with("vc.verify_");
        let reports = |s: &Span| s.is_workload_call();
        let sum = |keep: &dyn Fn(&Span) -> bool, pick: &dyn Fn(&Counters) -> f64| -> f64 {
            self.spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| pick(&s.counters))
                .sum()
        };
        let window = |s: &Span| reports(s) && s.request < count_window;
        let count = |pick: &dyn Fn(&MeterSnapshot) -> u64| -> f64 {
            sum(&window, &|c| pick(&c.meter) as f64)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let krate_calls = |s: &Span| s.name == "vc.verify_krate";
        let efficiency = ratio(
            sum(&krate_calls, &|c| c.fn_time.as_secs_f64()),
            self.spans
                .iter()
                .filter(|s| krate_calls(s))
                .map(|s| s.duration().as_secs_f64() * s.counters.threads as f64)
                .sum(),
        );
        let window_hits = sum(&window, &|c| c.cache_hits as f64);
        let window_misses = sum(&window, &|c| c.cache_misses as f64);
        let hits = sum(&reports, &|c| c.cache_hits as f64);
        let smt_run_s = sum(&reports, &|c| c.phases.smt_run.as_secs_f64());
        let all_units = sum(&reports, &|c| c.meter.total() as f64);
        let call_time: f64 = self
            .spans
            .iter()
            .filter(|s| reports(s))
            .map(|s| s.duration().as_secs_f64())
            .sum();
        let root_time: f64 = roots.iter().map(|s| s.duration().as_secs_f64()).sum();
        let mut root_ms: Vec<f64> = roots.iter().map(|s| ms(s.duration())).collect();
        let root_self = self
            .self_times()
            .iter()
            .find(|r| r.0 == "request")
            .map_or(0.0, |r| ms(r.3) / requests as f64);

        vec![
            (
                "verify.call_ms",
                per_request(&verify, &|s| ms(s.duration())),
                "ms",
            ),
            ("verify.parallel_efficiency", efficiency, "ratio"),
            (
                "verify.sessions_opened",
                sum(&window, &|c| c.sessions_opened as f64),
                "count",
            ),
            (
                "verify.ctx_reencodes_avoided",
                sum(&window, &|c| c.ctx_reencodes_avoided as f64),
                "count",
            ),
            (
                "cache.hit_ratio",
                ratio(window_hits, window_hits + window_misses),
                "ratio",
            ),
            (
                "cache.misses_per_request",
                ratio(window_misses, requests.min(count_window as usize) as f64),
                "count",
            ),
            (
                "cache.hit_us",
                ratio(sum(&reports, &|c| c.hit_time.as_secs_f64() * 1e6), hits),
                "us",
            ),
            ("cache.entries", cache.0 as f64, "count"),
            ("cache.bytes", cache.1 as f64, "bytes"),
            (
                "lint.call_ms",
                per_request(&|s| s.name == "lint.lint_krate", &|s| ms(s.duration())),
                "ms",
            ),
            (
                "lint.findings",
                sum(
                    &|s| s.name == "lint.lint_krate" && s.request < count_window,
                    &|c| c.lint_findings as f64,
                ),
                "count",
            ),
            (
                "wp.call_ms",
                per_request(&|s| s.name == "vc.vc_for_function", &|s| ms(s.duration())),
                "ms",
            ),
            (
                "wp.phase_ms",
                per_request(&reports, &|s| ms(s.counters.phases.vir)),
                "ms",
            ),
            (
                "encode.phase_ms",
                per_request(&reports, &|s| ms(s.counters.phases.encode)),
                "ms",
            ),
            (
                "encode.query_bytes",
                sum(&window, &|c| c.query_bytes as f64),
                "bytes",
            ),
            (
                "ctx.hyps_used_ratio",
                ratio(
                    sum(&window, &|c| c.hyps_used as f64),
                    sum(&window, &|c| c.hyps_asserted as f64),
                ),
                "ratio",
            ),
            (
                "smt.init_ms",
                per_request(&reports, &|s| ms(s.counters.phases.smt_init)),
                "ms",
            ),
            (
                "smt.run_ms",
                per_request(&reports, &|s| ms(s.counters.phases.smt_run)),
                "ms",
            ),
            ("smt.units_per_s", ratio(all_units, smt_run_s), "1/s"),
            ("smt.units", count(&|m| m.total()), "count"),
            ("sat.conflicts", count(&|m| m.sat_conflicts), "count"),
            ("sat.decisions", count(&|m| m.sat_decisions), "count"),
            ("sat.propagations", count(&|m| m.sat_propagations), "count"),
            ("euf.merges", count(&|m| m.euf_merges), "count"),
            ("lia.pivots", count(&|m| m.simplex_pivots), "count"),
            ("lia.branch_splits", count(&|m| m.branch_splits), "count"),
            ("quant.rounds", count(&|m| m.ematch_rounds), "count"),
            (
                "quant.instantiations",
                count(&|m| m.instantiations),
                "count",
            ),
            (
                "quant.ematch_skipped",
                count(&|m| m.ematch_skipped),
                "count",
            ),
            ("smt.theory_reuse", count(&|m| m.theory_reuse), "count"),
            (
                "bv.bitblast_clauses",
                count(&|m| m.bitblast_clauses),
                "count",
            ),
            (
                "epr.call_ms",
                per_request(
                    &|s| s.name == "epr.verify_epr_module",
                    &|s| ms(s.duration()),
                ),
                "ms",
            ),
            (
                "proc.cpu_ms_per_request",
                sum(&reports, &|c| c.cpu.as_secs_f64() * 1e3) / requests as f64,
                "ms",
            ),
            ("request.self_ms", root_self, "ms"),
            ("trace.request_p50_ms", crate::median(&mut root_ms), "ms"),
            (
                "trace.overhead_pct",
                100.0 * ratio(root_time - call_time, call_time),
                "%",
            ),
        ]
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process, all threads, at nanosecond resolution. Zero
/// where the clock cannot be read.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
