//! The three workloads: their fixtures (set-up), their seeded request
//! sequences, and the execution of one request against the verifier's
//! public API, optionally traced.

use std::collections::HashSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

use veris_bench::{baseline, casestudy};
use veris_collections::model::{broken_singly_list_krate, memory_reasoning_krate, BrokenProof};
use veris_epr::verify_epr_module;
use veris_vc::{
    lint_krate, vc_for_function, verify_function, verify_krate, FnReport, Style, VcConfig,
};
use veris_vir::expr::tru;
use veris_vir::module::{FnBody, Krate};
use veris_vir::stmt::Stmt;

use crate::answers::{self, check, Expect};
use crate::trace::{Counters, Trace};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CorpusCold,
    EditLoop,
    SolverHeavy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CorpusCold,
        Workload::EditLoop,
        Workload::SolverHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus_cold",
            Workload::EditLoop => "edit_loop",
            Workload::SolverHeavy => "solver_heavy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Worker threads for `verify_krate`: the Fig 9 setting of 2, capped at
/// the machine's parallelism.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The baseline verifier configuration: Verus style with the standard
/// custom provers and the `baseline` rlimit in place of a wall-clock
/// timeout, so no verdict depends on machine speed.
fn base_config() -> VcConfig {
    let mut cfg = veris_idioms::config_with_provers();
    cfg.style = Style::Verus;
    cfg.max_quant_rounds = Some(8);
    cfg.with_rlimit(baseline::BASELINE_RLIMIT)
}

/// One unit of a `corpus_cold` pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item {
    /// `verify_krate` on `casestudy::NAMES[i]`.
    System(usize),
    IronkvEpr,
    DistlockEpr,
    DistlockDefault,
}

pub const ITEMS: [Item; 9] = [
    Item::System(0),
    Item::System(1),
    Item::System(2),
    Item::System(3),
    Item::System(4),
    Item::System(5),
    Item::IronkvEpr,
    Item::DistlockEpr,
    Item::DistlockDefault,
];

/// One verification the user waits for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Verify the whole corpus from scratch, in this order.
    Corpus(Vec<Item>),
    /// Insert `assert(true)` labelled `label` before statement `position`
    /// of `function` in corpus system `system`, then re-verify the system
    /// through the cache.
    Edit {
        system: usize,
        function: &'static str,
        position: usize,
        label: String,
    },
    /// `memory_ops` of `memory_reasoning_krate(pushes)`.
    MemoryOps { pushes: usize },
    /// The Fig 8 `list_index` proof with its precondition dropped.
    BrokenIndex,
}

/// A function an `edit_loop` request may edit: every corpus function in
/// the answer table, with the number of top-level statements of its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditSite {
    pub system: usize,
    pub function: &'static str,
    pub stmts: usize,
}

pub fn edit_sites<'k>(corpus: impl IntoIterator<Item = &'k Krate>) -> Vec<EditSite> {
    let mut sites = Vec::new();
    for (system, (krate, (_, functions))) in corpus.into_iter().zip(&answers::CORPUS).enumerate() {
        for &function in functions.iter() {
            let (_, f) = krate
                .find_function(function)
                .expect("answer-table function exists in its krate");
            let FnBody::Stmts(body) = &f.body else {
                panic!("{function} has no statement body to edit");
            };
            sites.push(EditSite {
                system,
                function,
                stmts: body.len(),
            });
        }
    }
    sites
}

/// The corpus krates in `casestudy::NAMES` order.
pub fn corpus_krates() -> Vec<Krate> {
    casestudy::NAMES
        .iter()
        .map(|name| casestudy::krate(name).expect("known case study"))
        .collect()
}

/// SplitMix64: a small, fixed, seedable generator, so a seed names the
/// same request sequence on every machine and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The endless, seeded request sequence of a workload. `edit_loop` and
/// `solver_heavy` deal from a deck that holds each request kind once: every
/// edit site, or every push count plus the broken `list_index` proof. The
/// deck is reshuffled each round, so every seed sees the same mix and runs
/// differ only in order.
pub struct Requests {
    workload: Workload,
    rng: Rng,
    sites: Vec<EditSite>,
    deck: Vec<Request>,
    issued: u64,
}

impl Requests {
    pub fn new(workload: Workload, seed: u64, sites: Vec<EditSite>) -> Requests {
        Requests {
            workload,
            rng: Rng::new(seed),
            sites,
            deck: Vec::new(),
            issued: 0,
        }
    }

    fn deal(&mut self) -> Vec<Request> {
        match self.workload {
            Workload::CorpusCold => {
                let mut order = ITEMS.to_vec();
                self.rng.shuffle(&mut order);
                vec![Request::Corpus(order)]
            }
            Workload::EditLoop => {
                let mut sites = self.sites.clone();
                self.rng.shuffle(&mut sites);
                sites
                    .into_iter()
                    .map(|s| Request::Edit {
                        system: s.system,
                        function: s.function,
                        position: self.rng.below(s.stmts),
                        label: String::new(),
                    })
                    .collect()
            }
            Workload::SolverHeavy => {
                let mut deck: Vec<Request> = answers::MEMORY_PUSHES
                    .map(|pushes| Request::MemoryOps { pushes })
                    .chain([Request::BrokenIndex])
                    .collect();
                self.rng.shuffle(&mut deck);
                deck
            }
        }
    }
}

impl Iterator for Requests {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.deck.is_empty() {
            self.deck = self.deal();
            self.deck.reverse();
        }
        let mut req = self.deck.pop()?;
        if let Request::Edit { label, .. } = &mut req {
            *label = format!("bench-edit-{}", self.issued);
        }
        self.issued += 1;
        Some(req)
    }
}

/// A request with its input built, ready to run: the part of a request the
/// user does not wait for (the edit itself) happens here.
pub enum Prepared<'f> {
    Corpus(&'f [Item]),
    Edit { system: usize, krate: Krate },
    MemoryOps(&'f Krate),
    BrokenIndex,
}

/// What a request produced: how many functions got their expected verdict,
/// and every mismatch against the answer table.
#[derive(Debug, Default)]
pub struct Outcome {
    pub verdicts_ok: usize,
    pub errors: Vec<String>,
    /// Cache misses across the request's `verify_krate` calls.
    pub cache_misses: u64,
}

impl Outcome {
    fn add(&mut self, reports: &[FnReport], expected: &[&str], expect: Expect) {
        let (ok, errors) = check(expected, expect, reports);
        self.verdicts_ok += ok;
        self.errors.extend(errors);
    }
}

/// Everything a workload's requests need, built during set-up.
pub struct Fixture {
    cfg: VcConfig,
    /// Per corpus system: its krate and its Fig 9 config (committed
    /// module weights; plus the cache for `edit_loop`).
    corpus: Vec<(Krate, VcConfig)>,
    ironkv_epr: Krate,
    distlock_epr: Krate,
    distlock_default: Krate,
    /// `memory_reasoning_krate(p)` at index `p - 4`.
    memory: Vec<Krate>,
    broken_index: Krate,
    cache_dir: Option<PathBuf>,
    /// The cache entries set-up stored (`edit_loop` only).
    setup_entries: HashSet<OsString>,
}

impl Fixture {
    /// Build the workload's krates and fill its caches with one warm-up
    /// request: a `corpus_cold` pass, which for `edit_loop` verifies the
    /// corpus into the fresh cache directory `cache_dir`, or a
    /// `solver_heavy` request at the smallest push count.
    pub fn set_up(workload: Workload, cache_dir: &Path) -> Result<Fixture, String> {
        let cfg = base_config();
        let mut fx = Fixture {
            cfg: cfg.clone(),
            corpus: Vec::new(),
            ironkv_epr: Krate::new(),
            distlock_epr: Krate::new(),
            distlock_default: Krate::new(),
            memory: Vec::new(),
            broken_index: Krate::new(),
            cache_dir: None,
            setup_entries: HashSet::new(),
        };
        match workload {
            Workload::CorpusCold | Workload::EditLoop => {
                if workload == Workload::EditLoop {
                    let _ = std::fs::remove_dir_all(cache_dir);
                    std::fs::create_dir_all(cache_dir)
                        .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
                    fx.cache_dir = Some(cache_dir.to_path_buf());
                }
                for (name, krate) in casestudy::NAMES.iter().zip(corpus_krates()) {
                    let mut c = cfg.clone();
                    if let Some(weights) = baseline::module_weights_for(name) {
                        c = c.with_module_weights(weights);
                    }
                    if let Some(dir) = &fx.cache_dir {
                        c = c.with_cache_dir(dir);
                    }
                    fx.corpus.push((krate, c));
                }
                fx.ironkv_epr = veris_ironkv::model::epr_krate();
                fx.distlock_epr = veris_collections::distlock::epr_mode_krate();
                fx.distlock_default = veris_collections::distlock::default_mode_krate();
                let warm = fx.run(&Prepared::Corpus(&ITEMS), 0, None);
                if !warm.errors.is_empty() {
                    return Err(format!("set-up verification failed: {:?}", warm.errors));
                }
                if let Some(dir) = &fx.cache_dir {
                    fx.setup_entries = std::fs::read_dir(dir)
                        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
                        .flatten()
                        .map(|e| e.file_name())
                        .collect();
                }
            }
            Workload::SolverHeavy => {
                fx.memory = answers::MEMORY_PUSHES.map(memory_reasoning_krate).collect();
                fx.broken_index = broken_singly_list_krate(BrokenProof::IndexRequires);
                let warm = fx.run(&Prepared::MemoryOps(&fx.memory[0]), 0, None);
                if !warm.errors.is_empty() {
                    return Err(format!("set-up verification failed: {:?}", warm.errors));
                }
            }
        }
        Ok(fx)
    }

    /// The `edit_loop` edit sites; empty when the fixture holds no corpus.
    pub fn edit_sites(&self) -> Vec<EditSite> {
        edit_sites(self.corpus.iter().map(|(k, _)| k))
    }

    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Remove every cache entry stored since set-up and return how many
    /// there were and their total size in bytes. An edit's entries are
    /// never hit again, because every edit carries a label of its own.
    pub fn drop_new_cache_entries(&self) -> (usize, u64) {
        let mut dropped = (0, 0);
        let Some(dir) = &self.cache_dir else {
            return dropped;
        };
        for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if self.setup_entries.contains(&e.file_name()) {
                continue;
            }
            let len = e.metadata().map_or(0, |m| m.len());
            if std::fs::remove_file(e.path()).is_ok() {
                dropped.0 += 1;
                dropped.1 += len;
            }
        }
        dropped
    }

    /// Build a request's input. For an edit this clones the system's krate
    /// and inserts the labelled `assert(true)`.
    pub fn prepare<'f>(&'f self, req: &'f Request) -> Prepared<'f> {
        match req {
            Request::Corpus(order) => Prepared::Corpus(order),
            Request::Edit {
                system,
                function,
                position,
                label,
            } => {
                let mut krate = self.corpus[*system].0.clone();
                let f = krate
                    .modules
                    .iter_mut()
                    .flat_map(|m| m.functions.iter_mut())
                    .find(|f| f.name == *function)
                    .expect("edit site exists");
                let FnBody::Stmts(body) = &mut f.body else {
                    panic!("edit site {function} has no statement body");
                };
                body.insert(*position, Stmt::assert_labeled(tru(), label));
                Prepared::Edit {
                    system: *system,
                    krate,
                }
            }
            Request::MemoryOps { pushes } => {
                Prepared::MemoryOps(&self.memory[pushes - answers::MEMORY_PUSHES.start()])
            }
            Request::BrokenIndex => Prepared::BrokenIndex,
        }
    }

    /// Run one prepared request and check every verdict. With `trace`, each
    /// public call gets a span under the request's root span, and every
    /// `verify_*` call is followed by probe calls to `lint_krate` and
    /// `vc_for_function` on the same input, so lint and WP get spans of
    /// their own.
    pub fn run(&self, prepared: &Prepared, request: u64, mut trace: Option<&mut Trace>) -> Outcome {
        if let Some(t) = trace.as_deref_mut() {
            t.begin_request(request);
        }
        let mut out = Outcome::default();
        match prepared {
            Prepared::Corpus(order) => {
                for item in order.iter() {
                    let trace = trace.as_deref_mut();
                    match *item {
                        Item::System(i) => self.check_system(i, &self.corpus[i].0, trace, &mut out),
                        Item::IronkvEpr => {
                            self.check_epr(&self.ironkv_epr, answers::IRONKV_EPR, trace, &mut out)
                        }
                        Item::DistlockEpr => self.check_epr(
                            &self.distlock_epr,
                            answers::DISTLOCK_EPR,
                            trace,
                            &mut out,
                        ),
                        Item::DistlockDefault => self.check_function(
                            &self.distlock_default,
                            answers::DISTLOCK_DEFAULT,
                            Expect::Verified,
                            trace,
                            &mut out,
                        ),
                    }
                }
            }
            Prepared::Edit { system, krate } => {
                self.check_system(*system, krate, trace.as_deref_mut(), &mut out)
            }
            Prepared::MemoryOps(krate) => self.check_function(
                krate,
                answers::MEMORY_OPS,
                Expect::Verified,
                trace.as_deref_mut(),
                &mut out,
            ),
            Prepared::BrokenIndex => self.check_function(
                &self.broken_index,
                answers::BROKEN_INDEX,
                Expect::NotVerified,
                trace.as_deref_mut(),
                &mut out,
            ),
        }
        if let Some(t) = trace {
            t.end_request();
        }
        out
    }

    fn check_system(
        &self,
        system: usize,
        krate: &Krate,
        mut trace: Option<&mut Trace>,
        out: &mut Outcome,
    ) {
        let threads = threads();
        let cfg = &self.corpus[system].1;
        let report = layer(
            &mut trace,
            "vc.verify_krate",
            || verify_krate(krate, cfg, threads),
            |r| Counters::from_krate(r, threads),
        );
        out.cache_misses += report.sessions.cache_misses;
        let expected = answers::CORPUS[system].1;
        out.add(&report.functions, expected, Expect::Verified);
        probe(&mut trace, krate, expected);
    }

    fn check_function(
        &self,
        krate: &Krate,
        name: &str,
        expect: Expect,
        mut trace: Option<&mut Trace>,
        out: &mut Outcome,
    ) {
        let report = layer(
            &mut trace,
            "vc.verify_function",
            || verify_function(krate, name, &self.cfg),
            |r| Counters::from_reports(std::slice::from_ref(r), 1),
        );
        out.add(std::slice::from_ref(&report), &[name], expect);
        probe(&mut trace, krate, &[name]);
    }

    fn check_epr(
        &self,
        krate: &Krate,
        (module, expected): (&str, &[&str]),
        mut trace: Option<&mut Trace>,
        out: &mut Outcome,
    ) {
        let report = layer(
            &mut trace,
            "epr.verify_epr_module",
            || verify_epr_module(krate, module),
            |r| Counters::from_reports(&r.report.functions, 1),
        );
        out.add(&report.report.functions, expected, Expect::Verified);
        if !report.fragment_violations.is_empty() {
            out.errors.push(format!(
                "{module}: outside EPR: {:?}",
                report.fragment_violations
            ));
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Call `f`; when tracing, inside a span named `name` that carries the
/// counters `counters` reads from the result.
fn layer<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    f: impl FnOnce() -> T,
    counters: impl FnOnce(&T) -> Counters,
) -> T {
    let Some(t) = trace.as_deref_mut() else {
        return f();
    };
    let span = t.open(name);
    let result = f();
    t.close(span, counters(&result));
    result
}

/// Traced runs only: spans for `lint_krate` on `krate` and for
/// `vc_for_function` on each of `functions`.
fn probe(trace: &mut Option<&mut Trace>, krate: &Krate, functions: &[&str]) {
    if trace.is_none() {
        return;
    }
    layer(
        trace,
        "lint.lint_krate",
        || lint_krate(krate),
        |r| Counters {
            lint_findings: r.diagnostics.len() as u64,
            ..Counters::default()
        },
    );
    for name in functions {
        let (_, f) = krate
            .find_function(name)
            .expect("answer-table function exists");
        layer(
            trace,
            "vc.vc_for_function",
            || vc_for_function(krate, f),
            |_| Counters::default(),
        );
    }
}
