//! Incremental-verification parity: per-module base sessions (a context
//! encoded once, cloned for each function) and the content-addressed result
//! cache must be *invisible* in every deterministic quantity. For each
//! example system this asserts that session-reuse verification produces the
//! same verdicts, unsat cores, diagnostics, krate lints and resource-meter
//! totals as a fresh solver per function, at 0, 1, 2 and 8 threads, and
//! that a warm-cache run answers every function from the cache without
//! opening a session. The `#[epr_mode]` models are held to the same
//! contract: each module's flag picks its own solver mode, in sessions as
//! in fresh solvers. After an edit, a run through a warm cache equals a
//! fresh run: one body edit misses for the edited function alone, an edit
//! to a spec function or datatype in a module the function does not import
//! still reaches its key (the encoder resolves both krate-wide), and (in
//! the `#[ignore]`d soaks) random spec-body, ensures, datatype and axiom
//! edits never replay a stale verdict, and no thread schedule moves any
//! deterministic quantity.

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_bench::casestudy;
use veris_vc::{
    lint_ids, verify_function, verify_krate, FnReport, KrateReport, Status, Style, VcConfig,
};
use veris_vir::expr::{call, int, ite, tru, var, Expr, ExprExt};
use veris_vir::module::{DatatypeDef, FnBody, Function, Mode, Module};
use veris_vir::stmt::Stmt;
use veris_vir::ty::Ty;
use veris_vir::Krate;

/// All example systems: the Fig 9 case studies plus the diagnostics demo
/// (whose failing/unknown functions exercise cache round-tripping of
/// counterexamples and unsat cores).
fn systems() -> Vec<&'static str> {
    let mut names: Vec<&str> = casestudy::NAMES.to_vec();
    names.push("diagdemo");
    names
}

/// The baseline configuration: the deterministic rlimit budget, so every
/// compared quantity is machine-independent.
fn cfg() -> VcConfig {
    let mut c = veris_idioms::config_with_provers();
    c.style = Style::Verus;
    c.max_quant_rounds = Some(8);
    c.with_rlimit(BASELINE_RLIMIT)
}

/// Compare every deterministic field of two reports for the same function.
/// Wall-clock fields (`time`, `phases`) are exempt by design.
fn assert_deterministic_eq(system: &str, a: &FnReport, b: &FnReport, what: &str) {
    let ctx = format!("{system}::{} ({what})", a.name);
    assert_eq!(a.name, b.name, "{ctx}: name");
    assert_eq!(a.status, b.status, "{ctx}: status");
    assert_eq!(a.meter, b.meter, "{ctx}: meter snapshot");
    assert_eq!(a.query_bytes, b.query_bytes, "{ctx}: query bytes");
    assert_eq!(a.instantiations, b.instantiations, "{ctx}: instantiations");
    assert_eq!(a.conflicts, b.conflicts, "{ctx}: conflicts");
    assert_eq!(a.obligations, b.obligations, "{ctx}: obligations");
    assert_eq!(a.hyps_asserted, b.hyps_asserted, "{ctx}: hyps asserted");
    assert_eq!(a.hyps_used, b.hyps_used, "{ctx}: hyps used (unsat core)");
    assert_eq!(a.profile, b.profile, "{ctx}: quantifier profile");
    assert_eq!(a.diagnostics, b.diagnostics, "{ctx}: diagnostics");
}

/// Session reuse must be byte-identical to fresh per-function solving, and
/// neither a multi-threaded schedule (2 threads, the benchmark's setting,
/// or 8) nor `threads = 0` (run inline, like 1) may perturb any verdict or
/// counter (the meter is deterministic solver work, not wall-clock).
#[test]
fn sessions_match_fresh_solver_for_every_system() {
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        assert_sessions_match_fresh(system, &krate);
    }
}

/// Verify `krate` at 1 thread, check every function against a fresh
/// solver and the whole run against 0, 2 and 8 threads, and return the
/// 1-thread report.
fn assert_sessions_match_fresh(system: &str, krate: &Krate) -> KrateReport {
    let cfg = cfg();
    let t1 = verify_krate(krate, &cfg, 1);
    assert!(
        t1.sessions.sessions_opened > 0,
        "{system}: crate verification should open module sessions"
    );
    assert_eq!(
        t1.sessions.cache_hits, 0,
        "{system}: no cache configured, so no hits"
    );
    for rep in &t1.functions {
        let fresh = verify_function(krate, &rep.name, &cfg);
        assert_deterministic_eq(system, &fresh, rep, "fresh vs session");
    }
    for threads in [0, 2, 8] {
        let other = verify_krate(krate, &cfg, threads);
        assert_same_run(system, &t1, &other, &format!("1 vs {threads} threads"));
    }
    t1
}

/// Two runs of one krate agree on every deterministic quantity: each
/// function's report, the session counters and the krate lints.
fn assert_same_run(system: &str, a: &KrateReport, b: &KrateReport, what: &str) {
    assert_eq!(
        a.functions.len(),
        b.functions.len(),
        "{system}: report length at {what}"
    );
    for (fa, fb) in a.functions.iter().zip(&b.functions) {
        assert_deterministic_eq(system, fa, fb, what);
    }
    assert_eq!(
        a.sessions, b.sessions,
        "{system}: session counters at {what}"
    );
    assert_eq!(a.lints, b.lints, "{system}: krate lints at {what}");
}

/// The body of spec function `dbl`, `inc` or `dec` over `x`.
fn spec_value(name: &str, x: &Expr) -> Expr {
    match name {
        "dbl" => x.add(x.clone()),
        "inc" => x.add(int(1)),
        _ => x.sub(int(1)),
    }
}

/// `spec fn name(x: int) -> int { spec_value(name, x) }`.
fn spec_fn(name: &str) -> Function {
    Function::new(name, Mode::Spec)
        .param("x", Ty::Int)
        .returns("r", Ty::Int)
        .spec_body(spec_value(name, &var("x", Ty::Int)))
}

/// `proof fn name(x: int) ensures spec(x) == spec_value(spec, x), ... {}`
/// with one clause per spec function in `uses`, so the function's clone
/// axiomatizes exactly those.
fn user_of(name: &str, uses: &[&str]) -> Function {
    let x = var("x", Ty::Int);
    let mut f = Function::new(name, Mode::Proof).param("x", Ty::Int);
    for &spec in uses {
        let value = spec_value(spec, &x);
        f = f.ensures(call(spec, vec![x.clone()], Ty::Int).eq_e(value));
    }
    f.stmts(vec![])
}

/// Module `specs` defines `dbl`, `inc` and `dec`. Module `left` calls `dbl`
/// and `dec` in one function and `inc` and `dec` in another; module `right`
/// calls `inc` in one and `dbl` in another. `dbl` and `inc` are each
/// axiomatized in two module sessions; `dec` in one session, though by two
/// of its functions.
fn shared_spec_krate() -> Krate {
    let specs = Module::new("specs")
        .func(spec_fn("dbl"))
        .func(spec_fn("inc"))
        .func(spec_fn("dec"));
    let left = Module::new("left")
        .import("specs")
        .func(user_of("left_a", &["dbl", "dec"]))
        .func(user_of("left_b", &["inc", "dec"]));
    let right = Module::new("right")
        .import("specs")
        .func(user_of("right_c", &["inc"]))
        .func(user_of("right_d", &["dbl"]));
    Krate::new().module(specs).module(left).module(right)
}

/// The redundancy lint counts module sessions, not functions: the spec
/// functions two modules axiomatize are reported, one axiomatized by two
/// functions of one module is not, and every thread count agrees.
#[test]
fn spec_axiom_redundancy_lint_counts_modules_at_every_thread_count() {
    let krate = shared_spec_krate();
    let rep = assert_sessions_match_fresh("shared-spec", &krate);
    assert!(rep.all_verified(), "{:?}", rep.failures());
    let lint = rep
        .lints
        .iter()
        .find(|d| d.code == lint_ids::REDUNDANT_SPEC_AXIOM)
        .expect("the redundancy lint fires");
    let items: Vec<(&str, &str)> = lint
        .items
        .iter()
        .map(|i| (i.label.as_str(), i.value.as_str()))
        .collect();
    assert_eq!(items, [("dbl", "2 sessions"), ("inc", "2 sessions")]);
}

/// A warm cache run of an unchanged crate answers every function from the
/// store: zero sessions opened (hence zero SMT `check()` calls) while all
/// deterministic quantities replay identically.
#[test]
fn warm_cache_skips_solver_and_replays_reports() {
    for system in ["lists", "diagdemo"] {
        let dir = cache_dir(system);
        let krate = casestudy::krate(system).expect("known system");
        assert_warm_cache_replays(system, &krate, &dir);

        // Changing the config (here: the rlimit budget) must change the
        // fingerprint — a stale verdict for a different budget is a miss.
        let cfg2 = self::cfg()
            .with_rlimit(BASELINE_RLIMIT + 1)
            .with_cache_dir(&dir);
        let other = verify_krate(&krate, &cfg2, 1);
        assert_eq!(
            other.sessions.cache_hits, 0,
            "{system}: different rlimit must not hit the old entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh, empty cache directory for one test.
fn cache_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("veris-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Verify `krate` cold and then warm through the cache at `dir`: the warm
/// run hits every function, opens no session and replays every report.
fn assert_warm_cache_replays(system: &str, krate: &Krate, dir: &std::path::Path) {
    let cfg = cfg().with_cache_dir(dir);
    let cold = verify_krate(krate, &cfg, 1);
    let n = cold.functions.len() as u64;
    assert_eq!(
        cold.sessions.cache_hits, 0,
        "{system}: cold run has no hits"
    );
    assert_eq!(
        cold.sessions.cache_misses, n,
        "{system}: cold run misses all"
    );
    assert!(cold.sessions.sessions_opened > 0);

    let warm = verify_krate(krate, &cfg, 1);
    assert_eq!(warm.sessions.cache_hits, n, "{system}: warm run hits all");
    assert_eq!(
        warm.sessions.cache_misses, 0,
        "{system}: warm run misses none"
    );
    assert_eq!(
        warm.sessions.sessions_opened, 0,
        "{system}: warm run must not construct a solver"
    );
    for (c, w) in cold.functions.iter().zip(&warm.functions) {
        assert_deterministic_eq(system, c, w, "cold vs warm");
        assert!(
            w.cache_hit,
            "{system}::{}: warm report marked as hit",
            w.name
        );
    }
    assert_eq!(
        veris_vc::cache::stats(dir).0,
        cold.functions.len(),
        "{system}: one cache entry per function"
    );
}

/// The two `#[epr_mode]` models: sessions, thread counts and the cache
/// reproduce fresh solving, with the same verdicts as their own tests.
#[test]
fn epr_models_match_fresh_solver_and_cache() {
    let models = [
        (
            "delegation_epr",
            veris_ironkv::model::epr_krate(),
            &["set_preserves_invariants", "get_after_set"][..],
        ),
        (
            "distlock_epr",
            veris_collections::distlock::epr_mode_krate(),
            &["epr_transfer_preserves"][..],
        ),
    ];
    for (system, krate, expected) in models {
        let rep = assert_sessions_match_fresh(system, &krate);
        let names: Vec<&str> = rep.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, expected, "{system}: reported functions");
        assert!(rep.all_verified(), "{system}: {:?}", rep.failures());
        assert_eq!(rep.lint_stats.errors, 0, "{system}: {:?}", rep.lints);
        let dir = cache_dir(system);
        assert_warm_cache_replays(system, &krate, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `proof fn add_one(x: int) requires x >= 0 { assert(x + 1 > 0) }`: needs
/// arithmetic, so it only verifies (and is only legal) in default mode.
fn int_module() -> Module {
    let x = var("x", Ty::Int);
    let f = Function::new("add_one", Mode::Proof)
        .param("x", Ty::Int)
        .requires(x.ge(int(0)))
        .stmts(vec![Stmt::assert(x.add(int(1)).gt(int(0)))]);
    Module::new("arith").func(f)
}

/// The distlock EPR module with its `epr_mode` flag set to `epr`.
fn distlock_module(epr: bool) -> Module {
    let mut m = veris_collections::distlock::epr_mode_krate()
        .modules
        .remove(0);
    m.epr_mode = epr;
    m
}

/// One EPR module next to one default-mode module: each session takes its
/// mode from its own module, so every function reports exactly what it
/// reports in a krate of its own, and the flag is part of the cache key.
#[test]
fn mixed_krate_gives_each_module_its_own_mode() {
    let mixed = Krate::new()
        .module(int_module())
        .module(distlock_module(true));
    let rep = assert_sessions_match_fresh("mixed", &mixed);
    assert!(rep.all_verified(), "{:?}", rep.failures());
    let alone = [
        Krate::new().module(int_module()),
        veris_collections::distlock::epr_mode_krate(),
    ];
    for (f, k) in rep.functions.iter().zip(&alone) {
        let single = verify_krate(k, &cfg(), 1);
        assert_deterministic_eq("mixed", &single.functions[0], f, "alone vs mixed");
    }
    // The flag changes the solver mode, and so the work done.
    let ematch = verify_krate(&Krate::new().module(distlock_module(false)), &cfg(), 1);
    assert_ne!(ematch.functions[0].meter, rep.functions[1].meter);

    // Turning `.epr()` off changes the fingerprint of that module's
    // functions only.
    let dir = cache_dir("mixed");
    let cached = cfg().with_cache_dir(&dir);
    verify_krate(&mixed, &cached, 1);
    let flipped = Krate::new()
        .module(int_module())
        .module(distlock_module(false));
    let again = verify_krate(&flipped, &cached, 1);
    assert_eq!(again.sessions.cache_hits, 1, "the default-mode module hits");
    assert_eq!(again.sessions.cache_misses, 1, "the flipped module misses");
    assert!(!again.functions[1].cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `krate` with one `assert(true)` labelled `label` inserted before the
/// first statement of `fname`; `None` when `fname` has no statement body.
fn with_edit(krate: &Krate, fname: &str, label: &str) -> Option<Krate> {
    let mut k = krate.clone();
    let f = k
        .modules
        .iter_mut()
        .flat_map(|m| m.functions.iter_mut())
        .find(|f| f.name == fname)?;
    let FnBody::Stmts(body) = &mut f.body else {
        return None;
    };
    body.insert(0, Stmt::assert_labeled(tru(), label));
    Some(k)
}

/// Verify `krate` through the cache at `dir` and with no cache, and
/// require every report of the cached run to equal the fresh one.
fn assert_cached_equals_fresh(
    system: &str,
    krate: &Krate,
    dir: &std::path::Path,
    what: &str,
) -> (KrateReport, KrateReport) {
    let cached = verify_krate(krate, &cfg().with_cache_dir(dir), 1);
    let fresh = verify_krate(krate, &cfg(), 1);
    assert_eq!(
        cached.functions.len(),
        fresh.functions.len(),
        "{system}: report length ({what})"
    );
    for (c, f) in cached.functions.iter().zip(&fresh.functions) {
        assert_deterministic_eq(system, f, c, what);
    }
    (cached, fresh)
}

/// The IDE save loop: one labelled `assert(true)` in one body misses the
/// warm cache for that function alone, and every report equals a fresh
/// run. Editing diagdemo's `demo_pass` moves the failing `demo_fail` down
/// one line, so its replayed counterexample must carry the new locations.
#[test]
fn one_body_edit_misses_one_function() {
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        let dir = cache_dir(&format!("edit-{system}"));
        let cold = verify_krate(&krate, &cfg().with_cache_dir(&dir), 1);
        for rep in &cold.functions {
            let label = format!("parity-edit-{}", rep.name);
            let Some(edited) = with_edit(&krate, &rep.name, &label) else {
                continue;
            };
            let what = format!("edit of {}", rep.name);
            let (warm, _) = assert_cached_equals_fresh(system, &edited, &dir, &what);
            assert_eq!(warm.sessions.cache_misses, 1, "{system}: {what}");
            let missed: Vec<&str> = warm
                .functions
                .iter()
                .filter(|f| !f.cache_hit)
                .map(|f| f.name.as_str())
                .collect();
            assert_eq!(missed, [rep.name.as_str()], "{system}: {what}");
            if rep.name == "demo_pass" {
                // `demo_fail` sits below the edit: it hits, and its
                // replayed counterexample moves down with it.
                let demo_fail = |r: &KrateReport| -> FnReport {
                    let f = r.functions.iter().find(|f| f.name == "demo_fail");
                    f.expect("demo_fail reported").clone()
                };
                let locs = |f: &FnReport| -> Vec<Option<String>> {
                    let d = f.diagnostics.iter().filter(|d| d.code == "counterexample");
                    d.flat_map(|d| d.items.iter().map(|i| i.loc.clone()))
                        .collect()
                };
                let (before, after) = (demo_fail(&cold), demo_fail(&warm));
                assert!(after.cache_hit, "demo_fail replays from the cache");
                assert!(
                    locs(&before).iter().any(Option::is_some),
                    "located bindings"
                );
                assert_ne!(locs(&before), locs(&after), "the edit moves demo_fail down");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Verify `before` into a fresh cache and `after` through it: the cached
/// run must equal a fresh one. Returns the fresh report of `after`.
fn edit_after_warm_cache(name: &str, before: &Krate, after: &Krate) -> KrateReport {
    let dir = cache_dir(name);
    let cold = verify_krate(before, &cfg().with_cache_dir(&dir), 1);
    assert!(cold.all_verified(), "{name}: {:?}", cold.failures());
    let (_, fresh) = assert_cached_equals_fresh(name, after, &dir, "after the edit");
    let _ = std::fs::remove_dir_all(&dir);
    fresh
}

/// `spec fn lim(x: int) -> int { x + delta }` in module `specs`.
fn specs_module(delta: i128) -> Module {
    let x = var("x", Ty::Int);
    Module::new("specs").func(
        Function::new("lim", Mode::Spec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .spec_body(x.add(int(delta))),
    )
}

/// `proof fn p(x: int) ensures lim(x) > x {}` in module `user`, which does
/// not import `specs`: the encoder resolves `lim` krate-wide regardless.
fn user_module() -> Module {
    let x = var("x", Ty::Int);
    Module::new("user").func(
        Function::new("p", Mode::Proof)
            .param("x", Ty::Int)
            .ensures(call("lim", vec![x.clone()], Ty::Int).gt(x))
            .stmts(vec![]),
    )
}

#[test]
fn spec_body_edit_in_non_imported_module_is_not_stale() {
    let before = Krate::new().module(specs_module(1)).module(user_module());
    let after = Krate::new().module(specs_module(-1)).module(user_module());
    let fresh = edit_after_warm_cache("stale-spec-body", &before, &after);
    assert!(
        matches!(&fresh.functions[0].status, Status::Failed(m) if m.contains("counterexample")),
        "the edit must break `p`: {:?}",
        fresh.functions[0].status
    );
}

/// `enum Color { Red, Green }` in module `types`, plus `Blue` when `blue`.
fn types_module(blue: bool) -> Module {
    let mut variants = vec![("Red", vec![]), ("Green", vec![])];
    if blue {
        variants.push(("Blue", vec![]));
    }
    Module::new("types").datatype(DatatypeDef::enumeration("Color", variants))
}

/// `proof fn two_colors(c: Color) ensures c is Red || c is Green {}` in a
/// module that does not import `types`.
fn painter_module() -> Module {
    let c = var("c", Ty::datatype("Color"));
    Module::new("painter").func(
        Function::new("two_colors", Mode::Proof)
            .param("c", Ty::datatype("Color"))
            .ensures(
                c.is_variant("Color", "Red")
                    .or(c.is_variant("Color", "Green")),
            )
            .stmts(vec![]),
    )
}

#[test]
fn datatype_edit_in_non_imported_module_is_not_stale() {
    let before = Krate::new()
        .module(types_module(false))
        .module(painter_module());
    let after = Krate::new()
        .module(types_module(true))
        .module(painter_module());
    let fresh = edit_after_warm_cache("stale-datatype", &before, &after);
    assert!(
        !fresh.functions[0].status.is_verified(),
        "a third variant must break `two_colors`"
    );
}

/// Module `facts`: `spec fn k() -> int;` with the axiom `k() > lo`, and a
/// module importing it with `proof fn k_positive() ensures k() > 0 {}`.
fn axiom_krate(lo: i128) -> Krate {
    let k = call("k", vec![], Ty::Int);
    let facts = Module::new("facts")
        .func(Function::new("k", Mode::Spec).returns("r", Ty::Int))
        .axiom(k.gt(int(lo)));
    let client = Module::new("client").import("facts").func(
        Function::new("k_positive", Mode::Proof)
            .ensures(k.gt(int(0)))
            .stmts(vec![]),
    );
    Krate::new().module(facts).module(client)
}

#[test]
fn visible_axiom_edit_is_not_stale() {
    let fresh = edit_after_warm_cache("stale-axiom", &axiom_krate(0), &axiom_krate(-1));
    assert!(
        !fresh.functions[0].status.is_verified(),
        "a weaker axiom must break `k_positive`"
    );
}

/// A seeded xorshift64 generator: the soak needs no crate for randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Apply one random edit that changes what other functions' queries read:
/// a spec function body, an `ensures` clause, a datatype (one more
/// variant) or an axiom. Returns a description, or `None` when the krate
/// offers nothing of the drawn kind.
fn mutate(k: &mut Krate, rng: &mut Rng) -> Option<String> {
    let fns: Vec<(usize, usize)> = k
        .modules
        .iter()
        .enumerate()
        .flat_map(|(mi, m)| (0..m.functions.len()).map(move |fi| (mi, fi)))
        .collect();
    match rng.below(4) {
        0 => {
            let spec: Vec<_> = fns
                .iter()
                .filter(|&&(m, f)| matches!(k.modules[m].functions[f].body, FnBody::SpecExpr(_)))
                .collect();
            let &&(m, f) = spec.get(rng.below(spec.len().max(1)))?;
            let func = &mut k.modules[m].functions[f];
            let FnBody::SpecExpr(body) = &func.body else {
                unreachable!("filtered to spec bodies")
            };
            let ty = body.ty();
            let new = if ty == Ty::Bool {
                body.not()
            } else if ty.is_integral() {
                body.add(int(1))
            } else {
                ite(tru(), body.clone(), body.clone())
            };
            func.body = FnBody::SpecExpr(new);
            Some(format!("spec body of {}", func.name))
        }
        1 => {
            let with: Vec<_> = fns
                .iter()
                .filter(|&&(m, f)| !k.modules[m].functions[f].ensures.is_empty())
                .collect();
            let &&(m, f) = with.get(rng.below(with.len().max(1)))?;
            let func = &mut k.modules[m].functions[f];
            let i = rng.below(func.ensures.len());
            func.ensures[i] = tru();
            Some(format!("ensures#{i} of {}", func.name))
        }
        2 => {
            let dts: Vec<(usize, usize)> = k
                .modules
                .iter()
                .enumerate()
                .flat_map(|(mi, m)| (0..m.datatypes.len()).map(move |di| (mi, di)))
                .collect();
            let &(m, d) = dts.get(rng.below(dts.len().max(1)))?;
            let dt = &mut k.modules[m].datatypes[d];
            let v = format!("Soak{}", dt.variants.len());
            dt.variants.push((v, vec![]));
            Some(format!("datatype {}", dt.name))
        }
        _ => {
            let axs: Vec<(usize, usize)> = k
                .modules
                .iter()
                .enumerate()
                .flat_map(|(mi, m)| (0..m.axioms.len()).map(move |ai| (mi, ai)))
                .collect();
            let &(m, a) = axs.get(rng.below(axs.len().max(1)))?;
            k.modules[m].axioms[a] = tru();
            Some(format!("axiom#{a} of {}", k.modules[m].name))
        }
    }
}

/// `krate` with every spec function and datatype moved into one trailing
/// module that no module imports. The encoder resolves both by name across
/// the krate, so their edits must still reach every key that reads them.
fn hoist_definitions(krate: &Krate) -> Krate {
    let mut k = krate.clone();
    let mut defs = Module::new("soak_definitions");
    for m in &mut k.modules {
        let (spec, rest): (Vec<Function>, Vec<Function>) = std::mem::take(&mut m.functions)
            .into_iter()
            .partition(|f| f.mode == Mode::Spec);
        m.functions = rest;
        defs.functions.extend(spec);
        defs.datatypes.append(&mut m.datatypes);
    }
    k.modules.push(defs);
    k
}

/// Cache soundness soak: random spec-body, ensures, datatype and axiom
/// edits across the corpus, in its own layout and with its definitions
/// hoisted into a module nobody imports. Each edit is verified through a
/// cache warmed on the unedited system and compared with a fresh run. Run
/// in release:
/// `cargo test --release -p veris-bench --test session_parity -- --ignored cache_soundness_soak`.
#[test]
#[ignore = "soak: run in release"]
fn cache_soundness_soak() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut verdicts_moved = 0;
    let mut edits = 0;
    for system in systems() {
        let original = casestudy::krate(system).expect("known system");
        for (layout, krate) in [
            ("own", original.clone()),
            ("hoisted", hoist_definitions(&original)),
        ] {
            let dir = cache_dir(&format!("soak-{system}-{layout}"));
            let cold = verify_krate(&krate, &cfg().with_cache_dir(&dir), 1);
            for round in 0..40 {
                let mut k = krate.clone();
                let mut applied = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    applied.extend(mutate(&mut k, &mut rng));
                }
                if applied.is_empty() {
                    continue;
                }
                edits += applied.len();
                let what = format!("{layout} layout, round {round}: {}", applied.join(", "));
                let (_, fresh) = assert_cached_equals_fresh(system, &k, &dir, &what);
                if fresh
                    .functions
                    .iter()
                    .zip(&cold.functions)
                    .any(|(a, b)| a.status != b.status)
                {
                    verdicts_moved += 1;
                }
            }
            // The unedited system still replays from its own entries.
            let what = format!("{layout} layout, unedited");
            let (warm, _) = assert_cached_equals_fresh(system, &krate, &dir, &what);
            assert_eq!(warm.sessions.cache_misses, 0, "{system}: {what}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    eprintln!("soak: {edits} edits, {verdicts_moved} rounds moved a verdict");
    assert!(
        verdicts_moved > 0,
        "the soak's edits must move some verdict"
    );
}

/// Thread-schedule soak: every example system verified 50 times at 2, 3
/// and 8 threads, each run equal to the 1-thread run in every deterministic
/// quantity, whichever worker builds which module's base and whichever
/// clone runs first. Run in release:
/// `cargo test --release -p veris-bench --test session_parity -- --ignored thread_schedule_soak`.
#[test]
#[ignore = "soak: run in release"]
fn thread_schedule_soak() {
    let cfg = cfg();
    for system in systems() {
        let krate = casestudy::krate(system).expect("known system");
        let t1 = verify_krate(&krate, &cfg, 1);
        for threads in [2, 3, 8] {
            for run in 0..50 {
                let other = verify_krate(&krate, &cfg, threads);
                let what = format!("1 vs {threads} threads, run {run}");
                assert_same_run(system, &t1, &other, &what);
            }
        }
    }
}
