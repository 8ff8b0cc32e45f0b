//! Content-addressed VC result cache.
//!
//! A verification verdict is a pure function of what the query reads: the
//! configuration, the visible modules' axioms and solver mode, the spec
//! functions and datatypes the encoder resolves across the whole krate,
//! and the function's own WP output (goal, hypotheses — callee contracts
//! included — markers, side obligations). This module fingerprints exactly
//! that input with a canonical structural hash and persists the full
//! deterministic part of the [`FnReport`] (status, meter counters, unsat
//! core and other diagnostics, quantifier profile) under
//! `.veris-cache/<fingerprint>`. A re-run over unchanged source answers
//! from the cache without constructing a solver at all. Exec and proof
//! bodies of *other* functions are not part of the key (verification is
//! modular), so an edit inside one body misses for that function alone.
//!
//! Storage is a line-oriented escaped-text format (the workspace has no
//! JSON parser, and the entries are ours on both ends). Writes go through
//! a temp file + rename so concurrent workers never observe a torn entry.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use veris_obs::{DiagItem, Diagnostic, MeterSnapshot, PhaseTimes, QuantProfile, Severity};
use veris_vir::module::{Krate, Mode, Module};

use crate::verify::{FnReport, Status, VcConfig};
use crate::wp::WpResult;

/// Bump whenever the entry format *or* the meaning of any fingerprinted
/// input changes; old entries then miss instead of deserializing garbage.
/// v2: the fingerprint gained the lint component (findings + `allow`
/// suppressions), and the driver gates on error-severity lints.
/// v3: the meter line carries the informational kernel-reuse counters
/// (`ematch_skipped`, `theory_reuse`), and the fingerprint covers the
/// batch-kernel escape hatch (the two paths charge those counters
/// differently even though every budgeted field is identical).
/// v4: EPR saturation follows each module's `epr_mode` flag, which the
/// module text already carries; the config's `epr=` component is gone.
/// v5: the wall-clock timeout is gone, so the `timeout=` component is too;
/// the rlimit is always set, and custom provers charge the function's
/// meter.
/// v6: the solver backjumps on theory conflicts and keeps EUF/simplex state
/// on the SAT trail, so the same inputs give different meter totals (and
/// may give different unsat cores and counterexample bindings).
/// v7: one e-matching kernel (no `batch=` component), no `theory_reuse` field.
/// v8: the watermark e-matching cache is gone, and with it the meter line's
/// `ematch_skipped` field.
/// v9: the key covers what the query reads — a per-module-group context
/// part (config, visible modules' names, flags, imports and axioms, every
/// spec function and datatype of the krate) plus the function's name, lint
/// component and WP output — instead of every visible module in full.
/// v10: the theories see only the atoms relevancy marks at each final
/// check, so the same inputs give different meter totals.
pub const CACHE_SCHEMA_VERSION: u32 = 10;

// ----------------------------------------------------------------------
// Fingerprinting
// ----------------------------------------------------------------------

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// 128-bit name of a canonical string: two 64-bit FNV-1a passes with
/// different bases — collisions would need ~2^64 distinct queries.
fn hash128(s: &str) -> String {
    let b = s.as_bytes();
    format!(
        "{:016x}{:016x}",
        fnv1a(b, 0xcbf2_9ce4_8422_2325),
        fnv1a(b, 0x6c62_272e_07bb_0142)
    )
}

/// The part of the key shared by every function of `module`, computed once
/// per module group.
///
/// Covers, in order: the cache schema version; every solver-relevant knob
/// of the configuration; the module's name and `epr_mode` flag (which
/// picks the solver mode); for each visible module its name (axiom labels
/// carry it), `epr_mode` flag, imports and axioms; and, across the whole
/// krate, the full definition of every spec function and every datatype,
/// because the encoder and the custom provers resolve those by name
/// krate-wide whatever the imports say. Every other function
/// contributes only its signature (a call resolves to the first function
/// of its name, whatever its mode). Exec and proof bodies and the contracts
/// of non-spec functions are left out: a callee's contract reaches a
/// query only through the caller's WP output, which [`fingerprint`] hashes.
/// `Debug` on VIR is structural and deterministic.
pub fn context_key(krate: &Krate, module: &Module, cfg: &VcConfig) -> String {
    let mut s = format!(
        "schema={CACHE_SCHEMA_VERSION};style={:?};rlimit={};mqr={:?};maxgen={:?};provers={};\n\
         module {} epr={}\n",
        cfg.style,
        cfg.rlimit,
        cfg.max_quant_rounds,
        cfg.smt_max_generation,
        cfg.provers.is_some(),
        module.name,
        module.epr_mode,
    );
    for m in visible_modules(krate, module, cfg) {
        s.push_str(&format!(
            "visible {} epr={} imports={:?}\naxioms={:?}\n",
            m.name, m.epr_mode, m.imports, m.axioms
        ));
    }
    for m in &krate.modules {
        for d in &m.datatypes {
            s.push_str(&format!("{d:?}\n"));
        }
        for f in &m.functions {
            if f.mode == Mode::Spec {
                s.push_str(&format!("{f:?}\n"));
            } else {
                s.push_str(&format!(
                    "fn {} {:?} {:?} {:?}\n",
                    f.name, f.mode, f.params, f.ret
                ));
            }
        }
    }
    hash128(&s)
}

/// Canonical structural fingerprint of one function's verification input:
/// its group's [`context_key`], the function's name, its lint component
/// ([`veris_lint::cache_component`] — findings and `allow` suppressions,
/// so flipping either invalidates the entry), and the WP output for the
/// function (goal, hypotheses, invariant markers, side obligations,
/// assignment events).
///
/// The virtual source lines of counterexample bindings are not covered:
/// they move when a statement is inserted above the function, so a cache
/// hit re-derives them from the current krate instead.
pub fn fingerprint(context: &str, fname: &str, wp: &WpResult, lint: &str) -> String {
    hash128(&format!(
        "context={context}\nfn {fname}\n{lint}hyps={:?}\ngoal={:?}\nmarkers={:?}\nsides={:?}\nassigns={:?}\n",
        wp.hypotheses, wp.goal, wp.inv_markers, wp.side_obligations, wp.assigns
    ))
}

// ----------------------------------------------------------------------
// Entry serialization
// ----------------------------------------------------------------------

/// Escape a string for one tab-separated field: backslash, tab, newline,
/// carriage return.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Serialize the deterministic part of a report. Wall-clock fields (`time`,
/// `phases`) are intentionally absent: a cache hit reports its own (near
/// zero) times, which is the observable point of the cache.
pub fn render_entry(rep: &FnReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("veris-cache\t{CACHE_SCHEMA_VERSION}\n"));
    out.push_str(&format!("fn\t{}\n", esc(&rep.name)));
    let status = match &rep.status {
        Status::Verified => "verified\t".to_string(),
        Status::Failed(m) => format!("failed\t{}", esc(m)),
        Status::Unknown(m) => format!("unknown\t{}", esc(m)),
    };
    out.push_str(&format!("status\t{status}\n"));
    out.push_str(&format!(
        "counts\t{}\t{}\t{}\t{}\t{}\t{}\n",
        rep.query_bytes,
        rep.instantiations,
        rep.conflicts,
        rep.obligations,
        rep.hyps_asserted,
        rep.hyps_used
    ));
    let m = &rep.meter;
    out.push_str(&format!(
        "meter\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        m.sat_conflicts,
        m.sat_decisions,
        m.sat_propagations,
        m.euf_merges,
        m.simplex_pivots,
        m.branch_splits,
        m.ematch_rounds,
        m.instantiations,
        m.bitblast_clauses
    ));
    for (name, q) in rep.profile.iter() {
        out.push_str(&format!(
            "quant\t{}\t{}\t{}\t{}\n",
            esc(name),
            q.instantiations,
            q.triggers_matched,
            q.max_generation
        ));
    }
    for d in &rep.diagnostics {
        out.push_str(&format!(
            "diag\t{}\t{}\t{}\t{}\n",
            d.severity.as_str(),
            esc(&d.code),
            esc(&d.function),
            esc(&d.message)
        ));
        for it in &d.items {
            match &it.loc {
                Some(loc) => out.push_str(&format!(
                    "item\t{}\t{}\t{}\n",
                    esc(&it.label),
                    esc(&it.value),
                    esc(loc)
                )),
                None => out.push_str(&format!("item\t{}\t{}\n", esc(&it.label), esc(&it.value))),
            }
        }
    }
    out.push_str("end\n");
    out
}

/// Parse an entry back into a report. `None` on any malformed or
/// version-mismatched content (treated as a miss, never an error).
pub fn parse_entry(text: &str) -> Option<FnReport> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next()?.split('\t').collect();
    if header.len() != 2
        || header[0] != "veris-cache"
        || header[1].parse::<u32>().ok()? != CACHE_SCHEMA_VERSION
    {
        return None;
    }
    let mut rep = FnReport {
        name: String::new(),
        status: Status::Verified,
        time: std::time::Duration::ZERO,
        query_bytes: 0,
        instantiations: 0,
        conflicts: 0,
        obligations: 0,
        meter: MeterSnapshot::default(),
        phases: PhaseTimes::default(),
        profile: QuantProfile::new(),
        diagnostics: Vec::new(),
        hyps_asserted: 0,
        hyps_used: 0,
        cache_hit: true,
    };
    let mut saw_end = false;
    for line in lines {
        let f: Vec<&str> = line.split('\t').collect();
        match f[0] {
            "fn" if f.len() == 2 => rep.name = unesc(f[1]),
            "status" if f.len() == 3 => {
                rep.status = match f[1] {
                    "verified" => Status::Verified,
                    "failed" => Status::Failed(unesc(f[2])),
                    "unknown" => Status::Unknown(unesc(f[2])),
                    _ => return None,
                }
            }
            "counts" if f.len() == 7 => {
                rep.query_bytes = f[1].parse().ok()?;
                rep.instantiations = f[2].parse().ok()?;
                rep.conflicts = f[3].parse().ok()?;
                rep.obligations = f[4].parse().ok()?;
                rep.hyps_asserted = f[5].parse().ok()?;
                rep.hyps_used = f[6].parse().ok()?;
            }
            "meter" if f.len() == 10 => {
                rep.meter = MeterSnapshot {
                    sat_conflicts: f[1].parse().ok()?,
                    sat_decisions: f[2].parse().ok()?,
                    sat_propagations: f[3].parse().ok()?,
                    euf_merges: f[4].parse().ok()?,
                    simplex_pivots: f[5].parse().ok()?,
                    branch_splits: f[6].parse().ok()?,
                    ematch_rounds: f[7].parse().ok()?,
                    instantiations: f[8].parse().ok()?,
                    bitblast_clauses: f[9].parse().ok()?,
                    ..MeterSnapshot::default()
                };
            }
            "quant" if f.len() == 5 => {
                rep.profile.record(
                    &unesc(f[1]),
                    f[2].parse().ok()?,
                    f[3].parse().ok()?,
                    f[4].parse().ok()?,
                );
            }
            "diag" if f.len() == 5 => {
                let sev = match f[1] {
                    "error" => Severity::Error,
                    "warning" => Severity::Warning,
                    "note" => Severity::Note,
                    _ => return None,
                };
                rep.diagnostics
                    .push(Diagnostic::new(sev, unesc(f[2]), unesc(f[3]), unesc(f[4])));
            }
            "item" if f.len() == 3 || f.len() == 4 => {
                let mut item = DiagItem::new(unesc(f[1]), unesc(f[2]));
                if f.len() == 4 {
                    item = item.with_loc(unesc(f[3]));
                }
                rep.diagnostics.last_mut()?.items.push(item);
            }
            "end" if f.len() == 1 => {
                saw_end = true;
                break;
            }
            _ => return None,
        }
    }
    if !saw_end {
        return None;
    }
    Some(rep)
}

// ----------------------------------------------------------------------
// Store
// ----------------------------------------------------------------------

/// Look up a fingerprint. Any I/O or parse problem is a miss.
pub fn load(dir: &Path, fp: &str) -> Option<FnReport> {
    let text = std::fs::read_to_string(dir.join(fp)).ok()?;
    parse_entry(&text)
}

/// Persist a report under its fingerprint, atomically (temp + rename).
/// Each write gets its own temp file (process id plus a process-wide
/// sequence number), so threads and processes storing the same fingerprint
/// never write into one temp file. Failures are silent: the cache is an
/// accelerator, never a correctness dependency.
pub fn store(dir: &Path, fp: &str, rep: &FnReport) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{fp}.tmp.{}.{seq}", std::process::id()));
    let written = std::fs::write(&tmp, render_entry(rep)).is_ok();
    if !written || std::fs::rename(&tmp, dir.join(fp)).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Cache contents summary: `(entries, total bytes)`. Used by the bins to
/// report cache state and by CI to upload cache stats.
pub fn stats(dir: &Path) -> (usize, u64) {
    let mut entries = 0usize;
    let mut bytes = 0u64;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            if let Ok(md) = e.metadata() {
                if md.is_file() {
                    entries += 1;
                    bytes += md.len();
                }
            }
        }
    }
    (entries, bytes)
}

/// The visible-module set for `module` under `cfg.style`: the modules whose
/// axioms the verifier encodes into the shared context (Verus prunes to
/// the module and its imports; the baselines see every module). Spec
/// functions and datatypes are resolved krate-wide regardless, which is
/// why [`context_key`] covers them for the whole krate.
pub fn visible_modules<'k>(krate: &'k Krate, module: &Module, cfg: &VcConfig) -> Vec<&'k Module> {
    if cfg.style.prunes_context() {
        krate
            .modules
            .iter()
            .filter(|m| m.name == module.name || module.imports.contains(&m.name))
            .collect()
    } else {
        krate.modules.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use veris_lint::LintReport;
    use veris_obs::ResourceMeter;
    use veris_vir::expr::{call, int, var, ExprExt};
    use veris_vir::module::{DatatypeDef, FnBody, Function};
    use veris_vir::stmt::Stmt;
    use veris_vir::ty::Ty;

    use crate::style::Style;
    use crate::verify::{ProverOutcome, ProverRegistry};
    use crate::wp::{vc_for_function, SideObligation};

    /// Module `lib`: `spec fn sp(x) = x + 1`, `enum D { A, B }`, and the
    /// exec callee `g(x) requires x > 0 ensures r > x`. Module `far` (not
    /// imported): `spec fn far_spec(x) = x * 2`. Module `m` imports `lib`,
    /// assumes `sp(0) == 1`, and holds `f` (calls `g`), the exec `h` and
    /// the proof fn `pp`.
    fn base() -> Krate {
        let x = var("x", Ty::Int);
        let r = var("r", Ty::Int);
        let lib = Module::new("lib")
            .func(
                Function::new("sp", Mode::Spec)
                    .param("x", Ty::Int)
                    .returns("r", Ty::Int)
                    .spec_body(x.add(int(1))),
            )
            .datatype(DatatypeDef::enumeration(
                "D",
                vec![("A", vec![]), ("B", vec![])],
            ))
            .func(
                Function::new("g", Mode::Exec)
                    .param("x", Ty::Int)
                    .returns("r", Ty::Int)
                    .requires(x.gt(int(0)))
                    .ensures(r.gt(x.clone()))
                    .stmts(vec![Stmt::ret(x.add(int(1)))]),
            );
        let far = Module::new("far").func(
            Function::new("far_spec", Mode::Spec)
                .param("x", Ty::Int)
                .returns("r", Ty::Int)
                .spec_body(x.mul(int(2))),
        );
        let f = Function::new("f", Mode::Exec)
            .param("x", Ty::Int)
            .returns("r", Ty::Int)
            .requires(x.gt(int(0)))
            .ensures(r.gt(int(0)))
            .stmts(vec![
                Stmt::Call {
                    func: "g".into(),
                    args: vec![x.clone()],
                    dest: Some(("y".into(), Ty::Int)),
                },
                Stmt::ret(var("y", Ty::Int)),
            ]);
        let h = Function::new("h", Mode::Exec)
            .param("x", Ty::Int)
            .stmts(vec![Stmt::assert(x.eq_e(x.clone()))]);
        let pp = Function::new("pp", Mode::Proof)
            .param("x", Ty::Int)
            .stmts(vec![Stmt::assert(x.le(x.clone()))]);
        let m = Module::new("m")
            .import("lib")
            .axiom(call("sp", vec![int(0)], Ty::Int).eq_e(int(1)))
            .func(f)
            .func(h)
            .func(pp);
        Krate::new().module(lib).module(far).module(m)
    }

    fn key_with(k: &Krate, cfg: &VcConfig, lint: &LintReport) -> String {
        let (m, f) = k.find_function("f").expect("f");
        let wp = vc_for_function(k, f);
        let lint_key = veris_lint::cache_component(lint, f);
        fingerprint(&context_key(k, m, cfg), "f", &wp, &lint_key)
    }

    /// The cache key of `f` under the default configuration.
    fn key(k: &Krate) -> String {
        key_with(k, &VcConfig::default(), &veris_lint::lint_krate(k))
    }

    fn func_mut<'k>(k: &'k mut Krate, name: &str) -> &'k mut Function {
        k.modules
            .iter_mut()
            .flat_map(|m| m.functions.iter_mut())
            .find(|f| f.name == name)
            .expect("function exists")
    }

    fn module_mut<'k>(k: &'k mut Krate, name: &str) -> &'k mut Module {
        k.modules
            .iter_mut()
            .find(|m| m.name == name)
            .expect("module exists")
    }

    fn push_stmt(k: &mut Krate, name: &str) {
        let FnBody::Stmts(body) = &mut func_mut(k, name).body else {
            panic!("{name} has no statement body");
        };
        body.insert(0, Stmt::assert(veris_vir::expr::tru()));
    }

    #[test]
    fn other_exec_and_proof_bodies_keep_the_key() {
        let before = key(&base());
        for name in ["h", "pp", "g"] {
            let mut k = base();
            push_stmt(&mut k, name);
            assert_eq!(key(&k), before, "editing the body of `{name}`");
        }
        // The function's own body is in the key, through its WP output.
        let mut k = base();
        push_stmt(&mut k, "f");
        assert_ne!(key(&k), before, "editing the body of `f`");
    }

    #[test]
    fn key_changes_with_what_the_query_reads() {
        let before = key(&base());
        type Edit = fn(&mut Krate);
        let edits: [(&str, Edit); 8] = [
            ("spec body in a non-imported module", |k| {
                func_mut(k, "far_spec").body = FnBody::SpecExpr(int(0))
            }),
            ("spec body in an imported module", |k| {
                func_mut(k, "sp").body = FnBody::SpecExpr(int(2))
            }),
            ("callee requires", |k| {
                func_mut(k, "g").requires = vec![var("x", Ty::Int).ge(int(0))]
            }),
            ("callee ensures", |k| {
                func_mut(k, "g").ensures = vec![var("x", Ty::Int).ge(int(0))]
            }),
            ("datatype", |k| {
                module_mut(k, "lib").datatypes[0]
                    .variants
                    .push(("C".into(), vec![]))
            }),
            ("axiom", |k| {
                module_mut(k, "m").axioms[0] = int(1).eq_e(int(1))
            }),
            ("epr_mode", |k| module_mut(k, "m").epr_mode = true),
            ("own allows", |k| {
                func_mut(k, "f").allows.push("trivial-ensures".into())
            }),
        ];
        for (what, edit) in edits {
            let mut k = base();
            edit(&mut k);
            assert_ne!(key(&k), before, "{what}");
        }

        // A lint finding on `f` itself.
        let k = base();
        let mut lint = veris_lint::lint_krate(&k);
        lint.diagnostics.push(Diagnostic::new(
            Severity::Warning,
            "trivial-ensures",
            "f",
            "a finding on f",
        ));
        assert_ne!(key_with(&k, &VcConfig::default(), &lint), before, "lint");
    }

    struct NoProver;
    impl ProverRegistry for NoProver {
        fn prove(&self, _: &Krate, _: &SideObligation, _: &Arc<ResourceMeter>) -> ProverOutcome {
            ProverOutcome::Unknown("none".into())
        }
    }

    #[test]
    fn key_changes_with_each_config_component() {
        let k = base();
        let lint = veris_lint::lint_krate(&k);
        let before = key_with(&k, &VcConfig::default(), &lint);
        let configs: Vec<(&str, VcConfig)> = vec![
            ("style", VcConfig::with_style(Style::DafnyLike)),
            (
                "rlimit",
                VcConfig::default().with_rlimit(crate::verify::DEFAULT_RLIMIT + 1),
            ),
            (
                "max_quant_rounds",
                VcConfig {
                    max_quant_rounds: Some(3),
                    ..VcConfig::default()
                },
            ),
            (
                "smt_max_generation",
                VcConfig {
                    smt_max_generation: Some(3),
                    ..VcConfig::default()
                },
            ),
            (
                "provers",
                VcConfig {
                    provers: Some(Arc::new(NoProver)),
                    ..VcConfig::default()
                },
            ),
        ];
        for (what, cfg) in configs {
            assert_ne!(key_with(&k, &cfg, &lint), before, "{what}");
        }
    }

    fn sample_report() -> FnReport {
        let mut profile = QuantProfile::new();
        profile.record("seq_push_len", 12, 40, 3);
        profile.record("weird\tname\nhere", 1, 1, 0);
        FnReport {
            name: "m::f".into(),
            status: Status::Failed("counterexample: {x = 7}".into()),
            time: std::time::Duration::from_millis(5),
            query_bytes: 1234,
            instantiations: 13,
            conflicts: 4,
            obligations: 2,
            meter: MeterSnapshot {
                sat_conflicts: 4,
                sat_propagations: 99,
                instantiations: 13,
                ..Default::default()
            },
            phases: PhaseTimes::default(),
            profile,
            diagnostics: vec![
                Diagnostic::new(Severity::Error, "counterexample", "m::f", "does not hold")
                    .with_items(vec![
                        DiagItem::new("x", "7").with_loc("m.vir:3"),
                        DiagItem::new("requires#0: a > 0", ""),
                    ]),
                Diagnostic::new(Severity::Note, "unsat-core", "m::f", "used 2 of 3"),
            ],
            hyps_asserted: 3,
            hyps_used: 2,
            cache_hit: false,
        }
    }

    #[test]
    fn entry_round_trips() {
        let rep = sample_report();
        let text = render_entry(&rep);
        let back = parse_entry(&text).expect("parse");
        assert!(back.cache_hit);
        assert_eq!(back.name, rep.name);
        assert_eq!(back.status, rep.status);
        assert_eq!(back.query_bytes, rep.query_bytes);
        assert_eq!(back.instantiations, rep.instantiations);
        assert_eq!(back.conflicts, rep.conflicts);
        assert_eq!(back.obligations, rep.obligations);
        assert_eq!(back.hyps_asserted, rep.hyps_asserted);
        assert_eq!(back.hyps_used, rep.hyps_used);
        assert_eq!(back.meter, rep.meter);
        assert_eq!(back.profile, rep.profile);
        assert_eq!(back.diagnostics, rep.diagnostics);
    }

    #[test]
    fn version_mismatch_and_garbage_miss() {
        let rep = sample_report();
        let text = render_entry(&rep).replace(
            &format!("veris-cache\t{CACHE_SCHEMA_VERSION}"),
            "veris-cache\t999",
        );
        assert!(parse_entry(&text).is_none());
        assert!(parse_entry("not a cache entry").is_none());
        // Truncated entry (no `end`) must miss, not half-parse.
        let full = render_entry(&rep);
        let cut = &full[..full.len() - 5];
        assert!(parse_entry(cut).is_none());
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "plain",
            "tab\there",
            "nl\nthere",
            "back\\slash",
            "\\t not a tab",
        ] {
            assert_eq!(unesc(&esc(s)), s);
        }
    }

    #[test]
    fn store_and_load() {
        let dir = std::env::temp_dir().join(format!("veris-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rep = sample_report();
        store(&dir, "0123abcd0123abcd0123abcd0123abcd", &rep);
        let back = load(&dir, "0123abcd0123abcd0123abcd0123abcd").expect("hit");
        assert_eq!(back.status, rep.status);
        let (n, bytes) = stats(&dir);
        assert_eq!(n, 1);
        assert!(bytes > 0);
        assert!(load(&dir, "ffffffffffffffffffffffffffffffff").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_fingerprint_leave_one_whole_entry() {
        let dir =
            std::env::temp_dir().join(format!("veris-cache-race-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rep = sample_report();
        let fp = "0123abcd0123abcd0123abcd0123abcd";
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        store(&dir, fp, &rep);
                    }
                });
            }
        });
        let back = load(&dir, fp).expect("a whole entry");
        assert_eq!(render_entry(&back), render_entry(&rep));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp.")),
            "temp files left behind: {names:?}"
        );
        assert_eq!(names, vec![fp.to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
