//! Content-addressed VC result cache.
//!
//! A verification verdict is a pure function of the query the solver saw:
//! the pruned visible context, the WP-computed goal and hypotheses, the
//! encoding style, and the resource budget. This module fingerprints that
//! input with a canonical structural hash and persists the full
//! deterministic part of the [`FnReport`] (status, meter counters, unsat
//! core and other diagnostics, quantifier profile) under
//! `.veris-cache/<fingerprint>`. A re-run over unchanged source answers
//! from the cache without constructing a solver at all; any change to the
//! function, its visible modules, or the configuration changes the
//! fingerprint and misses.
//!
//! Storage is a line-oriented escaped-text format (the workspace has no
//! JSON parser, and the entries are ours on both ends). Writes go through
//! a temp file + rename so concurrent workers never observe a torn entry.

use std::path::Path;

use veris_obs::{DiagItem, Diagnostic, MeterSnapshot, PhaseTimes, QuantProfile, Severity};
use veris_vir::module::{Krate, Module};

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
pub const CACHE_SCHEMA_VERSION: u32 = 7;

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

/// Canonical structural fingerprint of one function's verification input.
///
/// Covers, in order: the cache schema version; every solver-relevant knob
/// of the configuration; the full content of each visible module (module
/// axioms, datatypes, and function bodies all feed the encoded context,
/// and its `epr_mode` flag picks the solver mode — `Debug` on VIR is
/// structural and deterministic); the function's lint
/// component ([`veris_lint::cache_component`] — findings and `allow`
/// suppressions, so flipping either invalidates the entry); and the WP
/// output for the function (goal, hypotheses, invariant markers, side
/// obligations, assignment events). Two 64-bit FNV-1a passes with
/// different bases give a 128-bit name — collisions would need ~2^64
/// distinct queries.
pub fn fingerprint(
    visible: &[&Module],
    fname: &str,
    wp: &WpResult,
    cfg: &VcConfig,
    lint: &str,
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "schema={CACHE_SCHEMA_VERSION};style={:?};rlimit={};mqr={:?};maxgen={:?};provers={};",
        cfg.style,
        cfg.rlimit,
        cfg.max_quant_rounds,
        cfg.smt_max_generation,
        cfg.provers.is_some(),
    ));
    for m in visible {
        s.push_str(&format!("module {}\n{:?}\n", m.name, m));
    }
    s.push_str(&format!("fn {fname}\n"));
    s.push_str(lint);
    s.push_str(&format!(
        "hyps={:?}\ngoal={:?}\nmarkers={:?}\nsides={:?}\nassigns={:?}\n",
        wp.hypotheses, wp.goal, wp.inv_markers, wp.side_obligations, wp.assigns
    ));
    let b = s.as_bytes();
    format!(
        "{:016x}{:016x}",
        fnv1a(b, 0xcbf2_9ce4_8422_2325),
        fnv1a(b, 0x6c62_272e_07bb_0142)
    )
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
        "meter\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        m.sat_conflicts,
        m.sat_decisions,
        m.sat_propagations,
        m.euf_merges,
        m.simplex_pivots,
        m.branch_splits,
        m.ematch_rounds,
        m.instantiations,
        m.bitblast_clauses,
        m.ematch_skipped
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
            "meter" if f.len() == 11 => {
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
                    ematch_skipped: f[10].parse().ok()?,
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
/// Failures are silent: the cache is an accelerator, never a correctness
/// dependency.
pub fn store(dir: &Path, fp: &str, rep: &FnReport) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!("{fp}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, render_entry(rep)).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(fp));
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

/// The visible-module set for `module` under `cfg.style` — the same set
/// the verifier encodes, so the fingerprint covers exactly the context
/// the solver sees.
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
}
