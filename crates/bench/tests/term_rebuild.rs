//! `TermStore::rebuild` over a term's own children returns the term itself,
//! and so does `TermStore::substitute` with an empty substitution. The
//! solver's ite-lifting pass and `substitute` both rely on the first: when
//! no child of a term changed, they keep the term instead of rebuilding it
//! through the `mk_*` constructors. Both properties are checked on every
//! term a real workload interns — the Fig 9 corpus and Fig 7b `memory_ops`
//! at p = 4, each function encoded the way `verify_function` encodes it and
//! then checked, so instantiated bodies and theory lemmas are covered too.

use std::collections::HashMap;

use veris_bench::baseline::BASELINE_RLIMIT;
use veris_bench::casestudy;
use veris_collections::model::memory_reasoning_krate;
use veris_smt::quant::TriggerPolicy;
use veris_smt::solver::{Config, Solver};
use veris_smt::term::TermId;
use veris_vc::ctx::EncCtx;
use veris_vc::{cache, vc_for_function, Style, VcConfig};
use veris_vir::expr::var;
use veris_vir::module::{FnBody, Mode};
use veris_vir::ty::Ty;
use veris_vir::Krate;

/// Encode and check every verifiable function of `krate` on a fresh
/// solver (Verus style: no goal wrapping, no style noise), then assert
/// `rebuild(t, children(t)) == t` and `substitute(t, &[]) == t` for every
/// term in the store. Returns the number of terms checked.
fn assert_rebuild_is_identity(system: &str, krate: &Krate) -> usize {
    let cfg = VcConfig::with_style(Style::Verus).with_rlimit(BASELINE_RLIMIT);
    let empty = HashMap::new();
    let mut checked = 0;
    for module in &krate.modules {
        for f in &module.functions {
            let verifiable = !f.trusted
                && !matches!(f.body, FnBody::Abstract)
                && (f.mode != Mode::Spec || !f.ensures.is_empty());
            if !verifiable {
                continue;
            }
            let mut s = Solver::new(Config {
                trigger_policy: TriggerPolicy::Minimal,
                max_quant_rounds: 8,
                epr_mode: module.epr_mode,
                ..Config::default()
            });
            let mut ctx = EncCtx::new(krate);
            for m in cache::visible_modules(krate, module, &cfg) {
                for (i, ax) in m.axioms.iter().enumerate() {
                    let t = ctx.encode_expr(&mut s, ax, &empty);
                    s.assert_labeled(t, &format!("axiom:{}#{i}", m.name));
                }
            }
            let wp = vc_for_function(krate, f);
            for (label, h) in &wp.hypotheses {
                let t = ctx.encode_expr(&mut s, h, &empty);
                s.assert_labeled(t, label);
            }
            for (marker, label) in &wp.inv_markers {
                let t = ctx.encode_expr(&mut s, &var(marker, Ty::Bool), &empty);
                s.assert_labeled(t, label);
            }
            let goal = ctx.encode_expr(&mut s, &wp.goal, &empty);
            ctx.flush_axioms(&mut s);
            let neg = s.store.mk_not(goal);
            s.assert_labeled(neg, "goal");
            let _ = s.check();
            let n = s.store.num_terms();
            for i in 0..n {
                let t = TermId(i as u32);
                let kids = s.store.children(t);
                let rebuilt = s.store.rebuild(t, &kids);
                assert_eq!(
                    rebuilt,
                    t,
                    "{system}::{}: rebuilding {} over its own children gave {}",
                    f.name,
                    s.store.display(t),
                    s.store.display(rebuilt)
                );
                let substituted = s.store.substitute(t, &[]);
                assert_eq!(
                    substituted,
                    t,
                    "{system}::{}: substituting nothing in {} gave {}",
                    f.name,
                    s.store.display(t),
                    s.store.display(substituted)
                );
            }
            checked += n;
        }
    }
    checked
}

#[test]
fn rebuild_over_own_children_is_identity() {
    let mut checked = 0;
    for system in casestudy::NAMES {
        let krate = casestudy::krate(system).expect("known system");
        checked += assert_rebuild_is_identity(system, &krate);
    }
    checked += assert_rebuild_is_identity("memory_ops", &memory_reasoning_krate(4));
    assert!(checked > 10_000, "only {checked} terms checked");
}
