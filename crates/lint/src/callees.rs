//! Pass 5: every call names a function the krate defines.
//!
//! A call to an undefined function — in a body, a contract, a `decreases`
//! or a module axiom — leaves the VC layer nothing to summarize or
//! axiomatize; rustc would reject such a crate before verification. The
//! finding ([`ids::UNKNOWN_CALLEE`]) is an error attached to the calling
//! function (or to the module, for an axiom), and it gates every function
//! of the krate (see [`crate::LintReport::gate_errors`]): a spec body that
//! calls an undefined function reaches the encoder from every caller.

use std::collections::BTreeSet;

use veris_obs::{DiagItem, Diagnostic, Severity};
use veris_vir::expr::Expr;
use veris_vir::module::Krate;

use crate::ids;
use crate::termination::{body_calls, expr_calls};

pub fn check(krate: &Krate) -> Vec<Diagnostic> {
    let defined: BTreeSet<&str> = krate
        .all_functions()
        .map(|(_, f)| f.name.as_str())
        .collect();
    let mut diags = Vec::new();
    for m in &krate.modules {
        let mut calls = Vec::new();
        for a in &m.axioms {
            expr_calls(a, &mut calls);
        }
        diags.extend(unknown(&defined, &m.name, &calls));
        for f in &m.functions {
            let mut calls = Vec::new();
            for e in f.requires.iter().chain(&f.ensures).chain(&f.decreases) {
                expr_calls(e, &mut calls);
            }
            body_calls(&f.body, &mut calls);
            diags.extend(unknown(&defined, &f.name, &calls));
        }
    }
    diags
}

/// One finding per undefined callee of `owner`, in first-call order.
fn unknown(
    defined: &BTreeSet<&str>,
    owner: &str,
    calls: &[(String, Vec<Expr>)],
) -> Vec<Diagnostic> {
    let mut seen: Vec<&str> = Vec::new();
    for (callee, _) in calls {
        if !defined.contains(callee.as_str()) && !seen.contains(&callee.as_str()) {
            seen.push(callee);
        }
    }
    seen.into_iter()
        .map(|callee| {
            Diagnostic::new(
                Severity::Error,
                ids::UNKNOWN_CALLEE,
                owner.to_owned(),
                format!("call to `{callee}`, which the krate does not define"),
            )
            .with_items(vec![DiagItem::new("callee", callee)])
        })
        .collect()
}
