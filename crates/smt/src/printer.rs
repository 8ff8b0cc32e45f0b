//! SMT-LIB 2 rendering of asserted formulas.
//!
//! Used for debugging and for the "SMT query size" metric the paper's
//! Figure 9 reports (`SMT (MB)` — total bytes of solver input).

use crate::fxhash::HashSet;
use std::fmt::Write;

use crate::term::{Sort, SortId, TermId, TermKind, TermStore};

/// A sink that counts bytes written without storing them. Feeding it to
/// [`write_smtlib`] computes the query-size metric in O(1) memory instead of
/// materializing the full SMT-LIB string.
#[derive(Default)]
pub struct ByteCounter {
    bytes: usize,
}

impl ByteCounter {
    pub fn new() -> ByteCounter {
        ByteCounter::default()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes += s.len();
        Ok(())
    }
}

/// Render `asserted` as an SMT-LIB 2 script (declarations + assertions).
pub fn print_smtlib(store: &TermStore, asserted: &[TermId]) -> String {
    let mut out = String::new();
    write_smtlib(store, asserted, &mut out).expect("String sink never fails");
    out
}

/// Size in bytes of the SMT-LIB rendering of `asserted`, computed with a
/// streaming [`ByteCounter`] sink (no intermediate string).
pub fn query_size_bytes(store: &TermStore, asserted: &[TermId]) -> usize {
    let mut sink = ByteCounter::new();
    write_smtlib(store, asserted, &mut sink).expect("ByteCounter never fails");
    sink.bytes()
}

/// Stream the SMT-LIB 2 script for `asserted` into any [`fmt::Write`] sink.
pub fn write_smtlib<W: Write>(
    store: &TermStore,
    asserted: &[TermId],
    out: &mut W,
) -> std::fmt::Result {
    out.write_str("(set-logic ALL)\n")?;
    let mut seen_terms = HashSet::default();
    let mut decl_sorts: Vec<SortId> = Vec::new();
    let mut decl_vars: Vec<TermId> = Vec::new();
    let mut decl_funcs: Vec<crate::term::FuncId> = Vec::new();
    for &t in asserted {
        collect(
            store,
            t,
            &mut seen_terms,
            &mut decl_sorts,
            &mut decl_vars,
            &mut decl_funcs,
        );
    }
    for s in decl_sorts {
        if let Sort::Uninterp(sym) = store.sort_data(s) {
            writeln!(out, "(declare-sort {} 0)", store.sym_name(*sym))?;
        }
    }
    for v in decl_vars {
        if let TermKind::Var(sym, sort) = store.kind(v) {
            writeln!(
                out,
                "(declare-const {} {})",
                store.sym_name(*sym),
                sort_name(store, *sort)
            )?;
        }
    }
    for f in decl_funcs {
        let decl = store.func(f);
        let args: Vec<String> = decl.args.iter().map(|&s| sort_name(store, s)).collect();
        writeln!(
            out,
            "(declare-fun {} ({}) {})",
            store.sym_name(decl.name),
            args.join(" "),
            sort_name(store, decl.ret)
        )?;
    }
    for &t in asserted {
        writeln!(out, "(assert {})", store.display(t))?;
    }
    out.write_str("(check-sat)\n")
}

fn sort_name(store: &TermStore, s: SortId) -> String {
    match store.sort_data(s) {
        Sort::Bool => "Bool".into(),
        Sort::Int => "Int".into(),
        Sort::BitVec(w) => format!("(_ BitVec {w})"),
        Sort::Uninterp(sym) => store.sym_name(*sym).into(),
        Sort::Datatype(dt) => store.sym_name(store.datatype(*dt).name).into(),
    }
}

fn collect(
    store: &TermStore,
    t: TermId,
    seen: &mut HashSet<TermId>,
    sorts: &mut Vec<SortId>,
    vars: &mut Vec<TermId>,
    funcs: &mut Vec<crate::term::FuncId>,
) {
    if !seen.insert(t) {
        return;
    }
    let sort = store.sort_of(t);
    if matches!(store.sort_data(sort), Sort::Uninterp(_)) && !sorts.contains(&sort) {
        sorts.push(sort);
    }
    match store.kind(t) {
        TermKind::Var(..) if !vars.contains(&t) => {
            vars.push(t);
        }
        TermKind::App(f, _) if !funcs.contains(f) => {
            funcs.push(*f);
        }
        _ => {}
    }
    for c in store.children(t) {
        collect(store, c, seen, sorts, vars, funcs);
    }
    if let TermKind::Quantifier(q) = store.kind(t) {
        for grp in &q.triggers {
            for &p in grp {
                collect(store, p, seen, sorts, vars, funcs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_declarations_and_asserts() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let x = s.mk_var("x", int);
        let f = s.declare_fun("f", vec![int], int);
        let fx = s.mk_app(f, vec![x]);
        let zero = s.mk_int(0);
        let le = s.mk_le(fx, zero);
        let text = print_smtlib(&s, &[le]);
        assert!(text.contains("(declare-const x Int)"));
        assert!(text.contains("(declare-fun f (Int) Int)"));
        assert!(text.contains("(assert"));
        assert!(text.contains("(check-sat)"));
    }

    #[test]
    fn query_size_grows_with_assertions() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let mut asserted = Vec::new();
        for i in 0..10 {
            let x = s.mk_var(&format!("x{i}"), int);
            let zero = s.mk_int(0);
            asserted.push(s.mk_le(zero, x));
        }
        let small = print_smtlib(&s, &asserted[..2]).len();
        let big = print_smtlib(&s, &asserted).len();
        assert!(big > small);
    }

    #[test]
    fn streaming_count_matches_materialized_length() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let x = s.mk_var("x", int);
        let f = s.declare_fun("f", vec![int], int);
        let fx = s.mk_app(f, vec![x]);
        let zero = s.mk_int(0);
        let le = s.mk_le(fx, zero);
        let ge = s.mk_le(zero, fx);
        let asserted = [le, ge];
        assert_eq!(
            query_size_bytes(&s, &asserted),
            print_smtlib(&s, &asserted).len()
        );
        assert_eq!(query_size_bytes(&s, &[]), print_smtlib(&s, &[]).len());
    }
}
