//! Quantifier instantiation: trigger inference and e-matching.
//!
//! Two trigger-selection policies model the design axis the paper's §3.1
//! describes: [`TriggerPolicy::Minimal`] (Verus-style — as few triggers as
//! possible, better scaling) and [`TriggerPolicy::Broad`] (Dafny-style —
//! every candidate subterm, more instantiations, more solver work).

use crate::fxhash::{HashMap, HashSet};

use crate::term::{Quant, SortId, TermId, TermKind, TermStore};

/// Trigger-selection policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriggerPolicy {
    /// Fewest trigger groups that cover all bound variables.
    Minimal,
    /// Every covering candidate becomes its own trigger group.
    Broad,
}

/// Collect candidate trigger subterms of `body`: applications (and other
/// matchable shapes) that mention at least one bound variable and are not
/// themselves a bare bound variable.
fn candidates(store: &TermStore, body: TermId, out: &mut Vec<TermId>) {
    let mut seen: HashSet<TermId> = HashSet::default();
    candidates_rec(store, body, out, &mut seen);
}

fn candidates_rec(
    store: &TermStore,
    body: TermId,
    out: &mut Vec<TermId>,
    seen: &mut HashSet<TermId>,
) {
    let matchable = matches!(
        store.kind(body),
        TermKind::App(..)
            | TermKind::DtSel(..)
            | TermKind::DtCtor(..)
            | TermKind::DtTest(..)
            | TermKind::IntDiv(..)
            | TermKind::IntMod(..)
    );
    if matchable && store.has_bound_var(body) && seen.insert(body) {
        out.push(body);
    }
    for c in store.children(body) {
        candidates_rec(store, c, out, seen);
    }
}

fn bound_vars_of(store: &TermStore, t: TermId, acc: &mut Vec<u32>) {
    let mut seen: HashSet<u32> = acc.iter().copied().collect();
    bound_vars_rec(store, t, acc, &mut seen);
}

fn bound_vars_rec(store: &TermStore, t: TermId, acc: &mut Vec<u32>, seen: &mut HashSet<u32>) {
    if let TermKind::Bound(bv) = store.kind(t) {
        if seen.insert(bv.index) {
            acc.push(bv.index);
        }
    }
    for c in store.children(t) {
        bound_vars_rec(store, c, acc, seen);
    }
}

fn term_size(store: &TermStore, t: TermId) -> usize {
    1 + store
        .children(t)
        .into_iter()
        .map(|c| term_size(store, c))
        .sum::<usize>()
}

/// Outcome of trigger inference, with the fallback made explicit.
#[derive(Clone, Debug)]
pub struct InferredTriggers {
    pub groups: Vec<Vec<TermId>>,
    /// No covering candidate existed (every bound-variable occurrence sits
    /// under interpreted ops), so the whole quantifier body was used as the
    /// trigger of last resort. Such a trigger has no matchable head, so the
    /// quantifier stays un-instantiable — but the condition is now a defined,
    /// observable outcome callers can warn about instead of a silent empty
    /// trigger set.
    pub whole_body_fallback: bool,
}

/// Infer trigger groups for a quantifier over `vars` with the given body.
///
/// Every returned group covers all bound variables. When no covering set
/// exists the whole body becomes the single trigger group and
/// [`InferredTriggers::whole_body_fallback`] is set.
pub fn infer_triggers_detailed(
    store: &TermStore,
    vars: &[(u32, SortId)],
    body: TermId,
    policy: TriggerPolicy,
) -> InferredTriggers {
    let mut cands = Vec::new();
    candidates(store, body, &mut cands);
    // Drop candidates that are strictly contained in another candidate with
    // the same variable coverage? Keep simple: no.
    let var_set: Vec<u32> = vars.iter().map(|&(i, _)| i).collect();
    let covers = |t: TermId| -> Vec<u32> {
        let mut vs = Vec::new();
        bound_vars_of(store, t, &mut vs);
        vs.retain(|v| var_set.contains(v));
        vs
    };
    let full: Vec<TermId> = cands
        .iter()
        .copied()
        .filter(|&t| covers(t).len() == var_set.len())
        .collect();
    let groups = match policy {
        TriggerPolicy::Broad => {
            let mut groups: Vec<Vec<TermId>> = full.iter().map(|&t| vec![t]).collect();
            if groups.is_empty() {
                if let Some(g) = cover_greedy(store, &cands, &var_set, &covers) {
                    groups.push(g);
                }
            }
            groups
        }
        TriggerPolicy::Minimal => {
            if let Some(&best) = full.iter().min_by_key(|&&t| (term_size(store, t), t.0)) {
                vec![vec![best]]
            } else if let Some(g) = cover_greedy(store, &cands, &var_set, &covers) {
                vec![g]
            } else {
                vec![]
            }
        }
    };
    if groups.is_empty() {
        InferredTriggers {
            groups: vec![vec![body]],
            whole_body_fallback: true,
        }
    } else {
        InferredTriggers {
            groups,
            whole_body_fallback: false,
        }
    }
}

/// Trigger groups only (see [`infer_triggers_detailed`] for the fallback
/// flag).
pub fn infer_triggers(
    store: &TermStore,
    vars: &[(u32, SortId)],
    body: TermId,
    policy: TriggerPolicy,
) -> Vec<Vec<TermId>> {
    infer_triggers_detailed(store, vars, body, policy).groups
}

/// Greedy multi-pattern cover: pick candidates until all vars are covered.
fn cover_greedy(
    store: &TermStore,
    cands: &[TermId],
    var_set: &[u32],
    covers: &dyn Fn(TermId) -> Vec<u32>,
) -> Option<Vec<TermId>> {
    let mut remaining: Vec<u32> = var_set.to_vec();
    let mut group = Vec::new();
    while !remaining.is_empty() {
        let best = cands
            .iter()
            .copied()
            .filter(|&t| !group.contains(&t))
            .max_by_key(|&t| {
                let cov = covers(t);
                let gain = cov.iter().filter(|v| remaining.contains(v)).count();
                (gain, usize::MAX - term_size(store, t))
            })?;
        let cov = covers(best);
        let gain = cov.iter().filter(|v| remaining.contains(v)).count();
        if gain == 0 {
            return None;
        }
        remaining.retain(|v| !cov.contains(v));
        group.push(best);
    }
    Some(group)
}

/// Equivalence classes over ground terms (from equalities true in the
/// current boolean model). E-matching descends *modulo* these classes, the
/// key to proofs that rewrite through definitional equalities (e.g.
/// `index(view(l), i)` matching `index(concat(a, b), j)` once
/// `view(l) = concat(...)` is known).
#[derive(Default)]
pub struct ClassIndex {
    parent: HashMap<TermId, TermId>,
    members: HashMap<TermId, Vec<TermId>>,
}

impl ClassIndex {
    pub fn new() -> ClassIndex {
        ClassIndex::default()
    }

    pub fn find(&self, mut t: TermId) -> TermId {
        while let Some(&p) = self.parent.get(&t) {
            if p == t {
                break;
            }
            t = p;
        }
        t
    }

    pub fn union(&mut self, a: TermId, b: TermId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.parent.insert(ra, rb);
        self.parent.entry(rb).or_insert(rb);
        let ma = self.members.remove(&ra).unwrap_or_else(|| vec![ra]);
        let mb = self.members.entry(rb).or_insert_with(|| vec![rb]);
        for t in ma {
            if !mb.contains(&t) {
                mb.push(t);
            }
        }
    }

    /// Members of `t`'s class (always contains `t` itself).
    pub fn members_of(&self, t: TermId) -> Vec<TermId> {
        let r = self.find(t);
        match self.members.get(&r) {
            Some(m) => {
                let mut v = m.clone();
                if !v.contains(&t) {
                    v.push(t);
                }
                v
            }
            None => vec![t],
        }
    }
}

/// Cap on how many class members are tried per pattern position.
const CLASS_FANOUT: usize = 8;

/// Pattern match of `pat` (may contain bound vars) against ground term
/// `ground`, modulo `classes`, extending `binding`.
pub fn match_pattern(
    store: &TermStore,
    classes: &ClassIndex,
    pat: TermId,
    ground: TermId,
    binding: &mut Vec<(u32, TermId)>,
) -> bool {
    if let TermKind::Bound(bv) = store.kind(pat) {
        if store.sort_of(ground) != bv.sort {
            return false;
        }
        return match binding.iter().find(|&&(i, _)| i == bv.index) {
            Some(&(_, t)) => t == ground || classes.find(t) == classes.find(ground),
            None => {
                binding.push((bv.index, ground));
                true
            }
        };
    }
    // Try the ground term itself first, then other members of its class.
    let save = binding.len();
    if match_pattern_syntactic(store, classes, pat, ground, binding) {
        return true;
    }
    binding.truncate(save);
    for (i, m) in classes.members_of(ground).into_iter().enumerate() {
        if i > CLASS_FANOUT {
            break;
        }
        if m == ground {
            continue;
        }
        if match_pattern_syntactic(store, classes, pat, m, binding) {
            return true;
        }
        binding.truncate(save);
    }
    false
}

fn match_pattern_syntactic(
    store: &TermStore,
    classes: &ClassIndex,
    pat: TermId,
    ground: TermId,
    binding: &mut Vec<(u32, TermId)>,
) -> bool {
    match store.kind(pat) {
        TermKind::Bound(_) => match_pattern(store, classes, pat, ground, binding),
        TermKind::App(f, args) => match store.kind(ground) {
            TermKind::App(g, gargs) if f == g && args.len() == gargs.len() => {
                let (args, gargs) = (args.clone(), gargs.clone());
                args.iter()
                    .zip(gargs.iter())
                    .all(|(&p, &g)| match_pattern(store, classes, p, g, binding))
            }
            _ => false,
        },
        TermKind::DtSel(dt, c, f, a) => match store.kind(ground) {
            TermKind::DtSel(dt2, c2, f2, a2) if dt == dt2 && c == c2 && f == f2 => {
                let (a, a2) = (*a, *a2);
                match_pattern(store, classes, a, a2, binding)
            }
            _ => false,
        },
        TermKind::DtCtor(dt, c, args) => match store.kind(ground) {
            TermKind::DtCtor(dt2, c2, gargs) if dt == dt2 && c == c2 => {
                let (args, gargs) = (args.clone(), gargs.clone());
                args.iter()
                    .zip(gargs.iter())
                    .all(|(&p, &g)| match_pattern(store, classes, p, g, binding))
            }
            _ => false,
        },
        TermKind::DtTest(dt, c, a) => match store.kind(ground) {
            TermKind::DtTest(dt2, c2, a2) if dt == dt2 && c == c2 => {
                let (a, a2) = (*a, *a2);
                match_pattern(store, classes, a, a2, binding)
            }
            _ => false,
        },
        TermKind::IntDiv(a, b) => match store.kind(ground) {
            TermKind::IntDiv(c, d) => {
                let (a, b, c, d) = (*a, *b, *c, *d);
                match_pattern(store, classes, a, c, binding)
                    && match_pattern(store, classes, b, d, binding)
            }
            _ => false,
        },
        TermKind::IntMod(a, b) => match store.kind(ground) {
            TermKind::IntMod(c, d) => {
                let (a, b, c, d) = (*a, *b, *c, *d);
                match_pattern(store, classes, a, c, binding)
                    && match_pattern(store, classes, b, d, binding)
            }
            _ => false,
        },
        _ => pat == ground && !store.has_bound_var(pat),
    }
}

/// The head function symbol of a pattern, used to index ground terms.
/// `Ord` so index traversals can be made deterministic (rlimit verdicts
/// must not depend on hash iteration order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PatternHead {
    Func(crate::term::FuncId),
    DtSel(crate::term::DatatypeId, u32, u32),
    DtCtor(crate::term::DatatypeId, u32),
    DtTest(crate::term::DatatypeId, u32),
    IntDiv,
    IntMod,
}

pub fn pattern_head(store: &TermStore, t: TermId) -> Option<PatternHead> {
    match store.kind(t) {
        TermKind::App(f, _) => Some(PatternHead::Func(*f)),
        TermKind::DtSel(dt, c, f, _) => Some(PatternHead::DtSel(*dt, *c, *f)),
        TermKind::DtCtor(dt, c, _) => Some(PatternHead::DtCtor(*dt, *c)),
        TermKind::DtTest(dt, c, _) => Some(PatternHead::DtTest(*dt, *c)),
        TermKind::IntDiv(..) => Some(PatternHead::IntDiv),
        TermKind::IntMod(..) => Some(PatternHead::IntMod),
        _ => None,
    }
}

/// Enumerate all complete bindings of `quant` against the ground term index.
/// `ground_index` maps pattern heads to ground terms with that head.
///
/// Each trigger group folds its patterns left to right: every partial
/// binding is extended against every term in the pattern's ground bucket,
/// and the fold stops once it holds more than `limit` bindings (checked
/// after every ground term, match or not). A pattern with no matchable head
/// or an empty bucket makes the group yield nothing. The group's complete
/// bindings are then canonicalized (sorted by variable index, extras
/// dropped) and appended to the output unless already present; enumeration
/// stops as soon as the output holds `limit + 1` bindings.
pub fn enumerate_matches(
    store: &TermStore,
    classes: &ClassIndex,
    quant: &Quant,
    ground_index: &HashMap<PatternHead, Vec<TermId>>,
    limit: usize,
) -> Vec<Vec<(u32, TermId)>> {
    let mut out: Vec<Vec<(u32, TermId)>> = Vec::new();
    for group in &quant.triggers {
        let mut partial: Vec<Vec<(u32, TermId)>> = vec![vec![]];
        for &pat in group {
            let Some(grounds) = pattern_head(store, pat).and_then(|h| ground_index.get(&h)) else {
                partial.clear();
                break;
            };
            let mut next = Vec::new();
            'fold: for binding in &partial {
                for &g in grounds {
                    let mut b = binding.clone();
                    if match_pattern(store, classes, pat, g, &mut b) {
                        next.push(b);
                    }
                    if next.len() > limit {
                        break 'fold;
                    }
                }
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        for mut b in partial {
            // Only keep complete bindings.
            if quant
                .vars
                .iter()
                .all(|&(i, _)| b.iter().any(|&(j, _)| j == i))
            {
                b.sort_by_key(|&(i, _)| i);
                b.retain(|&(i, _)| quant.vars.iter().any(|&(qi, _)| qi == i));
                if !out.contains(&b) {
                    out.push(b);
                }
            }
            if out.len() > limit {
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_minimal_single_trigger() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let g = s.declare_fun("g", vec![int], int);
        let x = s.mk_bound(0, int);
        let fx = s.mk_app(f, vec![x]);
        let gx = s.mk_app(g, vec![x]);
        let body = s.mk_eq(fx, gx);
        let trig = infer_triggers(&s, &[(0, int)], body, TriggerPolicy::Minimal);
        assert_eq!(trig.len(), 1);
        assert_eq!(trig[0].len(), 1);
    }

    #[test]
    fn infer_broad_many_triggers() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let g = s.declare_fun("g", vec![int], int);
        let x = s.mk_bound(0, int);
        let fx = s.mk_app(f, vec![x]);
        let gx = s.mk_app(g, vec![x]);
        let body = s.mk_eq(fx, gx);
        let trig = infer_triggers(&s, &[(0, int)], body, TriggerPolicy::Broad);
        assert!(
            trig.len() >= 2,
            "broad policy keeps all candidates: {trig:?}"
        );
    }

    #[test]
    fn infer_multipattern_when_needed() {
        // forall x, y. f(x) <= g(y): no single app covers both vars.
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let g = s.declare_fun("g", vec![int], int);
        let x = s.mk_bound(0, int);
        let y = s.mk_bound(1, int);
        let fx = s.mk_app(f, vec![x]);
        let gy = s.mk_app(g, vec![y]);
        let body = s.mk_le(fx, gy);
        let trig = infer_triggers(&s, &[(0, int), (1, int)], body, TriggerPolicy::Minimal);
        assert_eq!(trig.len(), 1);
        assert_eq!(trig[0].len(), 2);
    }

    #[test]
    fn infer_fallback_whole_body_when_no_candidate() {
        // forall x. x + 1 > 0: the only occurrence of x is under an
        // interpreted op, so there is no app candidate. The fallback must
        // return the whole body as the trigger and set the flag.
        let mut s = TermStore::new();
        let int = s.int_sort();
        let x = s.mk_bound(0, int);
        let one = s.mk_int(1);
        let zero = s.mk_int(0);
        let x1 = s.mk_add(vec![x, one]);
        let body = s.mk_gt(x1, zero);
        for policy in [TriggerPolicy::Minimal, TriggerPolicy::Broad] {
            let inf = infer_triggers_detailed(&s, &[(0, int)], body, policy);
            assert!(inf.whole_body_fallback, "{policy:?}");
            assert_eq!(inf.groups, vec![vec![body]], "{policy:?}");
            // The legacy entry point agrees with the detailed one.
            assert_eq!(infer_triggers(&s, &[(0, int)], body, policy), inf.groups);
        }
        // The fallback trigger has no matchable head, so e-matching still
        // produces no instantiations — but the outcome is defined.
        assert_eq!(pattern_head(&s, body), None);
    }

    #[test]
    fn infer_no_fallback_when_candidates_cover() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let x = s.mk_bound(0, int);
        let fx = s.mk_app(f, vec![x]);
        let zero = s.mk_int(0);
        let body = s.mk_ge(fx, zero);
        let inf = infer_triggers_detailed(&s, &[(0, int)], body, TriggerPolicy::Minimal);
        assert!(!inf.whole_body_fallback);
        assert_eq!(inf.groups, vec![vec![fx]]);
    }

    #[test]
    fn match_simple_app() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let x = s.mk_bound(0, int);
        let pat = s.mk_app(f, vec![x]);
        let three = s.mk_int(3);
        let f3 = s.mk_app(f, vec![three]);
        let classes = ClassIndex::new();
        let mut binding = Vec::new();
        assert!(match_pattern(&s, &classes, pat, f3, &mut binding));
        assert_eq!(binding, vec![(0, three)]);
    }

    #[test]
    fn match_consistency_required() {
        // f(x, x) should not match f(1, 2).
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int, int], int);
        let x = s.mk_bound(0, int);
        let pat = s.mk_app(f, vec![x, x]);
        let one = s.mk_int(1);
        let two = s.mk_int(2);
        let f12 = s.mk_app(f, vec![one, two]);
        let f11 = s.mk_app(f, vec![one, one]);
        let classes = ClassIndex::new();
        let mut b = Vec::new();
        assert!(!match_pattern(&s, &classes, pat, f12, &mut b));
        let mut b = Vec::new();
        assert!(match_pattern(&s, &classes, pat, f11, &mut b));
    }

    #[test]
    fn enumerate_with_index() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let x = s.mk_bound(0, int);
        let fx = s.mk_app(f, vec![x]);
        let zero = s.mk_int(0);
        let body = s.mk_le(fx, zero);
        let q = Quant {
            is_forall: true,
            vars: vec![(0, int)],
            triggers: vec![vec![fx]],
            body,
            qid: s.sym("q"),
        };
        let one = s.mk_int(1);
        let two = s.mk_int(2);
        let f1 = s.mk_app(f, vec![one]);
        let f2 = s.mk_app(f, vec![two]);
        let mut index = HashMap::default();
        index.insert(PatternHead::Func(f), vec![f1, f2]);
        let ms = enumerate_matches(&s, &ClassIndex::new(), &q, &index, 100);
        assert_eq!(ms.len(), 2);
    }

    /// A quantifier over `vars` whose one trigger is `pat`; matching never
    /// reads the body.
    fn quant_on(s: &mut TermStore, vars: Vec<(u32, SortId)>, pat: TermId) -> Quant {
        let body = s.mk_eq(pat, pat);
        Quant {
            is_forall: true,
            vars,
            triggers: vec![vec![pat]],
            body,
            qid: s.sym("q"),
        }
    }

    #[test]
    fn enumerate_matches_through_class_member() {
        // f(g(x)) against f(c): the argument c is not a g-application, so
        // the match goes through c's class member g(d) and binds x = d.
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let g = s.declare_fun("g", vec![int], int);
        let x = s.mk_bound(0, int);
        let gx = s.mk_app(g, vec![x]);
        let pat = s.mk_app(f, vec![gx]);
        let q = quant_on(&mut s, vec![(0, int)], pat);
        let c = s.mk_var("c", int);
        let d = s.mk_var("d", int);
        let gd = s.mk_app(g, vec![d]);
        let fc = s.mk_app(f, vec![c]);
        let mut index = HashMap::default();
        index.insert(PatternHead::Func(f), vec![fc]);
        let none = enumerate_matches(&s, &ClassIndex::new(), &q, &index, 100);
        assert!(none.is_empty(), "no match without the class: {none:?}");
        let mut classes = ClassIndex::new();
        classes.union(gd, c);
        let ms = enumerate_matches(&s, &classes, &q, &index, 100);
        assert_eq!(ms, vec![vec![(0, d)]]);
    }

    #[test]
    fn enumerate_matches_repeated_variable_modulo_classes() {
        // h(x, x) against h(a, b) matches only once a ~ b, binding x to the
        // first occurrence.
        let mut s = TermStore::new();
        let int = s.int_sort();
        let h = s.declare_fun("h", vec![int, int], int);
        let x = s.mk_bound(0, int);
        let pat = s.mk_app(h, vec![x, x]);
        let q = quant_on(&mut s, vec![(0, int)], pat);
        let a = s.mk_var("a", int);
        let b = s.mk_var("b", int);
        let hab = s.mk_app(h, vec![a, b]);
        let mut index = HashMap::default();
        index.insert(PatternHead::Func(h), vec![hab]);
        assert!(enumerate_matches(&s, &ClassIndex::new(), &q, &index, 100).is_empty());
        let mut classes = ClassIndex::new();
        classes.union(a, b);
        let ms = enumerate_matches(&s, &classes, &q, &index, 100);
        assert_eq!(ms, vec![vec![(0, a)]]);
    }

    #[test]
    fn class_member_fanout_is_capped() {
        // f(g(x)) against f(c), where c's class lists c first, then `pad`
        // plain constants, then g(d). Members past position CLASS_FANOUT
        // are never tried.
        let match_with_padding = |pad: usize| {
            let mut s = TermStore::new();
            let int = s.int_sort();
            let f = s.declare_fun("f", vec![int], int);
            let g = s.declare_fun("g", vec![int], int);
            let x = s.mk_bound(0, int);
            let gx = s.mk_app(g, vec![x]);
            let pat = s.mk_app(f, vec![gx]);
            let q = quant_on(&mut s, vec![(0, int)], pat);
            let c = s.mk_var("c", int);
            let fc = s.mk_app(f, vec![c]);
            let mut classes = ClassIndex::new();
            for i in 0..pad {
                let k = s.mk_var(&format!("k{i}"), int);
                classes.union(k, c);
            }
            let d = s.mk_var("d", int);
            let gd = s.mk_app(g, vec![d]);
            classes.union(gd, c);
            assert_eq!(
                classes.members_of(c).iter().position(|&m| m == gd),
                Some(pad + 1)
            );
            let mut index = HashMap::default();
            index.insert(PatternHead::Func(f), vec![fc]);
            enumerate_matches(&s, &classes, &q, &index, 100).len()
        };
        assert_eq!(match_with_padding(CLASS_FANOUT - 1), 1, "last member tried");
        assert_eq!(match_with_padding(CLASS_FANOUT), 0, "first member cut off");
    }

    #[test]
    fn enumerate_matches_stops_at_limit_plus_one() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int], int);
        let x = s.mk_bound(0, int);
        let pat = s.mk_app(f, vec![x]);
        let q = quant_on(&mut s, vec![(0, int)], pat);
        let grounds: Vec<TermId> = (0..10)
            .map(|i| {
                let n = s.mk_int(i);
                s.mk_app(f, vec![n])
            })
            .collect();
        let mut index = HashMap::default();
        index.insert(PatternHead::Func(f), grounds.clone());
        for limit in [0, 3, 9] {
            let ms = enumerate_matches(&s, &ClassIndex::new(), &q, &index, limit);
            assert_eq!(ms.len(), limit + 1, "limit {limit}");
            // The bindings are the first limit + 1 ground terms, in order.
            for (b, &g) in ms.iter().zip(&grounds) {
                let TermKind::App(_, args) = s.kind(g) else {
                    unreachable!()
                };
                assert_eq!(b, &vec![(0, args[0])]);
            }
        }
        let all = enumerate_matches(&s, &ClassIndex::new(), &q, &index, 10);
        assert_eq!(all.len(), 10, "no break below the limit");
    }
}
