//! Hash-consed term representation.
//!
//! All terms live in a [`TermStore`] and are referred to by [`TermId`].
//! Construction canonicalizes aggressively:
//!
//! - boolean connectives are flattened and constant-folded;
//! - integer-sorted terms are kept in a *linear normal form*
//!   ([`TermKind::Linear`]): an integer constant plus a sorted list of
//!   `coefficient * atom` monomials, where atoms are opaque (variables,
//!   applications, non-linear products, `div`/`mod` terms);
//! - comparisons are normalized to `t <= 0` with gcd-reduced coefficients.
//!
//! Canonicalization means syntactic equality subsumes a great deal of
//! rewriting, which both shrinks queries and reduces the need for
//! theory-combination reasoning downstream.

use crate::fxhash::HashMap;
use std::fmt;

/// Interned symbol (function, variable, or sort name).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Symbol(pub u32);

/// Identifier of an interned term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

/// Identifier of an interned sort.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SortId(pub u32);

/// Identifier of a declared datatype.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DatatypeId(pub u32);

/// SMT sorts.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    Bool,
    Int,
    BitVec(u32),
    /// A free (uninterpreted) sort.
    Uninterp(Symbol),
    /// An algebraic datatype declared in the store.
    Datatype(DatatypeId),
}

/// One constructor of a datatype: name plus field sorts.
#[derive(Clone, Debug)]
pub struct Constructor {
    pub name: Symbol,
    pub fields: Vec<(Symbol, SortId)>,
}

/// A declared algebraic datatype.
#[derive(Clone, Debug)]
pub struct Datatype {
    pub name: Symbol,
    pub constructors: Vec<Constructor>,
}

/// A declared function symbol.
#[derive(Clone, Debug)]
pub struct FuncDecl {
    pub name: Symbol,
    pub args: Vec<SortId>,
    pub ret: SortId,
}

/// Identifier of a declared function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncId(pub u32);

/// A bound variable occurring inside a quantifier body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BoundVar {
    /// De Bruijn-free: bound vars are globally numbered within their quantifier.
    pub index: u32,
    pub sort: SortId,
}

/// Quantifier data.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Quant {
    pub is_forall: bool,
    /// Bound variables: `(index, sort)` pairs. Indices are globally unique
    /// across nested quantifiers (allocated via
    /// [`TermStore::fresh_bound_index`]), so substitution never captures.
    pub vars: Vec<(u32, SortId)>,
    /// Trigger groups: each inner vec is a multi-pattern.
    pub triggers: Vec<Vec<TermId>>,
    pub body: TermId,
    /// Name used in diagnostics and instantiation statistics.
    pub qid: Symbol,
}

/// Term structure. Construct via the `mk_*` methods on [`TermStore`], which
/// hash-cons and canonicalize; never build these directly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermKind {
    BoolConst(bool),
    /// Canonical integer literal (only as a standalone constant; inside
    /// sums it is the `konst` of [`TermKind::Linear`]).
    IntConst(i128),
    BvConst {
        width: u32,
        value: u64,
    },
    /// Free constant (0-ary) of the given sort.
    Var(Symbol, SortId),
    /// Bound variable (only valid under a quantifier).
    Bound(BoundVar),
    /// Uninterpreted function application.
    App(FuncId, Vec<TermId>),
    Not(TermId),
    And(Vec<TermId>),
    Or(Vec<TermId>),
    Implies(TermId, TermId),
    /// Polymorphic equality; for Bool this is iff.
    Eq(TermId, TermId),
    Ite(TermId, TermId, TermId),
    /// Linear normal form: `konst + sum(coeff * atom)`. Atoms are sorted by
    /// id, have nonzero coefficients, and are themselves non-Linear,
    /// non-IntConst integer terms.
    Linear {
        konst: i128,
        monomials: Vec<(i128, TermId)>,
    },
    /// Non-linear product of two or more opaque atoms (sorted by id).
    NlMul(Vec<TermId>),
    /// Euclidean division (SMT-LIB `div` semantics).
    IntDiv(TermId, TermId),
    /// Euclidean remainder (SMT-LIB `mod` semantics; result in `[0, |d|)`).
    IntMod(TermId, TermId),
    /// `arg <= 0` (canonical comparison form).
    Le0(TermId),
    Quantifier(Quant),
    /// Datatype constructor application.
    DtCtor(DatatypeId, u32, Vec<TermId>),
    /// Datatype field selector: `(sel dt ctor_idx field_idx arg)`.
    DtSel(DatatypeId, u32, u32, TermId),
    /// Datatype tester: is `arg` built with constructor `ctor_idx`?
    DtTest(DatatypeId, u32, TermId),
    // Bit-vector operations (handled by bit-blasting).
    BvAnd(TermId, TermId),
    BvOr(TermId, TermId),
    BvXor(TermId, TermId),
    BvAdd(TermId, TermId),
    BvSub(TermId, TermId),
    BvMul(TermId, TermId),
    BvUdiv(TermId, TermId),
    BvUrem(TermId, TermId),
    BvShl(TermId, TermId),
    BvLshr(TermId, TermId),
    BvUle(TermId, TermId),
    BvUlt(TermId, TermId),
}

/// Hash-consing term store plus symbol/sort/function tables.
#[derive(Clone)]
pub struct TermStore {
    terms: Vec<TermKind>,
    sorts_of: Vec<SortId>,
    term_map: HashMap<TermKind, TermId>,
    sorts: Vec<Sort>,
    sort_map: HashMap<Sort, SortId>,
    symbols: Vec<String>,
    symbol_map: HashMap<String, Symbol>,
    funcs: Vec<FuncDecl>,
    func_map: HashMap<Symbol, FuncId>,
    datatypes: Vec<Datatype>,
    fresh_counter: u32,
}

impl Default for TermStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TermStore {
    pub fn new() -> Self {
        let mut s = TermStore {
            terms: Vec::new(),
            sorts_of: Vec::new(),
            term_map: HashMap::default(),
            sorts: Vec::new(),
            sort_map: HashMap::default(),
            symbols: Vec::new(),
            symbol_map: HashMap::default(),
            funcs: Vec::new(),
            func_map: HashMap::default(),
            datatypes: Vec::new(),
            fresh_counter: 0,
        };
        // Pre-intern the common sorts so `bool_sort()`/`int_sort()` are cheap.
        let _ = s.sort(Sort::Bool);
        let _ = s.sort(Sort::Int);
        s
    }

    // ------------------------------------------------------------------
    // Symbols, sorts, functions, datatypes
    // ------------------------------------------------------------------

    pub fn sym(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.symbol_map.get(name) {
            return s;
        }
        let s = Symbol(self.symbols.len() as u32);
        self.symbols.push(name.to_owned());
        self.symbol_map.insert(name.to_owned(), s);
        s
    }

    pub fn sym_name(&self, s: Symbol) -> &str {
        &self.symbols[s.0 as usize]
    }

    /// Allocate a globally fresh bound-variable index.
    pub fn fresh_bound_index(&mut self) -> u32 {
        self.fresh_counter += 1;
        // Bound indices share the fresh counter; offset to keep them large
        // and visibly distinct from hand-allocated small indices.
        self.fresh_counter + 1_000_000
    }

    /// Create a globally fresh symbol with the given prefix.
    pub fn fresh_sym(&mut self, prefix: &str) -> Symbol {
        self.fresh_counter += 1;
        let name = format!("{}!{}", prefix, self.fresh_counter);
        self.sym(&name)
    }

    pub fn sort(&mut self, s: Sort) -> SortId {
        if let Some(&id) = self.sort_map.get(&s) {
            return id;
        }
        let id = SortId(self.sorts.len() as u32);
        self.sorts.push(s.clone());
        self.sort_map.insert(s, id);
        id
    }

    pub fn sort_data(&self, id: SortId) -> &Sort {
        &self.sorts[id.0 as usize]
    }

    pub fn bool_sort(&self) -> SortId {
        SortId(0)
    }

    pub fn int_sort(&self) -> SortId {
        SortId(1)
    }

    pub fn bv_sort(&mut self, width: u32) -> SortId {
        self.sort(Sort::BitVec(width))
    }

    pub fn uninterp_sort(&mut self, name: &str) -> SortId {
        let sym = self.sym(name);
        self.sort(Sort::Uninterp(sym))
    }

    pub fn declare_fun(&mut self, name: &str, args: Vec<SortId>, ret: SortId) -> FuncId {
        let sym = self.sym(name);
        if let Some(&f) = self.func_map.get(&sym) {
            debug_assert_eq!(self.funcs[f.0 as usize].args, args, "redeclared {name}");
            return f;
        }
        let f = FuncId(self.funcs.len() as u32);
        self.funcs.push(FuncDecl {
            name: sym,
            args,
            ret,
        });
        self.func_map.insert(sym, f);
        f
    }

    pub fn func(&self, f: FuncId) -> &FuncDecl {
        &self.funcs[f.0 as usize]
    }

    pub fn declare_datatype(
        &mut self,
        name: &str,
        ctors: Vec<(String, Vec<(String, SortId)>)>,
    ) -> DatatypeId {
        let name_sym = self.sym(name);
        let constructors = ctors
            .into_iter()
            .map(|(cn, fields)| {
                let cname = self.sym(&cn);
                let fields = fields
                    .into_iter()
                    .map(|(fname, fsort)| (self.sym(&fname), fsort))
                    .collect();
                Constructor {
                    name: cname,
                    fields,
                }
            })
            .collect();
        let id = DatatypeId(self.datatypes.len() as u32);
        self.datatypes.push(Datatype {
            name: name_sym,
            constructors,
        });
        // Also register the sort.
        let _ = self.sort(Sort::Datatype(id));
        id
    }

    /// Declare a datatype in two phases to allow recursion: reserve the
    /// name/sort first, then fill in the constructors (whose field sorts may
    /// reference the datatype's own sort).
    pub fn declare_datatype_deferred(&mut self, name: &str) -> DatatypeId {
        let name_sym = self.sym(name);
        let id = DatatypeId(self.datatypes.len() as u32);
        self.datatypes.push(Datatype {
            name: name_sym,
            constructors: Vec::new(),
        });
        let _ = self.sort(Sort::Datatype(id));
        id
    }

    /// Fill in the constructors of a deferred datatype declaration.
    ///
    /// # Panics
    /// Panics if the datatype already has constructors.
    pub fn set_datatype_ctors(
        &mut self,
        id: DatatypeId,
        ctors: Vec<(String, Vec<(String, SortId)>)>,
    ) {
        assert!(
            self.datatypes[id.0 as usize].constructors.is_empty(),
            "datatype constructors already set"
        );
        let constructors = ctors
            .into_iter()
            .map(|(cn, fields)| {
                let cname = self.sym(&cn);
                let fields = fields
                    .into_iter()
                    .map(|(fname, fsort)| (self.sym(&fname), fsort))
                    .collect();
                Constructor {
                    name: cname,
                    fields,
                }
            })
            .collect();
        self.datatypes[id.0 as usize].constructors = constructors;
    }

    pub fn datatype(&self, id: DatatypeId) -> &Datatype {
        &self.datatypes[id.0 as usize]
    }

    pub fn datatype_sort(&mut self, id: DatatypeId) -> SortId {
        self.sort(Sort::Datatype(id))
    }

    // ------------------------------------------------------------------
    // Core interning
    // ------------------------------------------------------------------

    fn intern(&mut self, kind: TermKind, sort: SortId) -> TermId {
        if let Some(&id) = self.term_map.get(&kind) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(kind.clone());
        self.sorts_of.push(sort);
        self.term_map.insert(kind, id);
        id
    }

    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.terms[t.0 as usize]
    }

    pub fn sort_of(&self, t: TermId) -> SortId {
        self.sorts_of[t.0 as usize]
    }

    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    // ------------------------------------------------------------------
    // Leaf constructors
    // ------------------------------------------------------------------

    pub fn mk_bool(&mut self, b: bool) -> TermId {
        self.intern(TermKind::BoolConst(b), self.bool_sort())
    }

    pub fn mk_true(&mut self) -> TermId {
        self.mk_bool(true)
    }

    pub fn mk_false(&mut self) -> TermId {
        self.mk_bool(false)
    }

    pub fn mk_int(&mut self, v: i128) -> TermId {
        self.intern(TermKind::IntConst(v), self.int_sort())
    }

    pub fn mk_bv_const(&mut self, width: u32, value: u64) -> TermId {
        let value = mask_to_width(value, width);
        let sort = self.bv_sort(width);
        self.intern(TermKind::BvConst { width, value }, sort)
    }

    pub fn mk_var(&mut self, name: &str, sort: SortId) -> TermId {
        let sym = self.sym(name);
        self.intern(TermKind::Var(sym, sort), sort)
    }

    pub fn mk_fresh_var(&mut self, prefix: &str, sort: SortId) -> TermId {
        let sym = self.fresh_sym(prefix);
        self.intern(TermKind::Var(sym, sort), sort)
    }

    pub fn mk_bound(&mut self, index: u32, sort: SortId) -> TermId {
        self.intern(TermKind::Bound(BoundVar { index, sort }), sort)
    }

    pub fn mk_app(&mut self, f: FuncId, args: Vec<TermId>) -> TermId {
        let decl = &self.funcs[f.0 as usize];
        debug_assert_eq!(decl.args.len(), args.len());
        let ret = decl.ret;
        self.intern(TermKind::App(f, args), ret)
    }

    // ------------------------------------------------------------------
    // Boolean constructors (with folding / flattening)
    // ------------------------------------------------------------------

    pub fn mk_not(&mut self, t: TermId) -> TermId {
        match self.kind(t) {
            TermKind::BoolConst(b) => {
                let b = !*b;
                self.mk_bool(b)
            }
            TermKind::Not(inner) => *inner,
            _ => self.intern(TermKind::Not(t), self.bool_sort()),
        }
    }

    pub fn mk_and(&mut self, parts: Vec<TermId>) -> TermId {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match self.kind(p) {
                TermKind::BoolConst(true) => {}
                TermKind::BoolConst(false) => return self.mk_false(),
                TermKind::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.mk_true(),
            1 => flat[0],
            _ => self.intern(TermKind::And(flat), self.bool_sort()),
        }
    }

    pub fn mk_or(&mut self, parts: Vec<TermId>) -> TermId {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match self.kind(p) {
                TermKind::BoolConst(false) => {}
                TermKind::BoolConst(true) => return self.mk_true(),
                TermKind::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.mk_false(),
            1 => flat[0],
            _ => self.intern(TermKind::Or(flat), self.bool_sort()),
        }
    }

    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.kind(a), self.kind(b)) {
            (TermKind::BoolConst(false), _) => self.mk_true(),
            (TermKind::BoolConst(true), _) => b,
            (_, TermKind::BoolConst(true)) => self.mk_true(),
            (_, TermKind::BoolConst(false)) => self.mk_not(a),
            _ => self.intern(TermKind::Implies(a, b), self.bool_sort()),
        }
    }

    pub fn mk_iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_eq(a, b)
    }

    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.mk_true();
        }
        debug_assert_eq!(
            self.sort_of(a),
            self.sort_of(b),
            "mk_eq sort mismatch: {} vs {}",
            self.display(a),
            self.display(b)
        );
        // Constant folding.
        match (self.kind(a), self.kind(b)) {
            (TermKind::BoolConst(x), TermKind::BoolConst(y)) => {
                let v = x == y;
                return self.mk_bool(v);
            }
            (TermKind::IntConst(x), TermKind::IntConst(y)) => {
                let v = x == y;
                return self.mk_bool(v);
            }
            (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) => {
                let v = x == y;
                return self.mk_bool(v);
            }
            _ => {}
        }
        // Int equality: canonicalize as a - b compared against 0 to merge
        // syntactic variants, but keep the Eq node for EUF.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Eq(a, b), self.bool_sort())
    }

    pub fn mk_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        match self.kind(c) {
            TermKind::BoolConst(true) => return t,
            TermKind::BoolConst(false) => return e,
            _ => {}
        }
        if t == e {
            return t;
        }
        let sort = self.sort_of(t);
        debug_assert_eq!(sort, self.sort_of(e));
        if sort == self.bool_sort() {
            // Encode boolean ite with connectives so tseitin stays simple.
            let n = self.mk_not(c);
            let l = self.mk_implies(c, t);
            let r = self.mk_implies(n, e);
            return self.mk_and(vec![l, r]);
        }
        self.intern(TermKind::Ite(c, t, e), sort)
    }

    // ------------------------------------------------------------------
    // Integer arithmetic (linear normal form)
    // ------------------------------------------------------------------

    /// Decompose an int term into `(konst, monomials)`.
    fn as_linear(&self, t: TermId) -> (i128, Vec<(i128, TermId)>) {
        match self.kind(t) {
            TermKind::IntConst(k) => (*k, vec![]),
            TermKind::Linear { konst, monomials } => (*konst, monomials.clone()),
            _ => (0, vec![(1, t)]),
        }
    }

    fn mk_linear(&mut self, konst: i128, mut monomials: Vec<(i128, TermId)>) -> TermId {
        monomials.sort_by_key(|&(_, t)| t);
        // Merge duplicate atoms.
        let mut merged: Vec<(i128, TermId)> = Vec::with_capacity(monomials.len());
        for (c, t) in monomials {
            if let Some(last) = merged.last_mut() {
                if last.1 == t {
                    last.0 += c;
                    continue;
                }
            }
            merged.push((c, t));
        }
        merged.retain(|&(c, _)| c != 0);
        if merged.is_empty() {
            return self.mk_int(konst);
        }
        if konst == 0 && merged.len() == 1 && merged[0].0 == 1 {
            return merged[0].1;
        }
        self.intern(
            TermKind::Linear {
                konst,
                monomials: merged,
            },
            self.int_sort(),
        )
    }

    pub fn mk_add(&mut self, parts: Vec<TermId>) -> TermId {
        let mut konst: i128 = 0;
        let mut monomials = Vec::new();
        for p in parts {
            let (k, ms) = self.as_linear(p);
            konst += k;
            monomials.extend(ms);
        }
        self.mk_linear(konst, monomials)
    }

    pub fn mk_neg(&mut self, t: TermId) -> TermId {
        let (k, ms) = self.as_linear(t);
        let ms = ms.into_iter().map(|(c, a)| (-c, a)).collect();
        self.mk_linear(-k, ms)
    }

    pub fn mk_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.mk_neg(b);
        self.mk_add(vec![a, nb])
    }

    pub fn mk_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let (ka, ma) = self.as_linear(a);
        let (kb, mb) = self.as_linear(b);
        // (ka + Σ ca*ta) * (kb + Σ cb*tb)
        let mut konst = ka * kb;
        let mut monomials: Vec<(i128, TermId)> = Vec::new();
        for &(ca, ta) in &ma {
            if kb != 0 {
                monomials.push((ca * kb, ta));
            }
        }
        for &(cb, tb) in &mb {
            if ka != 0 {
                monomials.push((cb * ka, tb));
            }
        }
        for &(ca, ta) in &ma {
            for &(cb, tb) in &mb {
                let atom = self.mk_nl_atom(ta, tb);
                match self.kind(atom) {
                    TermKind::IntConst(k) => konst += ca * cb * k,
                    _ => monomials.push((ca * cb, atom)),
                }
            }
        }
        self.mk_linear(konst, monomials)
    }

    /// Multiply two opaque atoms into a canonical non-linear product atom.
    fn mk_nl_atom(&mut self, a: TermId, b: TermId) -> TermId {
        let mut factors = Vec::new();
        for t in [a, b] {
            match self.kind(t) {
                TermKind::NlMul(fs) => factors.extend(fs.iter().copied()),
                _ => factors.push(t),
            }
        }
        factors.sort_unstable();
        self.intern(TermKind::NlMul(factors), self.int_sort())
    }

    pub fn mk_int_div(&mut self, a: TermId, b: TermId) -> TermId {
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            if *y != 0 {
                let v = x.div_euclid(*y);
                return self.mk_int(v);
            }
        }
        self.intern(TermKind::IntDiv(a, b), self.int_sort())
    }

    pub fn mk_int_mod(&mut self, a: TermId, b: TermId) -> TermId {
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            if *y != 0 {
                let v = x.rem_euclid(*y);
                return self.mk_int(v);
            }
        }
        self.intern(TermKind::IntMod(a, b), self.int_sort())
    }

    /// `a <= b`, normalized to `a - b <= 0` with gcd-reduced coefficients.
    pub fn mk_le(&mut self, a: TermId, b: TermId) -> TermId {
        let diff = self.mk_sub(a, b);
        self.mk_le0(diff)
    }

    pub fn mk_lt(&mut self, a: TermId, b: TermId) -> TermId {
        // a < b  <=>  a - b + 1 <= 0  (integers)
        let diff = self.mk_sub(a, b);
        let one = self.mk_int(1);
        let shifted = self.mk_add(vec![diff, one]);
        self.mk_le0(shifted)
    }

    pub fn mk_ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_le(b, a)
    }

    pub fn mk_gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_lt(b, a)
    }

    fn mk_le0(&mut self, t: TermId) -> TermId {
        let (konst, monomials) = self.as_linear(t);
        if monomials.is_empty() {
            return self.mk_bool(konst <= 0);
        }
        // gcd-normalize: g = gcd of coefficients; konst' = ceil-div so that
        // the constraint is equivalent over the integers.
        let mut g: i128 = 0;
        for &(c, _) in &monomials {
            g = gcd(g, c.abs());
        }
        let (konst, monomials) = if g > 1 {
            let ms: Vec<_> = monomials.iter().map(|&(c, t)| (c / g, t)).collect();
            // Σ c_i t_i <= -konst  =>  Σ (c_i/g) t_i <= floor(-konst / g)
            let bound = (-konst).div_euclid(g);
            (-bound, ms)
        } else {
            (konst, monomials)
        };
        let lin = self.mk_linear(konst, monomials);
        if let TermKind::IntConst(k) = self.kind(lin) {
            let v = *k <= 0;
            return self.mk_bool(v);
        }
        self.intern(TermKind::Le0(lin), self.bool_sort())
    }

    // ------------------------------------------------------------------
    // Quantifiers
    // ------------------------------------------------------------------

    pub fn mk_forall(
        &mut self,
        vars: Vec<(u32, SortId)>,
        triggers: Vec<Vec<TermId>>,
        body: TermId,
        qid: &str,
    ) -> TermId {
        self.mk_quant(true, vars, triggers, body, qid)
    }

    pub fn mk_exists(
        &mut self,
        vars: Vec<(u32, SortId)>,
        triggers: Vec<Vec<TermId>>,
        body: TermId,
        qid: &str,
    ) -> TermId {
        self.mk_quant(false, vars, triggers, body, qid)
    }

    pub fn mk_quant(
        &mut self,
        is_forall: bool,
        vars: Vec<(u32, SortId)>,
        triggers: Vec<Vec<TermId>>,
        body: TermId,
        qid: &str,
    ) -> TermId {
        if vars.is_empty() {
            return body;
        }
        if let TermKind::BoolConst(_) = self.kind(body) {
            return body;
        }
        let qid = self.sym(qid);
        self.intern(
            TermKind::Quantifier(Quant {
                is_forall,
                vars,
                triggers,
                body,
                qid,
            }),
            self.bool_sort(),
        )
    }

    // ------------------------------------------------------------------
    // Datatypes
    // ------------------------------------------------------------------

    pub fn mk_dt_ctor(&mut self, dt: DatatypeId, ctor: u32, args: Vec<TermId>) -> TermId {
        let sort = self.datatype_sort(dt);
        self.intern(TermKind::DtCtor(dt, ctor, args), sort)
    }

    pub fn mk_dt_sel(&mut self, dt: DatatypeId, ctor: u32, field: u32, arg: TermId) -> TermId {
        // Fold selector-of-constructor.
        if let TermKind::DtCtor(dt2, c2, args) = self.kind(arg) {
            if *dt2 == dt && *c2 == ctor {
                return args[field as usize];
            }
        }
        let fsort =
            self.datatypes[dt.0 as usize].constructors[ctor as usize].fields[field as usize].1;
        self.intern(TermKind::DtSel(dt, ctor, field, arg), fsort)
    }

    pub fn mk_dt_test(&mut self, dt: DatatypeId, ctor: u32, arg: TermId) -> TermId {
        if let TermKind::DtCtor(dt2, c2, _) = self.kind(arg) {
            if *dt2 == dt {
                let v = *c2 == ctor;
                return self.mk_bool(v);
            }
        }
        self.intern(TermKind::DtTest(dt, ctor, arg), self.bool_sort())
    }

    // ------------------------------------------------------------------
    // Bit-vectors
    // ------------------------------------------------------------------

    pub fn bv_width(&self, t: TermId) -> u32 {
        match self.sort_data(self.sort_of(t)) {
            Sort::BitVec(w) => *w,
            s => panic!("bv_width on non-bv term of sort {s:?}"),
        }
    }

    fn mk_bv_bin(
        &mut self,
        a: TermId,
        b: TermId,
        mk: fn(TermId, TermId) -> TermKind,
        fold: fn(u64, u64, u32) -> u64,
    ) -> TermId {
        let w = self.bv_width(a);
        debug_assert_eq!(w, self.bv_width(b));
        if let (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) =
            (self.kind(a), self.kind(b))
        {
            let v = fold(*x, *y, w);
            return self.mk_bv_const(w, v);
        }
        let sort = self.bv_sort(w);
        self.intern(mk(a, b), sort)
    }

    pub fn mk_bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvAnd, |x, y, _| x & y)
    }

    pub fn mk_bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvOr, |x, y, _| x | y)
    }

    pub fn mk_bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvXor, |x, y, _| x ^ y)
    }

    pub fn mk_bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvAdd, |x, y, _| x.wrapping_add(y))
    }

    pub fn mk_bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvSub, |x, y, _| x.wrapping_sub(y))
    }

    pub fn mk_bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvMul, |x, y, _| x.wrapping_mul(y))
    }

    pub fn mk_bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvUdiv, |x, y, w| {
            // SMT-LIB bvudiv: division by zero yields all-ones.
            x.checked_div(y).unwrap_or(mask_to_width(u64::MAX, w))
        })
    }

    pub fn mk_bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(
            a,
            b,
            TermKind::BvUrem,
            |x, y, _| if y == 0 { x } else { x % y },
        )
    }

    pub fn mk_bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvShl, |x, y, w| {
            if y >= w as u64 {
                0
            } else {
                x << y
            }
        })
    }

    pub fn mk_bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bv_bin(a, b, TermKind::BvLshr, |x, y, w| {
            if y >= w as u64 {
                0
            } else {
                mask_to_width(x, w) >> y
            }
        })
    }

    pub fn mk_bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width(a);
        if let (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) =
            (self.kind(a), self.kind(b))
        {
            let v = mask_to_width(*x, w) <= mask_to_width(*y, w);
            return self.mk_bool(v);
        }
        self.intern(TermKind::BvUle(a, b), self.bool_sort())
    }

    pub fn mk_bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width(a);
        if let (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) =
            (self.kind(a), self.kind(b))
        {
            let v = mask_to_width(*x, w) < mask_to_width(*y, w);
            return self.mk_bool(v);
        }
        self.intern(TermKind::BvUlt(a, b), self.bool_sort())
    }

    // ------------------------------------------------------------------
    // Substitution & traversal
    // ------------------------------------------------------------------

    /// Replace each bound variable `Bound(i)` named in `subst` by its term.
    /// Used by quantifier instantiation. Nested quantifiers are rewritten in
    /// their body and triggers; their own binders never clash with the
    /// substitution domain because the VC layer numbers binders globally.
    /// Every other kind rewrites its [`Self::children`] and goes through
    /// [`Self::rebuild`], or is returned as is when no child changed.
    pub fn substitute(&mut self, t: TermId, subst: &[(u32, TermId)]) -> TermId {
        let mut cache: HashMap<TermId, TermId> = HashMap::default();
        self.subst_rec(t, subst, &mut cache)
    }

    fn subst_rec(
        &mut self,
        t: TermId,
        subst: &[(u32, TermId)],
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let result = match self.kind(t) {
            TermKind::Bound(bv) => subst
                .iter()
                .find(|&&(i, _)| i == bv.index)
                .map(|&(_, r)| r)
                .unwrap_or(t),
            TermKind::Quantifier(q) => {
                let q = q.clone();
                // Binders use indices disjoint from the substitution domain
                // (global numbering); substitute in body and triggers, which
                // `children` leaves out.
                let body = self.subst_rec(q.body, subst, cache);
                let triggers: Vec<Vec<TermId>> = q
                    .triggers
                    .iter()
                    .map(|grp| {
                        grp.iter()
                            .map(|&p| self.subst_rec(p, subst, cache))
                            .collect()
                    })
                    .collect();
                if body == q.body && triggers == q.triggers {
                    t
                } else {
                    let qid = self.sym_name(q.qid).to_owned();
                    self.mk_quant(q.is_forall, q.vars, triggers, body, &qid)
                }
            }
            _ => {
                let kids = self.children(t);
                let new_kids: Vec<TermId> = kids
                    .iter()
                    .map(|&k| self.subst_rec(k, subst, cache))
                    .collect();
                if new_kids == kids {
                    t
                } else {
                    self.rebuild(t, &new_kids)
                }
            }
        };
        cache.insert(t, result);
        result
    }

    /// Immediate children of a term. With [`Self::rebuild`] and
    /// [`crate::quant::pattern_head`], the one place that says what a term
    /// kind looks like; every generic traversal goes through it. A
    /// quantifier's only child is its body (its triggers are not children).
    pub fn children(&self, t: TermId) -> Vec<TermId> {
        match self.kind(t) {
            TermKind::BoolConst(_)
            | TermKind::IntConst(_)
            | TermKind::BvConst { .. }
            | TermKind::Var(..)
            | TermKind::Bound(_) => vec![],
            TermKind::App(_, args) | TermKind::And(args) | TermKind::Or(args) => args.clone(),
            TermKind::Not(a) | TermKind::Le0(a) => vec![*a],
            TermKind::Implies(a, b) | TermKind::Eq(a, b) => vec![*a, *b],
            TermKind::Ite(c, a, b) => vec![*c, *a, *b],
            TermKind::Linear { monomials, .. } => monomials.iter().map(|&(_, t)| t).collect(),
            TermKind::NlMul(fs) => fs.clone(),
            TermKind::IntDiv(a, b) | TermKind::IntMod(a, b) => vec![*a, *b],
            TermKind::Quantifier(q) => vec![q.body],
            TermKind::DtCtor(_, _, args) => args.clone(),
            TermKind::DtSel(_, _, _, a) | TermKind::DtTest(_, _, a) => vec![*a],
            TermKind::BvAnd(a, b)
            | TermKind::BvOr(a, b)
            | TermKind::BvXor(a, b)
            | TermKind::BvAdd(a, b)
            | TermKind::BvSub(a, b)
            | TermKind::BvMul(a, b)
            | TermKind::BvUdiv(a, b)
            | TermKind::BvUrem(a, b)
            | TermKind::BvShl(a, b)
            | TermKind::BvLshr(a, b)
            | TermKind::BvUle(a, b)
            | TermKind::BvUlt(a, b) => vec![*a, *b],
        }
    }

    /// Rebuild a term with new children (in the order [`Self::children`]
    /// returns them), re-running canonicalization. Used by the rewriting
    /// passes: ite-lifting and [`Self::substitute`].
    ///
    /// # Panics
    /// Panics if `kids.len()` differs from the term's child count.
    pub fn rebuild(&mut self, t: TermId, kids: &[TermId]) -> TermId {
        match self.kind(t) {
            TermKind::BoolConst(_)
            | TermKind::IntConst(_)
            | TermKind::BvConst { .. }
            | TermKind::Var(..)
            | TermKind::Bound(_) => {
                debug_assert!(kids.is_empty());
                t
            }
            &TermKind::App(f, _) => self.mk_app(f, kids.to_vec()),
            TermKind::And(_) => self.mk_and(kids.to_vec()),
            TermKind::Or(_) => self.mk_or(kids.to_vec()),
            TermKind::Not(_) => self.mk_not(kids[0]),
            TermKind::Le0(_) => {
                let zero = self.mk_int(0);
                self.mk_le(kids[0], zero)
            }
            TermKind::Implies(..) => self.mk_implies(kids[0], kids[1]),
            TermKind::Eq(..) => self.mk_eq(kids[0], kids[1]),
            TermKind::Ite(..) => self.mk_ite(kids[0], kids[1], kids[2]),
            TermKind::Linear { konst, monomials } => {
                let (konst, monomials) = (*konst, monomials.clone());
                let mut parts = vec![self.mk_int(konst)];
                for (i, (c, _)) in monomials.iter().enumerate() {
                    let coeff = self.mk_int(*c);
                    let m = self.mk_mul(coeff, kids[i]);
                    parts.push(m);
                }
                self.mk_add(parts)
            }
            TermKind::NlMul(_) => {
                let mut acc = self.mk_int(1);
                for &k in kids {
                    acc = self.mk_mul(acc, k);
                }
                acc
            }
            TermKind::IntDiv(..) => self.mk_int_div(kids[0], kids[1]),
            TermKind::IntMod(..) => self.mk_int_mod(kids[0], kids[1]),
            TermKind::Quantifier(q) => {
                let q = q.clone();
                let qid = self.sym_name(q.qid).to_owned();
                self.mk_quant(q.is_forall, q.vars, q.triggers, kids[0], &qid)
            }
            &TermKind::DtCtor(dt, c, _) => self.mk_dt_ctor(dt, c, kids.to_vec()),
            &TermKind::DtSel(dt, c, f, _) => self.mk_dt_sel(dt, c, f, kids[0]),
            &TermKind::DtTest(dt, c, _) => self.mk_dt_test(dt, c, kids[0]),
            TermKind::BvAnd(..) => self.mk_bv_and(kids[0], kids[1]),
            TermKind::BvOr(..) => self.mk_bv_or(kids[0], kids[1]),
            TermKind::BvXor(..) => self.mk_bv_xor(kids[0], kids[1]),
            TermKind::BvAdd(..) => self.mk_bv_add(kids[0], kids[1]),
            TermKind::BvSub(..) => self.mk_bv_sub(kids[0], kids[1]),
            TermKind::BvMul(..) => self.mk_bv_mul(kids[0], kids[1]),
            TermKind::BvUdiv(..) => self.mk_bv_udiv(kids[0], kids[1]),
            TermKind::BvUrem(..) => self.mk_bv_urem(kids[0], kids[1]),
            TermKind::BvShl(..) => self.mk_bv_shl(kids[0], kids[1]),
            TermKind::BvLshr(..) => self.mk_bv_lshr(kids[0], kids[1]),
            TermKind::BvUle(..) => self.mk_bv_ule(kids[0], kids[1]),
            TermKind::BvUlt(..) => self.mk_bv_ult(kids[0], kids[1]),
        }
    }

    /// Does the term contain any bound variable (i.e., is it non-ground in
    /// a quantifier body)?
    pub fn has_bound_var(&self, t: TermId) -> bool {
        match self.kind(t) {
            TermKind::Bound(_) => true,
            _ => self.children(t).into_iter().any(|c| self.has_bound_var(c)),
        }
    }

    /// Human-readable rendering for diagnostics.
    pub fn display(&self, t: TermId) -> TermDisplay<'_> {
        TermDisplay {
            store: self,
            term: t,
        }
    }
}

/// Display adapter for terms.
pub struct TermDisplay<'a> {
    store: &'a TermStore,
    term: TermId,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(self.store, self.term, f)
    }
}

fn write_term(s: &TermStore, t: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match s.kind(t) {
        TermKind::BoolConst(b) => write!(f, "{b}"),
        TermKind::IntConst(k) => write!(f, "{k}"),
        TermKind::BvConst { width, value } => {
            write!(
                f,
                "#b{value:0>width$b}",
                value = value,
                width = *width as usize
            )
        }
        TermKind::Var(sym, _) => write!(f, "{}", s.sym_name(*sym)),
        TermKind::Bound(bv) => write!(f, "?{}", bv.index),
        TermKind::App(func, args) => {
            write!(f, "({}", s.sym_name(s.func(*func).name))?;
            for &a in args {
                write!(f, " ")?;
                write_term(s, a, f)?;
            }
            write!(f, ")")
        }
        TermKind::Not(a) => {
            write!(f, "(not ")?;
            write_term(s, *a, f)?;
            write!(f, ")")
        }
        TermKind::And(parts) => write_nary(s, "and", parts, f),
        TermKind::Or(parts) => write_nary(s, "or", parts, f),
        TermKind::Implies(a, b) => write_bin(s, "=>", *a, *b, f),
        TermKind::Eq(a, b) => write_bin(s, "=", *a, *b, f),
        TermKind::Ite(c, a, b) => {
            write!(f, "(ite ")?;
            write_term(s, *c, f)?;
            write!(f, " ")?;
            write_term(s, *a, f)?;
            write!(f, " ")?;
            write_term(s, *b, f)?;
            write!(f, ")")
        }
        TermKind::Linear { konst, monomials } => {
            write!(f, "(+ {konst}")?;
            for &(c, a) in monomials {
                write!(f, " (* {c} ")?;
                write_term(s, a, f)?;
                write!(f, ")")?;
            }
            write!(f, ")")
        }
        TermKind::NlMul(parts) => write_nary(s, "*", parts, f),
        TermKind::IntDiv(a, b) => write_bin(s, "div", *a, *b, f),
        TermKind::IntMod(a, b) => write_bin(s, "mod", *a, *b, f),
        TermKind::Le0(a) => {
            write!(f, "(<= ")?;
            write_term(s, *a, f)?;
            write!(f, " 0)")
        }
        TermKind::Quantifier(q) => {
            write!(f, "({} (", if q.is_forall { "forall" } else { "exists" })?;
            for (i, (idx, _)) in q.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "?{idx}")?;
            }
            write!(f, ") ")?;
            write_term(s, q.body, f)?;
            write!(f, ")")
        }
        TermKind::DtCtor(dt, c, args) => {
            let ctor = &s.datatype(*dt).constructors[*c as usize];
            write!(f, "({}", s.sym_name(ctor.name))?;
            for &a in args {
                write!(f, " ")?;
                write_term(s, a, f)?;
            }
            write!(f, ")")
        }
        TermKind::DtSel(dt, c, fi, a) => {
            let ctor = &s.datatype(*dt).constructors[*c as usize];
            write!(f, "({} ", s.sym_name(ctor.fields[*fi as usize].0))?;
            write_term(s, *a, f)?;
            write!(f, ")")
        }
        TermKind::DtTest(dt, c, a) => {
            let ctor = &s.datatype(*dt).constructors[*c as usize];
            write!(f, "(is-{} ", s.sym_name(ctor.name))?;
            write_term(s, *a, f)?;
            write!(f, ")")
        }
        TermKind::BvAnd(a, b) => write_bin(s, "bvand", *a, *b, f),
        TermKind::BvOr(a, b) => write_bin(s, "bvor", *a, *b, f),
        TermKind::BvXor(a, b) => write_bin(s, "bvxor", *a, *b, f),
        TermKind::BvAdd(a, b) => write_bin(s, "bvadd", *a, *b, f),
        TermKind::BvSub(a, b) => write_bin(s, "bvsub", *a, *b, f),
        TermKind::BvMul(a, b) => write_bin(s, "bvmul", *a, *b, f),
        TermKind::BvUdiv(a, b) => write_bin(s, "bvudiv", *a, *b, f),
        TermKind::BvUrem(a, b) => write_bin(s, "bvurem", *a, *b, f),
        TermKind::BvShl(a, b) => write_bin(s, "bvshl", *a, *b, f),
        TermKind::BvLshr(a, b) => write_bin(s, "bvlshr", *a, *b, f),
        TermKind::BvUle(a, b) => write_bin(s, "bvule", *a, *b, f),
        TermKind::BvUlt(a, b) => write_bin(s, "bvult", *a, *b, f),
    }
}

fn write_nary(
    s: &TermStore,
    op: &str,
    parts: &[TermId],
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    write!(f, "({op}")?;
    for &p in parts {
        write!(f, " ")?;
        write_term(s, p, f)?;
    }
    write!(f, ")")
}

fn write_bin(
    s: &TermStore,
    op: &str,
    a: TermId,
    b: TermId,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    write!(f, "({op} ")?;
    write_term(s, a, f)?;
    write!(f, " ")?;
    write_term(s, b, f)?;
    write!(f, ")")
}

pub(crate) fn mask_to_width(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        let y = s.mk_var("y", s.int_sort());
        let a = s.mk_add(vec![x, y]);
        let b = s.mk_add(vec![y, x]);
        assert_eq!(a, b, "addition canonicalizes operand order");
    }

    #[test]
    fn linear_normal_form_merges() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        // x + x + 1 - 1 == 2*x
        let one = s.mk_int(1);
        let sum = s.mk_add(vec![x, x, one]);
        let sum = s.mk_sub(sum, one);
        let two = s.mk_int(2);
        let twice = s.mk_mul(two, x);
        assert_eq!(sum, twice);
    }

    #[test]
    fn x_plus_zero_is_x() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        let zero = s.mk_int(0);
        assert_eq!(s.mk_add(vec![x, zero]), x);
    }

    #[test]
    fn mul_distributes_and_folds() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        let y = s.mk_var("y", s.int_sort());
        // (x + 2) * (y + 3) == x*y + 3x + 2y + 6
        let two = s.mk_int(2);
        let three = s.mk_int(3);
        let l = s.mk_add(vec![x, two]);
        let r = s.mk_add(vec![y, three]);
        let prod = s.mk_mul(l, r);
        let xy = s.mk_mul(x, y);
        let t3x = s.mk_mul(three, x);
        let t2y = s.mk_mul(two, y);
        let six = s.mk_int(6);
        let expect = s.mk_add(vec![xy, t3x, t2y, six]);
        assert_eq!(prod, expect);
    }

    #[test]
    fn nl_product_is_commutative() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        let y = s.mk_var("y", s.int_sort());
        assert_eq!(s.mk_mul(x, y), s.mk_mul(y, x));
        // And associates: (x*y)*x == x*(x*y)
        let xy = s.mk_mul(x, y);
        assert_eq!(s.mk_mul(xy, x), s.mk_mul(x, xy));
    }

    #[test]
    fn le_normalizes_gcd() {
        let mut s = TermStore::new();
        let x = s.mk_var("x", s.int_sort());
        // 2x <= 5  =>  x <= 2 over integers
        let two = s.mk_int(2);
        let five = s.mk_int(5);
        let twox = s.mk_mul(two, x);
        let a = s.mk_le(twox, five);
        let twob = s.mk_int(2);
        let b = s.mk_le(x, twob);
        assert_eq!(a, b);
    }

    #[test]
    fn bool_folding() {
        let mut s = TermStore::new();
        let p = s.mk_var("p", s.bool_sort());
        let t = s.mk_true();
        let fa = s.mk_false();
        assert_eq!(s.mk_and(vec![p, t]), p);
        assert_eq!(s.mk_and(vec![p, fa]), s.mk_false());
        assert_eq!(s.mk_or(vec![p, fa]), p);
        let np = s.mk_not(p);
        assert_eq!(s.mk_not(np), p);
    }

    #[test]
    fn ite_on_bool_becomes_connectives() {
        let mut s = TermStore::new();
        let c = s.mk_var("c", s.bool_sort());
        let p = s.mk_var("p", s.bool_sort());
        let q = s.mk_var("q", s.bool_sort());
        let ite = s.mk_ite(c, p, q);
        assert_eq!(s.sort_of(ite), s.bool_sort());
        assert!(!matches!(s.kind(ite), TermKind::Ite(..)));
    }

    #[test]
    fn selector_of_ctor_folds() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let dt = s.declare_datatype(
            "Pair",
            vec![("mk".into(), vec![("fst".into(), int), ("snd".into(), int)])],
        );
        let a = s.mk_int(7);
        let b = s.mk_int(9);
        let pair = s.mk_dt_ctor(dt, 0, vec![a, b]);
        assert_eq!(s.mk_dt_sel(dt, 0, 0, pair), a);
        assert_eq!(s.mk_dt_sel(dt, 0, 1, pair), b);
        let test = s.mk_dt_test(dt, 0, pair);
        assert_eq!(test, s.mk_true());
    }

    #[test]
    fn bv_const_folding() {
        let mut s = TermStore::new();
        let a = s.mk_bv_const(8, 0xF0);
        let b = s.mk_bv_const(8, 0x0F);
        let or = s.mk_bv_or(a, b);
        assert_eq!(or, s.mk_bv_const(8, 0xFF));
        let one = s.mk_bv_const(8, 1);
        let add = s.mk_bv_add(or, one);
        assert_eq!(add, s.mk_bv_const(8, 0));
    }

    #[test]
    fn substitute_bound_vars() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let b0 = s.mk_bound(0, int);
        let one = s.mk_int(1);
        let body = s.mk_add(vec![b0, one]);
        let seven = s.mk_int(7);
        let inst = s.substitute(body, &[(0, seven)]);
        assert_eq!(inst, s.mk_int(8));
    }

    #[test]
    fn substitute_rewrites_nested_quantifier_trigger_and_body() {
        let mut s = TermStore::new();
        let int = s.int_sort();
        let f = s.declare_fun("f", vec![int, int], int);
        let outer = s.mk_bound(0, int);
        let j = s.fresh_bound_index();
        let inner = s.mk_bound(j, int);
        let zero = s.mk_int(0);
        // forall j {f(?0, j)}. 0 <= f(?0, j), with ?0 bound further out.
        let pat = s.mk_app(f, vec![outer, inner]);
        let body = s.mk_le(zero, pat);
        let q = s.mk_forall(vec![(j, int)], vec![vec![pat]], body, "nested");
        let seven = s.mk_int(7);
        let inst = s.substitute(q, &[(0, seven)]);
        let TermKind::Quantifier(iq) = s.kind(inst).clone() else {
            panic!("substitution dropped the quantifier: {}", s.display(inst));
        };
        let pat7 = s.mk_app(f, vec![seven, inner]);
        let body7 = s.mk_le(zero, pat7);
        assert_eq!(iq.triggers, vec![vec![pat7]]);
        assert_eq!(iq.body, body7);
        assert_eq!(iq.vars, vec![(j, int)], "the inner binder stays");
    }
}
