//! Bit-vector reasoning by bit-blasting to the CDCL SAT core.
//!
//! This module backs `by(bit_vector)` proofs: a query whose atoms are all
//! bit-vector operations (plus boolean structure) is translated into CNF —
//! ripple-carry adders, shift-add multipliers, barrel shifters — and handed
//! to [`crate::sat::SatSolver`]. Division and remainder are encoded
//! relationally (`a = b*q + r ∧ r < b`) in double width to avoid overflow.

use crate::fxhash::HashMap;
use std::sync::Arc;

use veris_obs::{Counter, ResourceMeter};

use crate::sat::{FinalCheck, LBool, Lit, SatResult, SatSolver};
use crate::term::{TermId, TermKind, TermStore};

/// Result of a bit-vector validity/satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BvResult {
    Sat(HashMap<TermId, u64>),
    Unsat,
    Unknown,
}

/// Bit-blasting solver. One-shot: build, assert, check.
pub struct BvSolver {
    sat: SatSolver,
    /// Cached bit encodings of bv-sorted terms (LSB first).
    bits: HashMap<TermId, Vec<Lit>>,
    /// Cached literal encodings of boolean terms.
    bools: HashMap<TermId, Lit>,
    /// Literal fixed to true at the root level.
    lit_true: Lit,
    /// Variables whose model values we report back.
    vars: Vec<TermId>,
    /// Optional resource meter; emitted CNF clauses are charged to it.
    meter: Option<Arc<ResourceMeter>>,
}

impl Default for BvSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl BvSolver {
    pub fn new() -> BvSolver {
        let mut sat = SatSolver::new();
        let t = sat.new_var();
        let lit_true = Lit::pos(t);
        sat.add_clause(vec![lit_true]);
        BvSolver {
            sat,
            bits: HashMap::default(),
            bools: HashMap::default(),
            lit_true,
            vars: Vec::new(),
            meter: None,
        }
    }

    /// Attach a resource meter: emitted clauses are charged as
    /// `BitblastClauses` and the underlying SAT search is metered too.
    pub fn set_meter(&mut self, meter: Arc<ResourceMeter>) {
        self.sat.set_meter(meter.clone());
        self.meter = Some(meter);
    }

    /// Add a clause, charging it to the meter when one is attached.
    fn clause(&mut self, lits: Vec<Lit>) {
        if let Some(m) = &self.meter {
            m.charge(Counter::BitblastClauses, 1);
        }
        self.sat.add_clause(lits);
    }

    fn lit_false(&self) -> Lit {
        self.lit_true.negate()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.lit_true
        } else {
            self.lit_false()
        }
    }

    // --- gate library ---------------------------------------------------

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() || b == self.lit_false() {
            return self.lit_false();
        }
        if a == self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.lit_false();
        }
        let o = self.fresh();
        self.clause(vec![o.negate(), a]);
        self.clause(vec![o.negate(), b]);
        self.clause(vec![o, a.negate(), b.negate()]);
        o
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = a.negate();
        let nb = b.negate();
        self.gate_and(na, nb).negate()
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == self.lit_true {
            return b.negate();
        }
        if b == self.lit_true {
            return a.negate();
        }
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            return self.lit_true;
        }
        let o = self.fresh();
        self.clause(vec![o.negate(), a, b]);
        self.clause(vec![o.negate(), a.negate(), b.negate()]);
        self.clause(vec![o, a, b.negate()]);
        self.clause(vec![o, a.negate(), b]);
        o
    }

    fn gate_mux(&mut self, sel: Lit, then_: Lit, else_: Lit) -> Lit {
        let a = self.gate_and(sel, then_);
        let b = self.gate_and(sel.negate(), else_);
        self.gate_or(a, b)
    }

    /// Full adder: returns (sum, carry_out).
    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.gate_xor(a, b);
        let sum = self.gate_xor(axb, cin);
        let t1 = self.gate_and(a, b);
        let t2 = self.gate_and(axb, cin);
        let cout = self.gate_or(t1, t2);
        (sum, cout)
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    #[allow(dead_code)]
    fn negate_bits(&mut self, a: &[Lit]) -> Vec<Lit> {
        // Two's complement: ~a + 1
        let na: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zero: Vec<Lit> = std::iter::repeat_n(self.lit_false(), a.len()).collect();
        let (out, _) = self.adder(&na, &zero, self.lit_true);
        out
    }

    fn mul_bits(&mut self, a: &[Lit], b: &[Lit], out_width: usize) -> Vec<Lit> {
        // Shift-add: accumulate a << i masked by b[i].
        let w = out_width;
        let mut acc: Vec<Lit> = std::iter::repeat_n(self.lit_false(), w).collect();
        for i in 0..b.len().min(w) {
            // partial = (a << i) & b[i], truncated to w.
            let mut partial: Vec<Lit> = Vec::with_capacity(w);
            for k in 0..w {
                let bit = if k >= i && k - i < a.len() {
                    a[k - i]
                } else {
                    self.lit_false()
                };
                partial.push(self.gate_and(bit, b[i]));
            }
            let (sum, _) = self.adder(&acc, &partial, self.lit_false());
            acc = sum;
        }
        acc
    }

    /// `a < b` (unsigned): borrow out of a - b.
    fn ult_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b iff the ripple-carry of a + ~b + 1 has carry-out 0.
        let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let (_, carry) = self.adder(a, &nb, self.lit_true);
        carry.negate()
    }

    fn eq_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.lit_true;
        for i in 0..a.len() {
            let x = self.gate_xor(a[i], b[i]);
            acc = self.gate_and(acc, x.negate());
        }
        acc
    }

    fn zero_extend(&self, a: &[Lit], w: usize) -> Vec<Lit> {
        let mut out = a.to_vec();
        while out.len() < w {
            out.push(self.lit_false());
        }
        out
    }

    /// Barrel shifter; `left` selects direction. Shift amount is `b`
    /// interpreted unsigned; amounts >= width produce zero.
    fn shift_bits(&mut self, a: &[Lit], b: &[Lit], left: bool) -> Vec<Lit> {
        let w = a.len();
        let mut cur = a.to_vec();
        let stages = usize::BITS as usize - (w - 1).leading_zeros() as usize;
        for s in 0..stages.max(1) {
            if s >= b.len() {
                break;
            }
            let amt = 1usize << s;
            let sel = b[s];
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if left {
                    if i >= amt {
                        cur[i - amt]
                    } else {
                        self.lit_false()
                    }
                } else if i + amt < w {
                    cur[i + amt]
                } else {
                    self.lit_false()
                };
                next.push(self.gate_mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
        // Any set bit in b at position >= stages zeroes the result.
        let mut oob = self.lit_false();
        let stages = stages.max(1);
        for (i, &bit) in b.iter().enumerate() {
            if i >= stages {
                oob = self.gate_or(oob, bit);
            }
        }
        // Also: if the numeric shift within stages bits >= w and w is not a
        // power of two... handled because shifting by amounts up to
        // 2^stages-1 >= w-1; amounts in [w, 2^stages) shift everything out
        // naturally through the mux network. Only bits beyond `stages` need
        // the explicit zeroing above.
        cur.into_iter()
            .map(|l| self.gate_and(l, oob.negate()))
            .collect()
    }

    // --- term encoding ----------------------------------------------------

    fn encode_bits(&mut self, store: &TermStore, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bits.get(&t) {
            return bits.clone();
        }
        let kind = store.kind(t).clone();
        let out = match kind {
            TermKind::BvConst { width, value } => (0..width)
                .map(|i| self.const_lit(value >> i & 1 == 1))
                .collect(),
            TermKind::Var(_, _) => {
                let w = store.bv_width(t);
                self.vars.push(t);
                (0..w).map(|_| self.fresh()).collect()
            }
            TermKind::BvAnd(a, b) => self.bitwise(store, a, b, Self::gate_and),
            TermKind::BvOr(a, b) => self.bitwise(store, a, b, Self::gate_or),
            TermKind::BvXor(a, b) => self.bitwise(store, a, b, Self::gate_xor),
            TermKind::BvAdd(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                let f = self.lit_false();
                self.adder(&a, &b, f).0
            }
            TermKind::BvSub(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
                self.adder(&a, &nb, self.lit_true).0
            }
            TermKind::BvMul(a, b) => {
                let w = store.bv_width(t) as usize;
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                self.mul_bits(&a, &b, w)
            }
            TermKind::BvUdiv(a, b) | TermKind::BvUrem(a, b) => {
                let is_div = matches!(store.kind(t), TermKind::BvUdiv(..));
                let w = store.bv_width(t) as usize;
                let (ab, bb) = (self.encode_bits(store, a), self.encode_bits(store, b));
                let q: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                let r: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                // In 2w bits: a == b*q + r
                let a2 = self.zero_extend(&ab, 2 * w);
                let b2 = self.zero_extend(&bb, 2 * w);
                let q2 = self.zero_extend(&q, 2 * w);
                let bq = self.mul_bits(&b2, &q2, 2 * w);
                let r2 = self.zero_extend(&r, 2 * w);
                let f = self.lit_false();
                let (sum, _) = self.adder(&bq, &r2, f);
                let eq = self.eq_bits(&a2, &sum);
                // r < b (when b != 0)
                let rb = self.ult_bits(&r, &bb);
                let zero: Vec<Lit> = std::iter::repeat_n(self.lit_false(), w).collect();
                let b_is_zero = self.eq_bits(&bb, &zero);
                // b == 0: q = all ones, r = a (SMT-LIB semantics).
                let ones: Vec<Lit> = std::iter::repeat_n(self.lit_true, w).collect();
                let q_ones = self.eq_bits(&q, &ones);
                let r_eq_a = self.eq_bits(&r, &ab);
                let div_by_zero_case = self.gate_and(q_ones, r_eq_a);
                let normal = self.gate_and(eq, rb);
                let constraint = self.gate_mux(b_is_zero, div_by_zero_case, normal);
                self.clause(vec![constraint]);
                if is_div {
                    q
                } else {
                    r
                }
            }
            TermKind::BvShl(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                self.shift_bits(&a, &b, true)
            }
            TermKind::BvLshr(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                self.shift_bits(&a, &b, false)
            }
            TermKind::Ite(c, a, b) => {
                let c = self.encode_bool(store, c);
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                a.iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| self.gate_mux(c, x, y))
                    .collect()
            }
            other => panic!("bit-blaster: unsupported bv term {other:?}"),
        };
        self.bits.insert(t, out.clone());
        out
    }

    fn bitwise(
        &mut self,
        store: &TermStore,
        a: TermId,
        b: TermId,
        gate: fn(&mut Self, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| gate(self, x, y))
            .collect()
    }

    /// Encode a boolean term as a literal.
    pub fn encode_bool(&mut self, store: &TermStore, t: TermId) -> Lit {
        if let Some(&l) = self.bools.get(&t) {
            return l;
        }
        let kind = store.kind(t).clone();
        let out = match kind {
            TermKind::BoolConst(b) => self.const_lit(b),
            TermKind::Var(_, _) => self.fresh(),
            TermKind::Not(a) => self.encode_bool(store, a).negate(),
            TermKind::And(parts) => {
                let mut acc = self.lit_true;
                for p in parts {
                    let l = self.encode_bool(store, p);
                    acc = self.gate_and(acc, l);
                }
                acc
            }
            TermKind::Or(parts) => {
                let mut acc = self.lit_false();
                for p in parts {
                    let l = self.encode_bool(store, p);
                    acc = self.gate_or(acc, l);
                }
                acc
            }
            TermKind::Implies(a, b) => {
                let (a, b) = (self.encode_bool(store, a), self.encode_bool(store, b));
                self.gate_or(a.negate(), b)
            }
            TermKind::Eq(a, b) => {
                if store.sort_of(a) == store.bool_sort() {
                    let (a, b) = (self.encode_bool(store, a), self.encode_bool(store, b));
                    let x = self.gate_xor(a, b);
                    x.negate()
                } else {
                    let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                    self.eq_bits(&a, &b)
                }
            }
            TermKind::BvUle(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                let gt = self.ult_bits(&b, &a);
                gt.negate()
            }
            TermKind::BvUlt(a, b) => {
                let (a, b) = (self.encode_bits(store, a), self.encode_bits(store, b));
                self.ult_bits(&a, &b)
            }
            other => panic!("bit-blaster: unsupported bool term {other:?}"),
        };
        self.bools.insert(t, out);
        out
    }

    /// Assert a boolean term.
    pub fn assert(&mut self, store: &TermStore, t: TermId) {
        let l = self.encode_bool(store, t);
        self.clause(vec![l]);
    }

    /// Check satisfiability of the asserted formulas.
    pub fn check(&mut self, store: &TermStore) -> BvResult {
        match self.sat.solve_with(|_| FinalCheck::Consistent) {
            SatResult::Unsat => BvResult::Unsat,
            SatResult::Unknown => BvResult::Unknown,
            SatResult::Sat => {
                let mut model = HashMap::default();
                for &v in &self.vars {
                    let bits = &self.bits[&v];
                    let mut val = 0u64;
                    for (i, &l) in bits.iter().enumerate() {
                        if self.sat.value(l) == LBool::True {
                            val |= 1 << i;
                        }
                    }
                    model.insert(v, val);
                }
                let _ = store;
                BvResult::Sat(model)
            }
        }
    }
}

/// Prove the validity of a boolean bv formula: assert its negation and
/// expect unsat. Returns `Ok(())` on valid, a countermodel on invalid, and
/// `Unknown` once `meter` (charged for every blasted clause and every SAT
/// search step) runs out.
pub fn prove_bv(
    store: &mut TermStore,
    goal: TermId,
    meter: &Arc<ResourceMeter>,
) -> Result<(), BvResult> {
    let neg = store.mk_not(goal);
    let mut solver = BvSolver::new();
    solver.set_meter(meter.clone());
    solver.assert(store, neg);
    match solver.check(store) {
        BvResult::Unsat => Ok(()),
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> TermStore {
        TermStore::new()
    }

    fn meter() -> Arc<ResourceMeter> {
        Arc::new(ResourceMeter::new())
    }

    #[test]
    fn mask_mod_identity() {
        // x & 511 == x % 512 (the paper's §3.3 example) at width 16.
        let mut s = setup();
        let bv16 = s.bv_sort(16);
        let x = s.mk_var("x", bv16);
        let mask = s.mk_bv_const(16, 511);
        let m = s.mk_bv_const(16, 512);
        let lhs = s.mk_bv_and(x, mask);
        let rhs = s.mk_bv_urem(x, m);
        let goal = s.mk_eq(lhs, rhs);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn add_commutes() {
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let y = s.mk_var("y", bv8);
        let l = s.mk_bv_add(x, y);
        let r = s.mk_bv_add(y, x);
        let goal = s.mk_eq(l, r);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn invalid_has_countermodel() {
        // x + 1 == x is invalid.
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let one = s.mk_bv_const(8, 1);
        let l = s.mk_bv_add(x, one);
        let goal = s.mk_eq(l, x);
        assert!(matches!(
            prove_bv(&mut s, goal, &meter()),
            Err(BvResult::Sat(_))
        ));
    }

    #[test]
    fn shl_is_mul_by_power_of_two() {
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let three = s.mk_bv_const(8, 3);
        let eight = s.mk_bv_const(8, 8);
        let l = s.mk_bv_shl(x, three);
        let r = s.mk_bv_mul(x, eight);
        let goal = s.mk_eq(l, r);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn lshr_bounds() {
        // (x >> 4) <= 15 at width 8.
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let four = s.mk_bv_const(8, 4);
        let fifteen = s.mk_bv_const(8, 15);
        let sh = s.mk_bv_lshr(x, four);
        let goal = s.mk_bv_ule(sh, fifteen);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn shift_out_of_range_is_zero() {
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let big = s.mk_bv_const(8, 200);
        let sh = s.mk_bv_shl(x, big);
        let zero = s.mk_bv_const(8, 0);
        let goal = s.mk_eq(sh, zero);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn udiv_urem_roundtrip() {
        // y != 0 ==> x == y * (x / y) + (x % y)
        let mut s = setup();
        let bv8 = s.bv_sort(8);
        let x = s.mk_var("x", bv8);
        let y = s.mk_var("y", bv8);
        let zero = s.mk_bv_const(8, 0);
        let q = s.mk_bv_udiv(x, y);
        let r = s.mk_bv_urem(x, y);
        let yq = s.mk_bv_mul(y, q);
        let sum = s.mk_bv_add(yq, r);
        let eq = s.mk_eq(x, sum);
        let y0 = s.mk_eq(y, zero);
        let ny0 = s.mk_not(y0);
        let goal = s.mk_implies(ny0, eq);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn sub_add_cancel() {
        let mut s = setup();
        let bv16 = s.bv_sort(16);
        let x = s.mk_var("x", bv16);
        let y = s.mk_var("y", bv16);
        let d = s.mk_bv_sub(x, y);
        let back = s.mk_bv_add(d, y);
        let goal = s.mk_eq(back, x);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }

    #[test]
    fn paper_mask_bit_example() {
        // i < 13 && (a & mask(13,15)) == 0 ==> ((a | bit(i)) & mask(13,15)) == 0
        // at width 16 (scaled down from the paper's 64-bit version).
        let mut s = setup();
        let bv16 = s.bv_sort(16);
        let a = s.mk_var("a", bv16);
        let i = s.mk_var("i", bv16);
        let mask = s.mk_bv_const(16, 0b1110_0000_0000_0000); // bits 13..15
        let zero = s.mk_bv_const(16, 0);
        let one = s.mk_bv_const(16, 1);
        let thirteen = s.mk_bv_const(16, 13);
        let am = s.mk_bv_and(a, mask);
        let pre1 = s.mk_bv_ult(i, thirteen);
        let pre2 = s.mk_eq(am, zero);
        let bit = s.mk_bv_shl(one, i);
        let abit = s.mk_bv_or(a, bit);
        let abm = s.mk_bv_and(abit, mask);
        let post = s.mk_eq(abm, zero);
        let pre = s.mk_and(vec![pre1, pre2]);
        let goal = s.mk_implies(pre, post);
        assert!(prove_bv(&mut s, goal, &meter()).is_ok());
    }
}
