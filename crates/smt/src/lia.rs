//! Linear integer arithmetic via the general simplex of Dutertre & de Moura
//! (rational relaxation) plus branch-and-bound for integrality.
//!
//! Constraints arrive as bounds on linear combinations tagged with the SAT
//! literal that asserted them; infeasibility is reported as the set of
//! responsible literals (a Farkas-style conflict from the failing row).
//!
//! Arithmetic uses `i128` rationals with gcd normalization; overflow is
//! detected and surfaced as [`LiaOutcome::Unknown`] rather than silently
//! wrapping, so `Unsat` answers are always trustworthy. After an overflow
//! the state may be inconsistent; the caller must stop using it.
//!
//! Backtracking follows Dutertre and de Moura (CAV 2006): the tableau and
//! the assignment persist, and [`Lia::undo`] restores only bounds. Every
//! nonbasic variable's value lies within its bounds, and relaxing a bound
//! keeps it there, so the tableau needs no repair after an undo.

use crate::fxhash::HashMap;
use std::sync::Arc;

use veris_obs::{Counter, ResourceMeter};

/// Opaque reason tag attached to asserted bounds; the SMT layer maps tags
/// back to (sets of) SAT literals when building conflict clauses.
pub type Tag = u32;

/// Exact rational with `i128` components. Invariant: `den > 0`, gcd-reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Arithmetic overflow marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow;

type RatResult = Result<Rat, Overflow>;

impl Rat {
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    pub fn new(num: i128, den: i128) -> RatResult {
        if den == 0 {
            return Err(Overflow);
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = crate::term::gcd(num, den);
        let g = if g == 0 { 1 } else { g };
        Ok(Rat {
            num: sign * num / g,
            den: sign * den / g,
        })
    }

    pub fn num(&self) -> i128 {
        self.num
    }

    pub fn den(&self) -> i128 {
        self.den
    }

    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    pub fn add(&self, o: &Rat) -> RatResult {
        let n1 = self.num.checked_mul(o.den).ok_or(Overflow)?;
        let n2 = o.num.checked_mul(self.den).ok_or(Overflow)?;
        let num = n1.checked_add(n2).ok_or(Overflow)?;
        let den = self.den.checked_mul(o.den).ok_or(Overflow)?;
        Rat::new(num, den)
    }

    pub fn sub(&self, o: &Rat) -> RatResult {
        self.add(&Rat {
            num: -o.num,
            den: o.den,
        })
    }

    pub fn mul(&self, o: &Rat) -> RatResult {
        let num = self.num.checked_mul(o.num).ok_or(Overflow)?;
        let den = self.den.checked_mul(o.den).ok_or(Overflow)?;
        Rat::new(num, den)
    }

    pub fn div(&self, o: &Rat) -> RatResult {
        if o.num == 0 {
            return Err(Overflow);
        }
        self.mul(&Rat {
            num: o.den,
            den: o.num,
        })
    }

    pub fn neg(&self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub fn is_pos(&self) -> bool {
        self.num > 0
    }

    pub fn is_neg(&self) -> bool {
        self.num < 0
    }

    pub fn cmp_rat(&self, o: &Rat) -> Result<std::cmp::Ordering, Overflow> {
        let l = self.num.checked_mul(o.den).ok_or(Overflow)?;
        let r = o.num.checked_mul(self.den).ok_or(Overflow)?;
        Ok(l.cmp(&r))
    }

    pub fn lt(&self, o: &Rat) -> Result<bool, Overflow> {
        Ok(self.cmp_rat(o)? == std::cmp::Ordering::Less)
    }

    pub fn le(&self, o: &Rat) -> Result<bool, Overflow> {
        Ok(self.cmp_rat(o)? != std::cmp::Ordering::Greater)
    }
}

/// A solver-level arithmetic variable (column).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LVar(pub u32);

/// A linear combination resolved by [`Lia::register`]: the combination is
/// `gcd * scale * x` for the column `x`, so a bound on it is one bound on
/// `x` with no lookup or allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Col {
    var: usize,
    scale: i128,
    gcd: i128,
}

#[derive(Clone, Copy, Debug)]
struct Bound {
    value: Rat,
    /// `None` marks an internal branch-and-bound bound.
    reason: Option<Tag>,
}

/// Outcome of an LIA check.
#[derive(Clone, Debug)]
pub enum LiaOutcome {
    /// Feasible: integer model, indexed by `LVar`.
    Sat(Vec<i128>),
    /// Infeasible: responsible literal set.
    Unsat(Vec<Tag>),
    /// A limit stopped the check short of a verdict.
    Unknown(LiaLimit),
}

/// Deepest branch-and-bound path a check explores.
const MAX_BRANCH_DEPTH: usize = 200;

/// The limit that stopped an LIA check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiaLimit {
    /// The branch-and-bound node budget ran out.
    BranchNodes,
    /// A branch went deeper than [`MAX_BRANCH_DEPTH`].
    Depth,
    /// `i128` rational arithmetic overflowed.
    Overflow,
    /// The resource meter ran out.
    Meter,
}

impl std::fmt::Display for LiaLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiaLimit::BranchNodes => write!(f, "branch-node budget"),
            LiaLimit::Depth => write!(f, "depth {MAX_BRANCH_DEPTH}"),
            LiaLimit::Overflow => write!(f, "overflow"),
            LiaLimit::Meter => write!(f, "rlimit"),
        }
    }
}

/// A point to undo back to (see [`Lia::mark`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiaMark(usize);

/// Simplex state. Cloneable so branch-and-bound can snapshot.
#[derive(Clone)]
pub struct Lia {
    /// Number of columns (original + slack).
    num_vars: usize,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    /// Current assignment β.
    beta: Vec<Rat>,
    /// Rows: `basic[r]` = Σ tableau[r][col] * col (over nonbasic columns).
    rows: Vec<HashMap<usize, Rat>>,
    row_owner: Vec<usize>,
    /// For each var: Some(row) if basic.
    basic_in: Vec<Option<usize>>,
    /// Map from a normalized linear combination to its slack var.
    combos: HashMap<Vec<(i128, u32)>, usize>,
    /// Is this var required to be integral? (All real columns are; slacks of
    /// integer combos are too.)
    is_int: Vec<bool>,
    /// Bound changes, oldest first: (var, upper?, previous bound).
    bound_log: Vec<(usize, bool, Option<Bound>)>,
    /// Optional resource meter. `Arc`-shared so branch-and-bound clones keep
    /// charging the same account.
    meter: Option<Arc<ResourceMeter>>,
}

impl Default for Lia {
    fn default() -> Self {
        Self::new()
    }
}

impl Lia {
    pub fn new() -> Lia {
        Lia {
            num_vars: 0,
            lower: Vec::new(),
            upper: Vec::new(),
            beta: Vec::new(),
            rows: Vec::new(),
            row_owner: Vec::new(),
            basic_in: Vec::new(),
            combos: HashMap::default(),
            is_int: Vec::new(),
            bound_log: Vec::new(),
            meter: None,
        }
    }

    /// Attach a resource meter; pivots and branch splits are charged to it.
    pub fn set_meter(&mut self, meter: Arc<ResourceMeter>) {
        self.meter = Some(meter);
    }

    /// The current bounds, to return to with [`Lia::undo`].
    pub fn mark(&self) -> LiaMark {
        LiaMark(self.bound_log.len())
    }

    /// Restore every bound changed since `mark`. Columns, rows and the
    /// assignment stay.
    pub fn undo(&mut self, mark: LiaMark) {
        while self.bound_log.len() > mark.0 {
            let (v, upper, old) = self.bound_log.pop().expect("log above mark");
            if upper {
                self.upper[v] = old;
            } else {
                self.lower[v] = old;
            }
        }
    }

    pub fn new_var(&mut self) -> LVar {
        let v = self.num_vars;
        self.num_vars += 1;
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(Rat::ZERO);
        self.basic_in.push(None);
        self.is_int.push(true);
        LVar(v as u32)
    }

    /// Get (or create) the slack variable for a linear combination
    /// `Σ coeff * var` (the combination must be sorted by var and have at
    /// least one entry).
    fn slack_for(&mut self, combo: &[(i128, LVar)]) -> Result<usize, Overflow> {
        let key: Vec<(i128, u32)> = combo.iter().map(|&(c, v)| (c, v.0)).collect();
        if let Some(&s) = self.combos.get(&key) {
            return Ok(s);
        }
        let s = self.new_var().0 as usize;
        self.combos.insert(key, s);
        // Row: s = Σ coeff * var. Express RHS over *nonbasic* vars by
        // substituting any basic vars with their rows.
        let mut row: HashMap<usize, Rat> = HashMap::default();
        for &(c, v) in combo {
            let c = Rat::int(c);
            let vi = v.0 as usize;
            match self.basic_in[vi] {
                None => {
                    let e = row.entry(vi).or_insert(Rat::ZERO);
                    *e = e.add(&c)?;
                }
                Some(r) => {
                    let sub: Vec<(usize, Rat)> =
                        self.rows[r].iter().map(|(&k, &val)| (k, val)).collect();
                    for (k, val) in sub {
                        let e = row.entry(k).or_insert(Rat::ZERO);
                        *e = e.add(&c.mul(&val)?)?;
                    }
                }
            }
        }
        row.retain(|_, v| !v.is_zero());
        // β for the new slack.
        let mut val = Rat::ZERO;
        for (&k, &c) in &row {
            val = val.add(&c.mul(&self.beta[k])?)?;
        }
        self.beta[s] = val;
        let row_idx = self.rows.len();
        self.rows.push(row);
        self.row_owner.push(s);
        self.basic_in[s] = Some(row_idx);
        Ok(s)
    }

    /// gcd-normalize a combination: divide coefficients by their gcd and
    /// tighten the bound accordingly (valid because all vars are integers).
    /// Returns the reduced combo and the divisor.
    fn gcd_reduce(combo: &[(i128, LVar)]) -> (Vec<(i128, LVar)>, i128) {
        let mut g: i128 = 0;
        for &(c, _) in combo {
            g = crate::term::gcd(g, c);
        }
        if g <= 1 {
            return (combo.to_vec(), 1);
        }
        (combo.iter().map(|&(c, v)| (c / g, v)).collect(), g)
    }

    /// Resolve a nonempty combination to the column its bounds go on,
    /// creating a slack row for a combination of two or more terms, so rows
    /// can be made before any bound is asserted.
    pub fn register(&mut self, combo: &[(i128, LVar)]) -> Result<Col, Overflow> {
        let (combo, gcd) = Self::gcd_reduce(combo);
        let (var, scale) = self.target_var(&combo)?;
        Ok(Col { var, scale, gcd })
    }

    /// Assert `Σ coeff*var <= bound` tagged with `lit`.
    pub fn assert_upper(
        &mut self,
        combo: &[(i128, LVar)],
        bound: i128,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        let col = self.register(combo)?;
        self.assert_upper_col(col, bound, lit)
    }

    /// Assert `Σ coeff*var >= bound` tagged with `lit`.
    pub fn assert_lower(
        &mut self,
        combo: &[(i128, LVar)],
        bound: i128,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        let col = self.register(combo)?;
        self.assert_lower_col(col, bound, lit)
    }

    /// Assert `Σ coeff*var <= bound` for the combination `col` resolves.
    pub fn assert_upper_col(
        &mut self,
        col: Col,
        bound: i128,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        // combo = gcd * scale * var: the bound on var is
        // floor(bound / gcd) / scale, flipping direction if scale < 0.
        let b = Rat::new(bound.div_euclid(col.gcd), col.scale)?;
        if col.scale > 0 {
            self.set_upper(col.var, b, lit)
        } else {
            self.set_lower(col.var, b, lit)
        }
    }

    /// Assert `Σ coeff*var >= bound` for the combination `col` resolves.
    pub fn assert_lower_col(
        &mut self,
        col: Col,
        bound: i128,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        // ceil(bound / gcd) for the lower bound.
        let b = Rat::new(-((-bound).div_euclid(col.gcd)), col.scale)?;
        if col.scale > 0 {
            self.set_lower(col.var, b, lit)
        } else {
            self.set_upper(col.var, b, lit)
        }
    }

    /// Reduce a combination to a single variable (creating a slack if it has
    /// more than one term), returning (var, scale).
    fn target_var(&mut self, combo: &[(i128, LVar)]) -> Result<(usize, i128), Overflow> {
        match combo {
            [] => Err(Overflow),
            [(c, v)] => Ok((v.0 as usize, *c)),
            _ => {
                let mut sorted: Vec<(i128, LVar)> = combo.to_vec();
                sorted.sort_by_key(|&(_, v)| v);
                Ok((self.slack_for(&sorted)?, 1))
            }
        }
    }

    fn set_upper(
        &mut self,
        v: usize,
        b: Rat,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        if let Some(cur) = &self.upper[v] {
            if cur.value.le(&b)? {
                return Ok(None);
            }
        }
        if let Some(low) = self.lower[v] {
            if b.lt(&low.value)? {
                let mut lits = Vec::new();
                lits.extend(lit);
                lits.extend(low.reason);
                return Ok(Some(lits));
            }
        }
        self.bound_log.push((v, true, self.upper[v]));
        self.upper[v] = Some(Bound {
            value: b,
            reason: lit,
        });
        if self.basic_in[v].is_none() && b.lt(&self.beta[v])? {
            self.update_nonbasic(v, b)?;
        }
        Ok(None)
    }

    fn set_lower(
        &mut self,
        v: usize,
        b: Rat,
        lit: Option<Tag>,
    ) -> Result<Option<Vec<Tag>>, Overflow> {
        if let Some(cur) = &self.lower[v] {
            if b.le(&cur.value)? {
                return Ok(None);
            }
        }
        if let Some(up) = self.upper[v] {
            if up.value.lt(&b)? {
                let mut lits = Vec::new();
                lits.extend(lit);
                lits.extend(up.reason);
                return Ok(Some(lits));
            }
        }
        self.bound_log.push((v, false, self.lower[v]));
        self.lower[v] = Some(Bound {
            value: b,
            reason: lit,
        });
        if self.basic_in[v].is_none() && self.beta[v].lt(&b)? {
            self.update_nonbasic(v, b)?;
        }
        Ok(None)
    }

    /// Set a nonbasic variable's value and propagate into basic rows.
    fn update_nonbasic(&mut self, v: usize, val: Rat) -> Result<(), Overflow> {
        let delta = val.sub(&self.beta[v])?;
        self.beta[v] = val;
        for r in 0..self.rows.len() {
            if let Some(&c) = self.rows[r].get(&v) {
                let owner = self.row_owner[r];
                self.beta[owner] = self.beta[owner].add(&c.mul(&delta)?)?;
            }
        }
        Ok(())
    }

    /// Simplex feasibility check over the rationals.
    fn check_rational(&mut self) -> Result<Option<Vec<Tag>>, Overflow> {
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > 100_000 {
                return Err(Overflow); // degenerate cycling guard
            }
            // Find a basic variable violating a bound (Bland: smallest var).
            let mut violated: Option<(usize, bool)> = None; // (var, below_lower)
            for v in 0..self.num_vars {
                if self.basic_in[v].is_none() {
                    continue;
                }
                if let Some(l) = self.lower[v] {
                    if self.beta[v].lt(&l.value)? {
                        violated = Some((v, true));
                        break;
                    }
                }
                if let Some(u) = self.upper[v] {
                    if u.value.lt(&self.beta[v])? {
                        violated = Some((v, false));
                        break;
                    }
                }
            }
            let (xi, below) = match violated {
                None => return Ok(None),
                Some(x) => x,
            };
            let row_idx = self.basic_in[xi].unwrap();
            let row: Vec<(usize, Rat)> = {
                let mut r: Vec<(usize, Rat)> =
                    self.rows[row_idx].iter().map(|(&k, &v)| (k, v)).collect();
                r.sort_by_key(|&(k, _)| k); // Bland's rule determinism
                r
            };
            // Find a suitable nonbasic variable to pivot with.
            let mut pivot: Option<usize> = None;
            for &(xj, aij) in &row {
                let ok = if below {
                    (aij.is_pos() && self.can_increase(xj)?)
                        || (aij.is_neg() && self.can_decrease(xj)?)
                } else {
                    (aij.is_pos() && self.can_decrease(xj)?)
                        || (aij.is_neg() && self.can_increase(xj)?)
                };
                if ok {
                    pivot = Some(xj);
                    break;
                }
            }
            match pivot {
                None => {
                    // Conflict: the row's bounds imply infeasibility.
                    let mut lits = Vec::new();
                    if below {
                        lits.extend(self.lower[xi].and_then(|b| b.reason));
                        for &(xj, aij) in &row {
                            if aij.is_pos() {
                                lits.extend(self.upper[xj].and_then(|b| b.reason));
                            } else {
                                lits.extend(self.lower[xj].and_then(|b| b.reason));
                            }
                        }
                    } else {
                        lits.extend(self.upper[xi].and_then(|b| b.reason));
                        for &(xj, aij) in &row {
                            if aij.is_pos() {
                                lits.extend(self.lower[xj].and_then(|b| b.reason));
                            } else {
                                lits.extend(self.upper[xj].and_then(|b| b.reason));
                            }
                        }
                    }
                    lits.sort_unstable();
                    lits.dedup();
                    return Ok(Some(lits));
                }
                Some(xj) => {
                    let target = if below {
                        self.lower[xi].unwrap().value
                    } else {
                        self.upper[xi].unwrap().value
                    };
                    self.pivot_and_update(xi, xj, target)?;
                }
            }
        }
    }

    fn can_increase(&self, v: usize) -> Result<bool, Overflow> {
        match self.upper[v] {
            None => Ok(true),
            Some(u) => self.beta[v].lt(&u.value),
        }
    }

    fn can_decrease(&self, v: usize) -> Result<bool, Overflow> {
        match self.lower[v] {
            None => Ok(true),
            Some(l) => l.value.lt(&self.beta[v]),
        }
    }

    /// Pivot basic `xi` with nonbasic `xj` and set β(xi) = target.
    fn pivot_and_update(&mut self, xi: usize, xj: usize, target: Rat) -> Result<(), Overflow> {
        if let Some(m) = &self.meter {
            m.charge(Counter::SimplexPivots, 1);
        }
        let row_idx = self.basic_in[xi].unwrap();
        let aij = *self.rows[row_idx].get(&xj).expect("pivot coeff");
        let theta = target.sub(&self.beta[xi])?.div(&aij)?;
        self.beta[xi] = target;
        self.beta[xj] = self.beta[xj].add(&theta)?;
        // Update other basic vars' β.
        for r in 0..self.rows.len() {
            if r == row_idx {
                continue;
            }
            if let Some(&c) = self.rows[r].get(&xj) {
                let owner = self.row_owner[r];
                self.beta[owner] = self.beta[owner].add(&c.mul(&theta)?)?;
            }
        }
        // Rewrite the pivot row: xi = ... + aij*xj + ...  =>
        // xj = (xi - Σ_{k≠j} aik*xk) / aij
        let old_row = std::mem::take(&mut self.rows[row_idx]);
        let mut new_row: HashMap<usize, Rat> = HashMap::default();
        let inv = Rat::ONE.div(&aij)?;
        new_row.insert(xi, inv);
        for (&k, &c) in &old_row {
            if k != xj {
                new_row.insert(k, c.neg().mul(&inv)?);
            }
        }
        self.rows[row_idx] = new_row;
        self.row_owner[row_idx] = xj;
        self.basic_in[xi] = None;
        self.basic_in[xj] = Some(row_idx);
        // Substitute xj out of all other rows.
        for r in 0..self.rows.len() {
            if r == row_idx {
                continue;
            }
            if let Some(c) = self.rows[r].remove(&xj) {
                let pivot_row: Vec<(usize, Rat)> =
                    self.rows[row_idx].iter().map(|(&k, &v)| (k, v)).collect();
                for (k, v) in pivot_row {
                    let add = c.mul(&v)?;
                    let e = self.rows[r].entry(k).or_insert(Rat::ZERO);
                    *e = e.add(&add)?;
                }
                self.rows[r].retain(|_, v| !v.is_zero());
            }
        }
        Ok(())
    }

    /// Full check: rational feasibility then branch-and-bound integrality.
    /// The pivots of the rational check persist; branching works on
    /// clones, which are dropped, so the bounds here are only the asserted
    /// ones.
    pub fn check(&mut self, max_branch_nodes: usize) -> LiaOutcome {
        let mut budget = max_branch_nodes;
        match self.check_bb(&mut budget, 0) {
            Ok(LiaOutcome::Sat(model)) => LiaOutcome::Sat(model),
            Ok(other) => other,
            Err(Overflow) => LiaOutcome::Unknown(LiaLimit::Overflow),
        }
    }

    fn check_bb(&mut self, budget: &mut usize, depth: usize) -> Result<LiaOutcome, Overflow> {
        if *budget == 0 {
            return Ok(LiaOutcome::Unknown(LiaLimit::BranchNodes));
        }
        if depth > MAX_BRANCH_DEPTH {
            return Ok(LiaOutcome::Unknown(LiaLimit::Depth));
        }
        if let Some(m) = &self.meter {
            m.charge(Counter::BranchSplits, 1);
            if m.check("lia") {
                return Ok(LiaOutcome::Unknown(LiaLimit::Meter));
            }
        }
        *budget -= 1;
        if let Some(conflict) = self.check_rational()? {
            return Ok(LiaOutcome::Unsat(conflict));
        }
        // Find a fractional integer variable.
        let frac = (0..self.num_vars).find(|&v| self.is_int[v] && !self.beta[v].is_integer());
        let v = match frac {
            None => {
                let model = (0..self.num_vars).map(|v| self.beta[v].floor()).collect();
                return Ok(LiaOutcome::Sat(model));
            }
            Some(v) => v,
        };
        let val = self.beta[v];
        // Branch x <= floor(val).
        let mut left = self.clone();
        let fl = Rat::int(val.floor());
        let left_out = match left.set_upper(v, fl, None)? {
            Some(lits) => LiaOutcome::Unsat(lits),
            None => left.check_bb(budget, depth + 1)?,
        };
        if let LiaOutcome::Sat(_) = left_out {
            return Ok(left_out);
        }
        // Branch x >= ceil(val).
        let mut right = self.clone();
        let ce = Rat::int(val.ceil());
        let right_out = match right.set_lower(v, ce, None)? {
            Some(lits) => LiaOutcome::Unsat(lits),
            None => right.check_bb(budget, depth + 1)?,
        };
        match (left_out, right_out) {
            (_, LiaOutcome::Sat(m)) => Ok(LiaOutcome::Sat(m)),
            (LiaOutcome::Unsat(mut a), LiaOutcome::Unsat(b)) => {
                a.extend(b);
                a.sort_unstable();
                a.dedup();
                Ok(LiaOutcome::Unsat(a))
            }
            (LiaOutcome::Unknown(limit), _) | (_, LiaOutcome::Unknown(limit)) => {
                Ok(LiaOutcome::Unknown(limit))
            }
            (LiaOutcome::Sat(_), _) => unreachable!("a sat left branch returned above"),
        }
    }

    /// Current rational value of a variable: after a Sat check, the
    /// relaxation's value, which branch-and-bound may have moved in the
    /// returned model.
    pub fn value(&self, v: LVar) -> Rat {
        self.beta[v.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: u32) -> Tag {
        n
    }

    #[test]
    fn rat_basics() {
        let half = Rat::new(1, 2).unwrap();
        let third = Rat::new(2, 6).unwrap();
        assert_eq!(third, Rat::new(1, 3).unwrap());
        let sum = half.add(&third).unwrap();
        assert_eq!(sum, Rat::new(5, 6).unwrap());
        assert_eq!(sum.floor(), 0);
        assert_eq!(sum.ceil(), 1);
        assert_eq!(Rat::new(-3, 2).unwrap().floor(), -2);
        assert_eq!(Rat::new(-3, 2).unwrap().ceil(), -1);
    }

    #[test]
    fn feasible_simple() {
        // x >= 1, x <= 5
        let mut lia = Lia::new();
        let x = lia.new_var();
        assert!(lia
            .assert_lower(&[(1, x)], 1, Some(lit(0)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, x)], 5, Some(lit(2)))
            .unwrap()
            .is_none());
        match lia.check(1000) {
            LiaOutcome::Sat(m) => {
                let v = m[x.0 as usize];
                assert!((1..=5).contains(&v));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_bounds_conflict() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        assert!(lia
            .assert_lower(&[(1, x)], 10, Some(lit(0)))
            .unwrap()
            .is_none());
        let conflict = lia.assert_upper(&[(1, x)], 5, Some(lit(2))).unwrap();
        assert_eq!(conflict, Some(vec![lit(2), lit(0)]));
    }

    #[test]
    fn simplex_combination_infeasible() {
        // x + y >= 10, x <= 3, y <= 3  => infeasible
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        assert!(lia
            .assert_lower(&[(1, x), (1, y)], 10, Some(lit(0)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, x)], 3, Some(lit(2)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, y)], 3, Some(lit(4)))
            .unwrap()
            .is_none());
        match lia.check(1000) {
            LiaOutcome::Unsat(lits) => {
                assert!(lits.contains(&lit(0)));
                assert!(lits.contains(&lit(2)));
                assert!(lits.contains(&lit(4)));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn simplex_combination_feasible() {
        // x + y >= 5, x - y <= 1, y <= 4 has integer solutions (e.g., 2,3... wait x>=? )
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        assert!(lia
            .assert_lower(&[(1, x), (1, y)], 5, Some(lit(0)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, x), (-1, y)], 1, Some(lit(2)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, y)], 4, Some(lit(4)))
            .unwrap()
            .is_none());
        match lia.check(1000) {
            LiaOutcome::Sat(m) => {
                let (vx, vy) = (m[x.0 as usize], m[y.0 as usize]);
                assert!(vx + vy >= 5);
                assert!(vx - vy <= 1);
                assert!(vy <= 4);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_branch() {
        // 2x = 2y + 1 has no integer solution: 2x - 2y >= 1 and <= 1.
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        assert!(lia
            .assert_lower(&[(2, x), (-2, y)], 1, Some(lit(0)))
            .unwrap()
            .is_none());
        // gcd normalization detects the parity conflict eagerly: the reduced
        // bounds are x - y >= 1 and x - y <= 0.
        let conflict = lia
            .assert_upper(&[(2, x), (-2, y)], 1, Some(lit(2)))
            .unwrap();
        let lits = conflict.expect("eager conflict");
        assert!(lits.contains(&lit(0)) && lits.contains(&lit(2)));
    }

    #[test]
    fn integer_feasible_fractional_relaxation() {
        // 3x + 3y = 6 with x,y in [0,2] has integer solutions; relaxation is
        // immediately feasible but possibly fractional.
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        assert!(lia
            .assert_lower(&[(3, x), (3, y)], 6, Some(lit(0)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(3, x), (3, y)], 6, Some(lit(2)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_lower(&[(1, x)], 0, Some(lit(4)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, x)], 2, Some(lit(6)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_lower(&[(1, y)], 0, Some(lit(8)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, y)], 2, Some(lit(10)))
            .unwrap()
            .is_none());
        match lia.check(10_000) {
            LiaOutcome::Sat(m) => {
                assert_eq!(3 * m[x.0 as usize] + 3 * m[y.0 as usize], 6);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn chain_of_inequalities() {
        // x0 <= x1 <= ... <= x9, x0 >= 100, x9 <= 99 -> unsat
        let mut lia = Lia::new();
        let vars: Vec<LVar> = (0..10).map(|_| lia.new_var()).collect();
        for i in 0..9 {
            assert!(lia
                .assert_upper(
                    &[(1, vars[i]), (-1, vars[i + 1])],
                    0,
                    Some(lit(20 + 2 * i as u32))
                )
                .unwrap()
                .is_none());
        }
        assert!(lia
            .assert_lower(&[(1, vars[0])], 100, Some(lit(0)))
            .unwrap()
            .is_none());
        assert!(lia
            .assert_upper(&[(1, vars[9])], 99, Some(lit(2)))
            .unwrap()
            .is_none());
        match lia.check(10_000) {
            LiaOutcome::Unsat(lits) => {
                assert!(lits.contains(&lit(0)) && lits.contains(&lit(2)));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    /// SplitMix64, so each seed names the same combinations everywhere.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn coin(&mut self) -> bool {
            self.next().is_multiple_of(2)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i128, hi: i128) -> i128 {
            lo + (self.next() % (hi - lo + 1) as u64) as i128
        }
    }

    /// Oracle for resolved bounds: for random combinations of 1–3 variables
    /// (common factors, negative leading coefficients, odd and negative
    /// bounds), a bound asserted through `register` and
    /// `assert_{upper,lower}_col` admits exactly the integer points in
    /// [-4, 4]^n at which `Σ c·x ≤ b` (or `≥ b`) evaluates true.
    #[test]
    fn resolved_bounds_admit_exactly_the_satisfying_points() {
        for seed in 0..48u64 {
            let mut rng = Rng(seed);
            let mut lia = Lia::new();
            let vars: Vec<LVar> = (0..3).map(|_| lia.new_var()).collect();
            for _ in 0..4 {
                let n = rng.range(1, 3) as usize;
                let g = rng.range(1, 4);
                let combo: Vec<(i128, LVar)> = (0..n)
                    .map(|i| {
                        let c = rng.range(1, 3) * if rng.coin() { -1 } else { 1 };
                        (g * c, vars[i])
                    })
                    .rev()
                    .collect();
                let bound = rng.range(-9, 9);
                let upper = rng.coin();
                let col = lia.register(&combo).unwrap();
                let mark = lia.mark();
                let points = 9usize.pow(n as u32);
                for p in 0..points {
                    let xs: Vec<i128> = (0..n)
                        .map(|i| (p / 9usize.pow(i as u32) % 9) as i128 - 4)
                        .collect();
                    for (i, &x) in xs.iter().enumerate() {
                        let pin = lia.register(&[(1, vars[i])]).unwrap();
                        assert!(lia.assert_upper_col(pin, x, None).unwrap().is_none());
                        assert!(lia.assert_lower_col(pin, x, None).unwrap().is_none());
                    }
                    let sum: i128 = combo.iter().map(|&(c, v)| c * xs[v.0 as usize]).sum();
                    let want = if upper { sum <= bound } else { sum >= bound };
                    let eager = if upper {
                        lia.assert_upper_col(col, bound, Some(lit(1)))
                    } else {
                        lia.assert_lower_col(col, bound, Some(lit(1)))
                    };
                    let admitted = match eager.unwrap() {
                        Some(_) => false,
                        None => match lia.check(100) {
                            LiaOutcome::Sat(_) => true,
                            LiaOutcome::Unsat(_) => false,
                            other => panic!("seed {seed}: {other:?}"),
                        },
                    };
                    assert_eq!(
                        admitted,
                        want,
                        "seed {seed}: {combo:?} {} {bound} at {xs:?}",
                        if upper { "<=" } else { ">=" }
                    );
                    lia.undo(mark);
                }
            }
        }
    }

    /// `x - y` and `y - x` are two columns (the solver resolves each
    /// ordered pair of shared terms on its own), and resolving a
    /// combination again finds the same column.
    #[test]
    fn reversed_difference_is_another_column() {
        let mut lia = Lia::new();
        let (x, y) = (lia.new_var(), lia.new_var());
        let xy = lia.register(&[(1, x), (-1, y)]).unwrap();
        let yx = lia.register(&[(-1, x), (1, y)]).unwrap();
        assert_ne!(xy.var, yx.var);
        assert_eq!(lia.register(&[(-1, y), (1, x)]).unwrap(), xy);
        assert_eq!(lia.register(&[(3, y), (-3, x)]).unwrap().var, yx.var);
    }
}
