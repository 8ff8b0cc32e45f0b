//! `by(bit_vector)` proofs: the assertion's machine integers are
//! reinterpreted as bit-vectors and the query is decided by bit-blasting
//! (paper §3.3). Outside the assertion the same variables remain SMT
//! integers — the isolation is what keeps both encodings stable.

use std::collections::HashMap;
use std::sync::Arc;

use veris_obs::ResourceMeter;
use veris_smt::bv::{prove_bv, BvResult};
use veris_smt::term::{TermId, TermStore};
use veris_vir::expr::{BinOp, Expr, ExprX, UnOp};
use veris_vir::ty::Ty;

/// Why a formula cannot be bit-blasted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BvError {
    /// Unbounded `int`/`nat` values cannot be reinterpreted as bit-vectors.
    UnboundedInt(String),
    /// Mixed bit widths in one assertion.
    MixedWidth(u32, u32),
    /// Signed machine integers are not supported by the unsigned blaster.
    Signed,
    /// Construct with no bit-vector interpretation (collections, datatypes).
    Unsupported(String),
    /// Width above 64 bits.
    TooWide(u32),
}

/// Outcome of a bit-vector proof attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BvOutcome {
    Proved,
    /// A counterexample assignment (variable name -> value).
    Refuted(Vec<(String, u64)>),
    Unknown(String),
}

/// Infer the single machine width used in the expression.
fn infer_width(e: &Expr) -> Result<Option<u32>, BvError> {
    let mut width: Option<u32> = None;
    fn walk(e: &Expr, width: &mut Option<u32>) -> Result<(), BvError> {
        match e.ty() {
            Ty::UInt(w) => {
                if w > 64 {
                    return Err(BvError::TooWide(w));
                }
                match *width {
                    None => *width = Some(w),
                    Some(prev) if prev != w => return Err(BvError::MixedWidth(prev, w)),
                    _ => {}
                }
            }
            Ty::SInt(_) => return Err(BvError::Signed),
            _ => {}
        }
        for k in veris_vir::expr::children(e) {
            walk(&k, width)?;
        }
        Ok(())
    }
    walk(e, &mut width)?;
    Ok(width)
}

struct BvEnc<'a> {
    store: &'a mut TermStore,
    width: u32,
    vars: HashMap<String, TermId>,
}

impl<'a> BvEnc<'a> {
    fn bv_of_int(&mut self, v: i128) -> Result<TermId, BvError> {
        if v < 0 {
            return Err(BvError::Unsupported("negative bit-vector literal".into()));
        }
        Ok(self.store.mk_bv_const(self.width, v as u64))
    }

    fn enc(&mut self, e: &Expr) -> Result<TermId, BvError> {
        match &**e {
            ExprX::BoolLit(b) => Ok(self.store.mk_bool(*b)),
            ExprX::IntLit(v, _) => self.bv_of_int(*v),
            ExprX::Var(n, t) => {
                if let Some(&t) = self.vars.get(n) {
                    return Ok(t);
                }
                let term = match t {
                    Ty::Bool => {
                        let s = self.store.bool_sort();
                        self.store.mk_var(n, s)
                    }
                    Ty::UInt(w) if *w <= 64 => {
                        let s = self.store.bv_sort(self.width.max(*w));
                        self.store.mk_var(n, s)
                    }
                    Ty::Int | Ty::Nat => return Err(BvError::UnboundedInt(n.clone())),
                    other => return Err(BvError::Unsupported(format!("var of type {other}"))),
                };
                self.vars.insert(n.clone(), term);
                Ok(term)
            }
            ExprX::Unary(UnOp::Not, a) => {
                let ta = self.enc(a)?;
                Ok(self.store.mk_not(ta))
            }
            ExprX::Unary(UnOp::Neg, _) => Err(BvError::Unsupported("negation".into())),
            ExprX::Binary(op, a, b) => {
                let (ta, tb) = (self.enc(a)?, self.enc(b)?);
                Ok(match op {
                    BinOp::Add => self.store.mk_bv_add(ta, tb),
                    BinOp::Sub => self.store.mk_bv_sub(ta, tb),
                    BinOp::Mul => self.store.mk_bv_mul(ta, tb),
                    BinOp::Div => self.store.mk_bv_udiv(ta, tb),
                    BinOp::Mod => self.store.mk_bv_urem(ta, tb),
                    BinOp::BitAnd => self.store.mk_bv_and(ta, tb),
                    BinOp::BitOr => self.store.mk_bv_or(ta, tb),
                    BinOp::BitXor => self.store.mk_bv_xor(ta, tb),
                    BinOp::Shl => self.store.mk_bv_shl(ta, tb),
                    BinOp::Shr => self.store.mk_bv_lshr(ta, tb),
                    BinOp::And => self.store.mk_and(vec![ta, tb]),
                    BinOp::Or => self.store.mk_or(vec![ta, tb]),
                    BinOp::Implies => self.store.mk_implies(ta, tb),
                    BinOp::Iff => self.store.mk_iff(ta, tb),
                    BinOp::Eq => self.store.mk_eq(ta, tb),
                    BinOp::Ne => {
                        let eq = self.store.mk_eq(ta, tb);
                        self.store.mk_not(eq)
                    }
                    BinOp::Lt => self.store.mk_bv_ult(ta, tb),
                    BinOp::Le => self.store.mk_bv_ule(ta, tb),
                    BinOp::Gt => self.store.mk_bv_ult(tb, ta),
                    BinOp::Ge => self.store.mk_bv_ule(tb, ta),
                })
            }
            ExprX::Ite(c, t, f) => {
                let tc = self.enc(c)?;
                let tt = self.enc(t)?;
                let tf = self.enc(f)?;
                Ok(self.store.mk_ite(tc, tt, tf))
            }
            ExprX::Quant {
                forall: true,
                vars,
                body,
                ..
            } => {
                // Universals in a validity goal become free variables.
                for (n, t) in vars {
                    match t {
                        Ty::UInt(w) if *w <= 64 => {
                            let s = self.store.bv_sort(*w);
                            let v = self.store.mk_var(n, s);
                            self.vars.insert(n.clone(), v);
                        }
                        Ty::Bool => {
                            let s = self.store.bool_sort();
                            let v = self.store.mk_var(n, s);
                            self.vars.insert(n.clone(), v);
                        }
                        other => {
                            return Err(BvError::Unsupported(format!(
                                "quantified var of type {other}"
                            )))
                        }
                    }
                }
                self.enc(body)
            }
            ExprX::Let(n, v, body) => {
                let tv = self.enc(v)?;
                self.vars.insert(n.clone(), tv);
                let r = self.enc(body);
                self.vars.remove(n);
                r
            }
            other => Err(BvError::Unsupported(format!("{other:?}"))),
        }
    }
}

/// Prove a boolean VIR expression by bit-blasting, charging `meter` for
/// every blasted clause and SAT search step. An exhausted meter gives
/// `Unknown` with the meter's exhaustion message.
pub fn prove_bit_vector(e: &Expr, meter: &Arc<ResourceMeter>) -> Result<BvOutcome, BvError> {
    let width = infer_width(e)?.unwrap_or(64);
    let mut store = TermStore::new();
    let mut enc = BvEnc {
        store: &mut store,
        width,
        vars: HashMap::new(),
    };
    let goal = enc.enc(e)?;
    let vars = enc.vars.clone();
    match prove_bv(&mut store, goal, meter) {
        Ok(()) => Ok(BvOutcome::Proved),
        Err(BvResult::Sat(model)) => {
            let mut cex: Vec<(String, u64)> = vars
                .iter()
                .filter_map(|(n, t)| model.get(t).map(|&v| (n.clone(), v)))
                .collect();
            cex.sort();
            Ok(BvOutcome::Refuted(cex))
        }
        Err(BvResult::Unknown) => Ok(BvOutcome::Unknown(meter.exhaustion_message())),
        Err(BvResult::Unsat) => unreachable!("prove_bv maps unsat to Ok"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veris_vir::expr::{lit, var, ExprExt};

    fn meter() -> Arc<ResourceMeter> {
        Arc::new(ResourceMeter::new())
    }

    #[test]
    fn mask_is_mod() {
        // x & 511 == x % 512 — the paper's example, at u64.
        let x = var("x", Ty::UInt(64));
        let e = x
            .bit_and(lit(511, Ty::UInt(64)))
            .eq_e(x.modulo(lit(512, Ty::UInt(64))));
        assert_eq!(prove_bit_vector(&e, &meter()), Ok(BvOutcome::Proved));
    }

    #[test]
    fn wrapping_add_not_monotone() {
        // x + 1 > x is FALSE for wrapping bv arithmetic (x = MAX).
        let x = var("x", Ty::UInt(8));
        let e = x.add(lit(1, Ty::UInt(8))).gt(x.clone());
        match prove_bit_vector(&e, &meter()) {
            Ok(BvOutcome::Refuted(cex)) => {
                assert_eq!(cex, vec![("x".to_owned(), 255)]);
            }
            other => panic!("expected refuted: {other:?}"),
        }
    }

    #[test]
    fn shift_identity() {
        // (x << 3) >> 3 == x & 0x1f at u8.
        let x = var("x", Ty::UInt(8));
        let l = x.shl(lit(3, Ty::UInt(8))).shr(lit(3, Ty::UInt(8)));
        let r = x.bit_and(lit(0x1f, Ty::UInt(8)));
        let e = l.eq_e(r);
        assert_eq!(prove_bit_vector(&e, &meter()), Ok(BvOutcome::Proved));
    }

    #[test]
    fn unbounded_ints_rejected() {
        let x = var("x", Ty::Int);
        let e = x.ge(lit(0, Ty::Int));
        assert!(matches!(
            prove_bit_vector(&e, &meter()),
            Err(BvError::UnboundedInt(_)) | Ok(_)
        ));
    }

    #[test]
    fn xor_swap() {
        // Classic xor swap: ((x^y)^y) == x.
        let x = var("x", Ty::UInt(16));
        let y = var("y", Ty::UInt(16));
        let e = x.bit_xor(y.clone()).bit_xor(y.clone()).eq_e(x.clone());
        assert_eq!(prove_bit_vector(&e, &meter()), Ok(BvOutcome::Proved));
    }

    #[test]
    fn quantified_bv() {
        use veris_vir::expr::forall;
        let i = var("i", Ty::UInt(16));
        let body = i.bit_and(lit(0, Ty::UInt(16))).eq_e(lit(0, Ty::UInt(16)));
        let e = forall(vec![("i", Ty::UInt(16))], body, "q");
        let _ = i;
        assert_eq!(prove_bit_vector(&e, &meter()), Ok(BvOutcome::Proved));
    }

    #[test]
    fn exhausted_budget_is_named() {
        // The paper's mask example needs SAT conflicts, so a 1-unit rlimit
        // trips inside the search and the verdict names the meter.
        let x = var("x", Ty::UInt(64));
        let e = x
            .bit_and(lit(511, Ty::UInt(64)))
            .eq_e(x.modulo(lit(512, Ty::UInt(64))));
        let tiny = Arc::new(ResourceMeter::with_limit(Some(1)));
        match prove_bit_vector(&e, &tiny) {
            Ok(BvOutcome::Unknown(r)) => {
                assert!(r.starts_with("resource limit exceeded"), "{r}")
            }
            other => panic!("expected a named budget trip: {other:?}"),
        }
    }
}
