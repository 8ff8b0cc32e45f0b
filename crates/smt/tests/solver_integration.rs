//! End-to-end tests of the DPLL(T) solver: boolean structure, EUF, LIA,
//! their combination, quantifier instantiation, datatypes, and EPR mode.

use veris_smt::solver::{Config, SmtResult, Solver};
use veris_smt::term::TermId;

fn solver() -> Solver {
    Solver::new(Config::default())
}

fn assert_unsat(s: &mut Solver) {
    match s.check() {
        SmtResult::Unsat => {}
        other => panic!("expected unsat, got {other:?}"),
    }
}

fn assert_sat(s: &mut Solver) -> veris_smt::Model {
    match s.check() {
        SmtResult::Sat(m) => m,
        other => panic!("expected sat, got {other:?}"),
    }
}

#[test]
fn propositional_unsat() {
    let mut s = solver();
    let p = s.store.mk_var("p", s.store.bool_sort());
    let q = s.store.mk_var("q", s.store.bool_sort());
    let pq = s.store.mk_or(vec![p, q]);
    let np = s.store.mk_not(p);
    let nq = s.store.mk_not(q);
    s.assert(pq);
    s.assert(np);
    s.assert(nq);
    assert_unsat(&mut s);
}

#[test]
fn euf_transitivity_with_function() {
    // f(x) = y, x = z, f(z) != y  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let z = s.store.mk_var("z", int);
    let fx = s.store.mk_app(f, vec![x]);
    let fz = s.store.mk_app(f, vec![z]);
    let a1 = s.store.mk_eq(fx, y);
    let a2 = s.store.mk_eq(x, z);
    let eq3 = s.store.mk_eq(fz, y);
    let a3 = s.store.mk_not(eq3);
    s.assert(a1);
    s.assert(a2);
    s.assert(a3);
    assert_unsat(&mut s);
}

#[test]
fn lia_tight_window_sat() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let two = s.store.mk_int(2);
    let four = s.store.mk_int(4);
    let gt = s.store.mk_gt(x, two);
    let lt = s.store.mk_lt(x, four);
    s.assert(gt);
    s.assert(lt);
    let m = assert_sat(&mut s);
    assert_eq!(m.ints.get(&x), Some(&3));
    assert!(!m.maybe_spurious);
}

#[test]
fn lia_empty_window_unsat() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let two = s.store.mk_int(2);
    let three = s.store.mk_int(3);
    let gt = s.store.mk_gt(x, two);
    let lt = s.store.mk_lt(x, three);
    s.assert(gt);
    s.assert(lt);
    assert_unsat(&mut s);
}

#[test]
fn euf_lia_combination() {
    // f(x) <= 2 && f(x) >= 3  =>  unsat (f(x) shared between EUF and LIA).
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let x = s.store.mk_var("x", int);
    let fx = s.store.mk_app(f, vec![x]);
    let two = s.store.mk_int(2);
    let three = s.store.mk_int(3);
    let le = s.store.mk_le(fx, two);
    let ge = s.store.mk_ge(fx, three);
    s.assert(le);
    s.assert(ge);
    assert_unsat(&mut s);
}

#[test]
fn euf_equality_feeds_lia() {
    // x = y && f(x) - f(y) >= 1  =>  unsat (congruence f(x)=f(y) must reach LIA).
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let fx = s.store.mk_app(f, vec![x]);
    let fy = s.store.mk_app(f, vec![y]);
    let eq = s.store.mk_eq(x, y);
    let diff = s.store.mk_sub(fx, fy);
    let one = s.store.mk_int(1);
    let ge = s.store.mk_ge(diff, one);
    s.assert(eq);
    s.assert(ge);
    assert_unsat(&mut s);
}

#[test]
fn int_disequality_via_trichotomy() {
    // x != y && x <= y && y <= x  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let eq = s.store.mk_eq(x, y);
    let neq = s.store.mk_not(eq);
    let le1 = s.store.mk_le(x, y);
    let le2 = s.store.mk_le(y, x);
    s.assert(neq);
    s.assert(le1);
    s.assert(le2);
    assert_unsat(&mut s);
}

#[test]
fn lia_to_euf_direction() {
    // x <= y && y <= x && f(x) != f(y): requires deriving x = y from bounds.
    // Our solver finds this through the trichotomy lemma on the (registered)
    // equality atom only if one exists; here f(x) != f(y) gives the EUF
    // disequality, and the bounds give x = y in LIA, but without an x = y
    // atom the combination may be missed. The solver must NOT claim unsat
    // wrongly; sat or unknown are acceptable, unsat is required only when an
    // equality atom exists. With the atom present, it must be unsat.
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let fx = s.store.mk_app(f, vec![x]);
    let fy = s.store.mk_app(f, vec![y]);
    let le1 = s.store.mk_le(x, y);
    let le2 = s.store.mk_le(y, x);
    let feq = s.store.mk_eq(fx, fy);
    let fneq = s.store.mk_not(feq);
    // Provide the bridging atom explicitly: (x = y) || !(x = y) is a
    // tautology whose atom lets the solver case-split.
    let xy = s.store.mk_eq(x, y);
    let nxy = s.store.mk_not(xy);
    let tauto = s.store.mk_or(vec![xy, nxy]);
    s.assert(le1);
    s.assert(le2);
    s.assert(fneq);
    s.assert(tauto);
    assert_unsat(&mut s);
}

#[test]
fn quantifier_instantiation_basic() {
    // forall x. f(x) >= 0  &&  f(5) < 0  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let bx = s.store.mk_bound(0, int);
    let fbx = s.store.mk_app(f, vec![bx]);
    let zero = s.store.mk_int(0);
    let body = s.store.mk_ge(fbx, zero);
    let q = s
        .store
        .mk_forall(vec![(0, int)], vec![vec![fbx]], body, "f_nonneg");
    let five = s.store.mk_int(5);
    let f5 = s.store.mk_app(f, vec![five]);
    let neg = s.store.mk_lt(f5, zero);
    s.assert(q);
    s.assert(neg);
    assert_unsat(&mut s);
}

#[test]
fn quantifier_chained_instantiation() {
    // forall x. f(x) = f(g(x)) ; f(a) != f(g(g(a)))  =>  unsat
    // Needs two rounds: instantiate at a, then at g(a).
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let g = s.store.declare_fun("g", vec![int], int);
    let bx = s.store.mk_bound(0, int);
    let fx = s.store.mk_app(f, vec![bx]);
    let gx = s.store.mk_app(g, vec![bx]);
    let fgx = s.store.mk_app(f, vec![gx]);
    let body = s.store.mk_eq(fx, fgx);
    let q = s
        .store
        .mk_forall(vec![(0, int)], vec![vec![gx]], body, "f_g");
    let a = s.store.mk_var("a", int);
    let ga = s.store.mk_app(g, vec![a]);
    let gga = s.store.mk_app(g, vec![ga]);
    let fa = s.store.mk_app(f, vec![a]);
    let fgga = s.store.mk_app(f, vec![gga]);
    let eq = s.store.mk_eq(fa, fgga);
    let neq = s.store.mk_not(eq);
    s.assert(q);
    s.assert(neq);
    assert_unsat(&mut s);
}

#[test]
fn quantifier_sat_is_flagged_spurious() {
    // forall x. f(x) >= 0 with a consistent ground fact: sat but flagged.
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let bx = s.store.mk_bound(0, int);
    let fbx = s.store.mk_app(f, vec![bx]);
    let zero = s.store.mk_int(0);
    let body = s.store.mk_ge(fbx, zero);
    let q = s
        .store
        .mk_forall(vec![(0, int)], vec![vec![fbx]], body, "f_nonneg");
    let seven = s.store.mk_int(7);
    let f7 = s.store.mk_app(f, vec![seven]);
    let pos = s.store.mk_ge(f7, zero);
    s.assert(q);
    s.assert(pos);
    let m = assert_sat(&mut s);
    assert!(m.maybe_spurious);
}

#[test]
fn existential_skolemized() {
    // exists x. x > 10 is sat; with forall wrapper: exists x. f(x) > 10 and
    // forall y. f(y) < 5 => unsat.
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let bx = s.store.mk_bound(0, int);
    let fx = s.store.mk_app(f, vec![bx]);
    let ten = s.store.mk_int(10);
    let body_ex = s.store.mk_gt(fx, ten);
    let ex = s.store.mk_exists(vec![(0, int)], vec![], body_ex, "ex_big");
    let by = s.store.mk_bound(1, int);
    let fy = s.store.mk_app(f, vec![by]);
    let five = s.store.mk_int(5);
    let body_all = s.store.mk_lt(fy, five);
    let all = s
        .store
        .mk_forall(vec![(1, int)], vec![vec![fy]], body_all, "all_small");
    s.assert(ex);
    s.assert(all);
    assert_unsat(&mut s);
}

#[test]
fn negated_forall_becomes_witness() {
    // not (forall x. f(x) <= 100) && forall y. f(y) <= 50  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let bx = s.store.mk_bound(0, int);
    let fx = s.store.mk_app(f, vec![bx]);
    let hundred = s.store.mk_int(100);
    let b1 = s.store.mk_le(fx, hundred);
    let q1 = s
        .store
        .mk_forall(vec![(0, int)], vec![vec![fx]], b1, "le100");
    let nq1 = s.store.mk_not(q1);
    let by = s.store.mk_bound(1, int);
    let fy = s.store.mk_app(f, vec![by]);
    let fifty = s.store.mk_int(50);
    let b2 = s.store.mk_le(fy, fifty);
    let q2 = s
        .store
        .mk_forall(vec![(1, int)], vec![vec![fy]], b2, "le50");
    s.assert(nq1);
    s.assert(q2);
    assert_unsat(&mut s);
}

#[test]
fn datatype_option_reasoning() {
    // Option<Int>: x = Some(5) => is_some(x) && get(x) = 5
    let mut s = solver();
    let int = s.store.int_sort();
    let opt = s.store.declare_datatype(
        "OptionInt",
        vec![
            ("None".into(), vec![]),
            ("Some".into(), vec![("val".into(), int)]),
        ],
    );
    let osort = s.store.datatype_sort(opt);
    let x = s.store.mk_var("x", osort);
    let five = s.store.mk_int(5);
    let some5 = s.store.mk_dt_ctor(opt, 1, vec![five]);
    let eq = s.store.mk_eq(x, some5);
    // Claim: val(x) != 5 — should be unsat together with x = Some(5).
    let valx = s.store.mk_dt_sel(opt, 1, 0, x);
    let veq = s.store.mk_eq(valx, five);
    let nveq = s.store.mk_not(veq);
    s.assert(eq);
    s.assert(nveq);
    assert_unsat(&mut s);
}

#[test]
fn datatype_ctor_distinctness() {
    // x = None && x = Some(y)  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let opt = s.store.declare_datatype(
        "OptI",
        vec![("N".into(), vec![]), ("S".into(), vec![("v".into(), int)])],
    );
    let osort = s.store.datatype_sort(opt);
    let x = s.store.mk_var("x", osort);
    let y = s.store.mk_var("y", int);
    let none = s.store.mk_dt_ctor(opt, 0, vec![]);
    let some = s.store.mk_dt_ctor(opt, 1, vec![y]);
    let e1 = s.store.mk_eq(x, none);
    let e2 = s.store.mk_eq(x, some);
    s.assert(e1);
    s.assert(e2);
    assert_unsat(&mut s);
}

#[test]
fn datatype_injectivity() {
    // Some(a) = Some(b) && a != b  =>  unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let opt = s.store.declare_datatype(
        "OptJ",
        vec![
            ("NJ".into(), vec![]),
            ("SJ".into(), vec![("vj".into(), int)]),
        ],
    );
    let a = s.store.mk_var("a", int);
    let b = s.store.mk_var("b", int);
    let sa = s.store.mk_dt_ctor(opt, 1, vec![a]);
    let sb = s.store.mk_dt_ctor(opt, 1, vec![b]);
    let eq = s.store.mk_eq(sa, sb);
    let ab = s.store.mk_eq(a, b);
    let nab = s.store.mk_not(ab);
    s.assert(eq);
    s.assert(nab);
    assert_unsat(&mut s);
}

#[test]
fn div_mod_axioms() {
    // x = 7 => x div 2 = 3 && x mod 2 = 1
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let seven = s.store.mk_int(7);
    let two = s.store.mk_int(2);
    let three = s.store.mk_int(3);
    let eq = s.store.mk_eq(x, seven);
    let d = s.store.mk_int_div(x, two);
    let deq = s.store.mk_eq(d, three);
    let ndeq = s.store.mk_not(deq);
    s.assert(eq);
    s.assert(ndeq);
    assert_unsat(&mut s);
}

#[test]
fn mod_bounds() {
    // y > 0 => 0 <= x mod y < y
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let zero = s.store.mk_int(0);
    let m = s.store.mk_int_mod(x, y);
    let ypos = s.store.mk_gt(y, zero);
    let in_range = {
        let lo = s.store.mk_le(zero, m);
        let hi = s.store.mk_lt(m, y);
        s.store.mk_and(vec![lo, hi])
    };
    let n = s.store.mk_not(in_range);
    s.assert(ypos);
    s.assert(n);
    assert_unsat(&mut s);
}

#[test]
fn ite_lifting() {
    // (if p then 1 else 2) = 2 && p  =>  unsat
    let mut s = solver();
    let _int = s.store.int_sort();
    let p = s.store.mk_var("p", s.store.bool_sort());
    let one = s.store.mk_int(1);
    let two = s.store.mk_int(2);
    let ite = s.store.mk_ite(p, one, two);
    let eq = s.store.mk_eq(ite, two);
    s.assert(eq);
    s.assert(p);
    assert_unsat(&mut s);
}

#[test]
fn epr_mode_total_order() {
    // EPR: total order axioms + a < b < c, then c <= a  =>  unsat.
    let cfg = Config {
        epr_mode: true,
        ..Config::default()
    };
    let mut s = Solver::new(cfg);
    let elem = s.store.uninterp_sort("Elem");
    let lt = s
        .store
        .declare_fun("lt", vec![elem, elem], s.store.bool_sort());
    // Transitivity: forall x y z. lt(x,y) && lt(y,z) => lt(x,z)
    let bx = s.store.mk_bound(0, elem);
    let by = s.store.mk_bound(1, elem);
    let bz = s.store.mk_bound(2, elem);
    let xy = s.store.mk_app(lt, vec![bx, by]);
    let yz = s.store.mk_app(lt, vec![by, bz]);
    let xz = s.store.mk_app(lt, vec![bx, bz]);
    let hyp = s.store.mk_and(vec![xy, yz]);
    let body = s.store.mk_implies(hyp, xz);
    let trans = s.store.mk_forall(
        vec![(0, elem), (1, elem), (2, elem)],
        vec![],
        body,
        "lt_trans",
    );
    // Antisymmetry-ish: forall x y. lt(x,y) => !lt(y,x)
    let bx2 = s.store.mk_bound(3, elem);
    let by2 = s.store.mk_bound(4, elem);
    let xy2 = s.store.mk_app(lt, vec![bx2, by2]);
    let yx2 = s.store.mk_app(lt, vec![by2, bx2]);
    let nyx2 = s.store.mk_not(yx2);
    let body2 = s.store.mk_implies(xy2, nyx2);
    let asym = s
        .store
        .mk_forall(vec![(3, elem), (4, elem)], vec![], body2, "lt_asym");
    let a = s.store.mk_var("a", elem);
    let b = s.store.mk_var("b", elem);
    let c = s.store.mk_var("c", elem);
    let ab = s.store.mk_app(lt, vec![a, b]);
    let bc = s.store.mk_app(lt, vec![b, c]);
    let ca = s.store.mk_app(lt, vec![c, a]);
    s.assert(trans);
    s.assert(asym);
    s.assert(ab);
    s.assert(bc);
    s.assert(ca);
    assert_unsat(&mut s);
}

#[test]
fn epr_mode_sat_is_decisive() {
    // In EPR mode a saturated sat answer is not spurious.
    let cfg = Config {
        epr_mode: true,
        ..Config::default()
    };
    let mut s = Solver::new(cfg);
    let elem = s.store.uninterp_sort("E2");
    let p = s.store.declare_fun("p", vec![elem], s.store.bool_sort());
    let bx = s.store.mk_bound(0, elem);
    let px = s.store.mk_app(p, vec![bx]);
    let q = s.store.mk_forall(vec![(0, elem)], vec![], px, "all_p");
    let a = s.store.mk_var("a", elem);
    let pa = s.store.mk_app(p, vec![a]);
    s.assert(q);
    s.assert(pa);
    let m = assert_sat(&mut s);
    assert!(!m.maybe_spurious);
}

#[test]
fn multipattern_trigger() {
    // forall x, y. le(x, y) => f(x) <= f(y)  — monotonicity via multi-pattern.
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f", vec![int], int);
    let le_f = s
        .store
        .declare_fun("lep", vec![int, int], s.store.bool_sort());
    let bx = s.store.mk_bound(0, int);
    let by = s.store.mk_bound(1, int);
    let lexy = s.store.mk_app(le_f, vec![bx, by]);
    let fx = s.store.mk_app(f, vec![bx]);
    let fy = s.store.mk_app(f, vec![by]);
    let fle = s.store.mk_le(fx, fy);
    let body = s.store.mk_implies(lexy, fle);
    let q = s
        .store
        .mk_forall(vec![(0, int), (1, int)], vec![vec![fx, fy]], body, "mono");
    let a = s.store.mk_var("a", int);
    let b = s.store.mk_var("b", int);
    let lab = s.store.mk_app(le_f, vec![a, b]);
    let fa = s.store.mk_app(f, vec![a]);
    let fb = s.store.mk_app(f, vec![b]);
    let bad = s.store.mk_gt(fa, fb);
    s.assert(q);
    s.assert(lab);
    s.assert(bad);
    assert_unsat(&mut s);
}

#[test]
fn model_values_returned() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let ten = s.store.mk_int(10);
    let sum = s.store.mk_add(vec![x, y]);
    let eq = s.store.mk_eq(sum, ten);
    let zero = s.store.mk_int(0);
    let xpos = s.store.mk_gt(x, zero);
    let ypos = s.store.mk_gt(y, zero);
    s.assert(eq);
    s.assert(xpos);
    s.assert(ypos);
    let m = assert_sat(&mut s);
    let vx = m.ints[&x];
    let vy = m.ints[&y];
    assert_eq!(vx + vy, 10);
    assert!(vx > 0 && vy > 0);
}

#[test]
fn query_size_metric() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let zero = s.store.mk_int(0);
    let ge = s.store.mk_ge(x, zero);
    s.assert(ge);
    assert!(s.query_size_bytes() > 20);
}

#[test]
fn nested_quantifier_alternation() {
    // forall x. exists y. f(x, y) = 0, plus forall x y. f(x,y) = 1 => unsat
    let mut s = solver();
    let int = s.store.int_sort();
    let f = s.store.declare_fun("f2", vec![int, int], int);
    let bx = s.store.mk_bound(0, int);
    let by = s.store.mk_bound(1, int);
    let fxy = s.store.mk_app(f, vec![bx, by]);
    let zero = s.store.mk_int(0);
    let one = s.store.mk_int(1);
    let inner_body = s.store.mk_eq(fxy, zero);
    let inner = s
        .store
        .mk_exists(vec![(1, int)], vec![], inner_body, "ex_y");
    // Trigger on f? inner existential means body has no good app of x alone;
    // give an explicit marker function for the trigger.
    let g = s.store.declare_fun("gmark", vec![int], int);
    let gx = s.store.mk_app(g, vec![bx]);
    let gtriv = s.store.mk_eq(gx, gx); // trivially true, mentions g(x)
    let body = s.store.mk_and(vec![inner, gtriv]);
    let q1 = s
        .store
        .mk_forall(vec![(0, int)], vec![vec![gx]], body, "all_x");
    let bx2 = s.store.mk_bound(2, int);
    let by2 = s.store.mk_bound(3, int);
    let fxy2 = s.store.mk_app(f, vec![bx2, by2]);
    let body2 = s.store.mk_eq(fxy2, one);
    let q2 = s
        .store
        .mk_forall(vec![(2, int), (3, int)], vec![vec![fxy2]], body2, "all_one");
    // Ground seed so q1 triggers: g(5) >= g(5) would fold away, so use a
    // non-trivial ground fact mentioning g(5).
    let five = s.store.mk_int(5);
    let g5: TermId = s.store.mk_app(g, vec![five]);
    let thousand = s.store.mk_int(1000);
    let seed = s.store.mk_le(g5, thousand);
    s.assert(q1);
    s.assert(q2);
    s.assert(seed);
    assert_unsat(&mut s);
}

// ----------------------------------------------------------------------
// Unsat cores (labeled hypotheses) and model validation
// ----------------------------------------------------------------------

#[test]
fn unsat_core_reports_used_hypotheses() {
    // h1: x >= 5, h2: y >= 0 (irrelevant), goal-negation: x < 5.
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let y = s.store.mk_var("y", int);
    let five = s.store.mk_int(5);
    let zero = s.store.mk_int(0);
    let h1 = s.store.mk_ge(x, five);
    let h2 = s.store.mk_ge(y, zero);
    let neg_goal = s.store.mk_lt(x, five);
    s.assert_labeled(h1, "requires#0");
    s.assert_labeled(h2, "requires#1");
    s.assert_labeled(neg_goal, "goal");
    assert_unsat(&mut s);
    let core = s.unsat_core().expect("core after unsat").to_vec();
    assert!(core.contains(&"requires#0".to_owned()), "{core:?}");
    assert!(core.contains(&"goal".to_owned()), "{core:?}");
    assert!(!core.contains(&"requires#1".to_owned()), "{core:?}");
}

#[test]
fn unsat_core_deterministic_across_reruns() {
    let run = || {
        let mut s = solver();
        let int = s.store.int_sort();
        let x = s.store.mk_var("x", int);
        let ten = s.store.mk_int(10);
        let three = s.store.mk_int(3);
        let a = s.store.mk_ge(x, ten);
        let b = s.store.mk_le(x, three);
        let c = {
            let zero = s.store.mk_int(0);
            s.store.mk_ge(x, zero)
        };
        s.assert_labeled(a, "lo");
        s.assert_labeled(b, "hi");
        s.assert_labeled(c, "nonneg");
        assert_unsat(&mut s);
        s.unsat_core().unwrap().to_vec()
    };
    let c1 = run();
    let c2 = run();
    assert_eq!(c1, c2);
    assert!(c1.contains(&"lo".to_owned()) && c1.contains(&"hi".to_owned()));
    assert!(!c1.contains(&"nonneg".to_owned()));
}

#[test]
fn unsat_core_minimal_ish_dropping_any_member_flips_verdict() {
    // Five labeled hypotheses, two of them jointly contradictory with the
    // negated goal; the rest padding. The reported core must be tight
    // enough that removing ANY member makes the remainder satisfiable.
    let build = |skip: Option<&str>| {
        let mut s = solver();
        let int = s.store.int_sort();
        let x = s.store.mk_var("x", int);
        let y = s.store.mk_var("y", int);
        let c5 = s.store.mk_int(5);
        let c0 = s.store.mk_int(0);
        let c9 = s.store.mk_int(9);
        let hyps: Vec<(&str, TermId)> = vec![
            ("requires#0", s.store.mk_ge(x, c5)),
            ("requires#1", s.store.mk_ge(y, c0)),
            ("requires#2", s.store.mk_le(y, c9)),
            ("goal", s.store.mk_lt(x, c5)),
        ];
        for (label, t) in hyps {
            if Some(label) != skip {
                s.assert_labeled(t, label);
            }
        }
        s
    };
    let mut s = build(None);
    assert_unsat(&mut s);
    let core = s.unsat_core().expect("core").to_vec();
    assert!(core.len() >= 2, "{core:?}");
    for member in &core {
        let mut s2 = build(Some(member));
        match s2.check() {
            SmtResult::Sat(_) | SmtResult::Unknown(_) => {}
            SmtResult::Unsat => panic!("core not minimal: still unsat without {member}"),
        }
    }
}

#[test]
fn labeled_hypotheses_still_sat_when_consistent() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let two = s.store.mk_int(2);
    let h = s.store.mk_ge(x, two);
    s.assert_labeled(h, "only");
    let m = assert_sat(&mut s);
    assert!(m.validated, "ground model should validate");
    assert!(!m.maybe_spurious);
    assert!(m.ints.get(&x).is_some_and(|&v| v >= 2));
}

#[test]
fn ground_counterexample_is_validated() {
    // x > 3 and x < 10: sat, and the model must evaluate all asserts true.
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let three = s.store.mk_int(3);
    let ten = s.store.mk_int(10);
    let a = s.store.mk_gt(x, three);
    let b = s.store.mk_lt(x, ten);
    s.assert(a);
    s.assert(b);
    let m = assert_sat(&mut s);
    assert!(m.validated);
    let v = m.ints[&x];
    assert!(v > 3 && v < 10, "model value {v} violates the asserts");
}

#[test]
fn nonlinear_bogus_model_never_validated() {
    // x * x = -1 has no integer solution; simplex treats the product as
    // opaque, so the SAT/theory stack may accept it — validation must
    // refuse to endorse the bogus model as a confirmed counterexample.
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let xx = s.store.mk_mul(x, x);
    let negone = s.store.mk_int(-1);
    let eq = s.store.mk_eq(xx, negone);
    s.assert(eq);
    match s.check() {
        SmtResult::Unknown(msg) => {
            assert!(msg.contains("validation"), "unexpected reason: {msg}")
        }
        SmtResult::Unsat => {} // a smarter theory layer may refute it outright
        SmtResult::Sat(m) => {
            // The product is opaque to the evaluator, so the best the
            // solver can do is refuse to vouch for the assignment.
            assert!(!m.validated, "bogus model validated: {m:?}");
            assert!(m.maybe_spurious, "bogus model not flagged: {m:?}");
        }
    }
}

#[test]
fn quantified_sat_flagged_not_validated() {
    // The existential under an iff is skolemized away, so the Sat verdict
    // is genuine (p = true, witness 101) — but the quantified assertion
    // cannot be fully evaluated, so the model must come back flagged
    // maybe_spurious and unvalidated rather than falsely endorsed.
    let mut s = solver();
    let int = s.store.int_sort();
    let p = s.store.mk_var("p", s.store.bool_sort());
    let bx = s.store.mk_bound(0, int);
    let hundred = s.store.mk_int(100);
    let body = s.store.mk_gt(bx, hundred);
    let ex = s.store.mk_exists(vec![(0, int)], vec![], body, "ex_big");
    let iff = s.store.mk_eq(p, ex);
    s.assert(iff);
    s.assert(p);
    match s.check() {
        SmtResult::Sat(m) => {
            assert!(m.maybe_spurious);
            assert!(!m.validated);
        }
        other => panic!("expected flagged sat, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Assertion frames (push/pop) — the substrate of module sessions
// ----------------------------------------------------------------------

#[test]
fn push_pop_restores_verdicts() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let one = s.store.mk_int(1);
    let ge = s.store.mk_ge(x, one);
    s.assert(ge);
    assert_sat(&mut s);
    s.push();
    let zero = s.store.mk_int(0);
    let le = s.store.mk_le(x, zero);
    s.assert(le);
    assert_unsat(&mut s);
    s.pop();
    // The frame's assertion is gone; the context alone is satisfiable.
    assert_sat(&mut s);
    assert_eq!(s.depth(), 0);
}

#[test]
fn push_pop_restores_labeled_hypotheses_and_core() {
    let mut s = solver();
    let int = s.store.int_sort();
    let x = s.store.mk_var("x", int);
    let one = s.store.mk_int(1);
    let ge = s.store.mk_ge(x, one);
    s.assert_labeled(ge, "ctx:x_pos");
    s.push();
    let zero = s.store.mk_int(0);
    let le = s.store.mk_le(x, zero);
    s.assert_labeled(le, "frame:x_nonpos");
    assert_unsat(&mut s);
    let core = s.unsat_core().expect("core after unsat").to_vec();
    assert!(core.contains(&"ctx:x_pos".to_string()));
    assert!(core.contains(&"frame:x_nonpos".to_string()));
    s.pop();
    assert_eq!(s.hypothesis_labels(), vec!["ctx:x_pos".to_string()]);
    assert_sat(&mut s);
}

#[test]
fn push_pop_exact_replay_matches_fresh_solver() {
    // A session solver (context, then frame A checked and popped, then
    // frame B) must be indistinguishable from a fresh solver that encoded
    // context + frame B directly: same term-store allocation, same SMT-LIB
    // query bytes, same verdict, same unsat core, same search statistics.
    let encode_ctx = |s: &mut Solver| {
        let int = s.store.int_sort();
        let f = s.store.declare_fun("f", vec![int], int);
        let x = s.store.mk_var("x", int);
        let y = s.store.mk_var("y", int);
        let fx = s.store.mk_app(f, vec![x]);
        let eq = s.store.mk_eq(fx, y);
        s.assert_labeled(eq, "ctx:fx_eq_y");
        let one = s.store.mk_int(1);
        let ge = s.store.mk_ge(y, one);
        s.assert_labeled(ge, "ctx:y_pos");
        (f, x, y)
    };
    let encode_frame_b = |s: &mut Solver, f: veris_smt::FuncId, x: TermId, y: TermId| {
        let z = s.store.mk_var("z", s.store.int_sort());
        let eq_xz = s.store.mk_eq(x, z);
        s.assert_labeled(eq_xz, "b:x_eq_z");
        let fz = s.store.mk_app(f, vec![z]);
        let zero = s.store.mk_int(0);
        let le = s.store.mk_le(fz, zero);
        let ne = s.store.mk_eq(fz, y);
        let nne = s.store.mk_not(ne);
        s.assert_labeled(nne, "b:fz_ne_y");
        s.assert_labeled(le, "b:fz_nonpos");
    };

    let mut fresh = solver();
    let (f, x, y) = encode_ctx(&mut fresh);
    encode_frame_b(&mut fresh, f, x, y);
    let fresh_result = fresh.check();

    let mut session = solver();
    let (f, x, y) = encode_ctx(&mut session);
    session.push();
    // Frame A: unrelated work that must leave no trace.
    let w = session.store.mk_var("w", session.store.int_sort());
    let ten = session.store.mk_int(10);
    let gt = session.store.mk_gt(w, ten);
    session.assert_labeled(gt, "a:w_big");
    let _ = session.check();
    session.pop();
    session.push();
    encode_frame_b(&mut session, f, x, y);
    let session_result = session.check();

    assert_eq!(
        format!("{fresh_result:?}"),
        format!("{session_result:?}"),
        "verdicts must match"
    );
    assert_eq!(fresh.unsat_core(), session.unsat_core(), "cores must match");
    assert_eq!(
        fresh.query_size_bytes(),
        session.query_size_bytes(),
        "query bytes must match"
    );
    assert_eq!(fresh.store.num_terms(), session.store.num_terms());
    assert_eq!(format!("{:?}", fresh.stats), format!("{:?}", session.stats));
    assert_eq!(fresh.hypothesis_labels(), session.hypothesis_labels());
}

/// Assert the pigeonhole CNF for `pigeons` pigeons in `pigeons - 1` holes:
/// unsat, but only after many conflicts.
fn assert_pigeonhole(s: &mut Solver, pigeons: usize) {
    let holes = pigeons - 1;
    let b = s.store.bool_sort();
    let p: Vec<Vec<TermId>> = (0..pigeons)
        .map(|i| {
            (0..holes)
                .map(|j| s.store.mk_var(&format!("p{i}_{j}"), b))
                .collect()
        })
        .collect();
    for row in &p {
        let some_hole = s.store.mk_or(row.clone());
        s.assert(some_hole);
    }
    for (i, a) in p.iter().enumerate() {
        for b in &p[i + 1..] {
            for (&x, &y) in a.iter().zip(b) {
                let nx = s.store.mk_not(x);
                let ny = s.store.mk_not(y);
                let one = s.store.mk_or(vec![nx, ny]);
                s.assert(one);
            }
        }
    }
}

#[test]
fn conflict_cap_names_the_limit() {
    let mut capped = Solver::new(Config {
        sat_limits: veris_smt::sat::SatLimits { max_conflicts: 2 },
        ..Config::default()
    });
    assert_pigeonhole(&mut capped, 5);
    match capped.check() {
        SmtResult::Unknown(r) => {
            assert_eq!(r, "sat conflict limit exceeded (max_conflicts=2)")
        }
        other => panic!("expected the conflict cap to fire, got {other:?}"),
    }
    let mut full = solver();
    assert_pigeonhole(&mut full, 5);
    assert_unsat(&mut full);
}
