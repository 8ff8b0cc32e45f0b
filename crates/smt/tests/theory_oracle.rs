//! Independent oracles for the solver core, on seeded random inputs.
//!
//! - Random CNF over at most 12 variables is checked against brute force,
//!   with and without assumptions; every assumption core is re-checked on
//!   its own.
//! - The same CNFs with a hidden "theory" (forbidden cubes reported only
//!   from the final-check callback) exercise how the SAT loop learns
//!   theory conflicts.
//! - Random ground EUF+LIA formulas are checked against enumeration over a
//!   small domain: an `Unsat` must have no small-domain model, a `Sat`
//!   model must satisfy every formula, and every unsat core must be unsat
//!   on its own. One generator makes mostly unit clauses; a second makes
//!   mostly 2–3-literal clauses, where one true literal satisfies a clause
//!   and the atoms of the others are irrelevant and never reach EUF or LIA.
//!
//! - EUF `mark`/`undo` and simplex bound undo are compared with a fresh
//!   replay of the operations they keep.
//!
//! The tier-1 tests run a few hundred seeds each; the `#[ignore]`d soak
//! runs the same generators over many more:
//! `cargo test --release -p veris-smt --test theory_oracle -- --ignored`.

use std::collections::HashMap;

use veris_smt::euf::{Euf, NodeId};
use veris_smt::lia::{LVar, Lia, LiaOutcome};
use veris_smt::sat::{BVar, FinalCheck, LBool, Lit, SatResult, SatSolver};
use veris_smt::solver::{Config, SmtResult, Solver};
use veris_smt::term::{FuncId, TermId};

/// SplitMix64: a tiny deterministic generator, so every failure names a
/// seed that reproduces it.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

// ----------------------------------------------------------------------
// Propositional layer
// ----------------------------------------------------------------------

/// A literal over variable `v` (0-based), negated when `neg`.
type PLit = (u32, bool);

struct Cnf {
    vars: u32,
    clauses: Vec<Vec<PLit>>,
    /// Conjunctions the hidden theory forbids.
    cubes: Vec<Vec<PLit>>,
}

fn gen_cnf(rng: &mut Rng, with_theory: bool) -> Cnf {
    let vars = rng.range(3, 12) as u32;
    let nclauses = rng.range(1, 5 * vars as i64) as usize;
    let gen_lits = |rng: &mut Rng, len: i64| -> Vec<PLit> {
        (0..len)
            .map(|_| (rng.range(0, vars as i64 - 1) as u32, rng.chance(50)))
            .collect()
    };
    let clauses = (0..nclauses)
        .map(|_| {
            let len = rng.range(1, 4);
            gen_lits(rng, len)
        })
        .collect();
    let cubes = if with_theory {
        let n = rng.range(1, 2 * vars as i64) as usize;
        (0..n)
            .map(|_| {
                let len = rng.range(2, 3);
                gen_lits(rng, len)
            })
            .collect()
    } else {
        Vec::new()
    };
    Cnf {
        vars,
        clauses,
        cubes,
    }
}

fn plit_true(assign: u32, (v, neg): PLit) -> bool {
    ((assign >> v) & 1 == 1) != neg
}

fn to_lit((v, neg): PLit) -> Lit {
    Lit::new(BVar(v), neg)
}

/// Brute force: is there an assignment satisfying every clause, no
/// forbidden cube, and every literal of `fixed`?
fn brute_sat(cnf: &Cnf, fixed: &[PLit]) -> bool {
    (0..1u32 << cnf.vars).any(|a| {
        fixed.iter().all(|&l| plit_true(a, l))
            && cnf
                .clauses
                .iter()
                .all(|c| c.iter().any(|&l| plit_true(a, l)))
            && !cnf.cubes.iter().any(|c| c.iter().all(|&l| plit_true(a, l)))
    })
}

fn sat_solver_for(cnf: &Cnf) -> SatSolver {
    let mut s = SatSolver::new();
    for _ in 0..cnf.vars {
        s.new_var();
    }
    for c in &cnf.clauses {
        s.add_clause(c.iter().map(|&l| to_lit(l)).collect());
    }
    s
}

/// Solve under `assumptions`, with the cube theory answering final checks.
fn solve_cnf(s: &mut SatSolver, cnf: &Cnf, assumptions: &[Lit]) -> SatResult {
    s.solve_with_assumptions(assumptions, |sat| {
        for cube in &cnf.cubes {
            let lits: Vec<Lit> = cube.iter().map(|&l| to_lit(l)).collect();
            if lits.iter().all(|&l| sat.value(l) == LBool::True) {
                let mut clause: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
                clause.sort_unstable();
                clause.dedup();
                return FinalCheck::Conflict(clause);
            }
        }
        FinalCheck::Consistent
    })
}

fn check_cnf_seed(seed: u64, with_theory: bool) {
    let mut rng = Rng::new(seed);
    let cnf = gen_cnf(&mut rng, with_theory);
    let ctx = format!("seed {seed} (theory: {with_theory})");

    // Plain solve.
    let mut s = sat_solver_for(&cnf);
    let expect = brute_sat(&cnf, &[]);
    match solve_cnf(&mut s, &cnf, &[]) {
        SatResult::Sat => {
            assert!(expect, "{ctx}: Sat on an unsat CNF");
            let model: Vec<PLit> = (0..cnf.vars)
                .map(|v| (v, s.value_var(BVar(v)) == LBool::False))
                .collect();
            assert!(
                brute_sat(&cnf, &model),
                "{ctx}: returned model violates the CNF or the theory"
            );
        }
        SatResult::Unsat => assert!(!expect, "{ctx}: Unsat on a satisfiable CNF"),
        SatResult::Unknown => panic!("{ctx}: Unknown on a tiny CNF"),
    }

    // Two rounds of assumptions on the same solver: the incremental
    // interface must keep answering correctly after earlier solves.
    for round in 0..2 {
        let n = rng.range(1, 4) as usize;
        let asm: Vec<PLit> = (0..n)
            .map(|_| (rng.range(0, cnf.vars as i64 - 1) as u32, rng.chance(50)))
            .collect();
        let lits: Vec<Lit> = asm.iter().map(|&l| to_lit(l)).collect();
        let expect = brute_sat(&cnf, &asm);
        let ctx = format!("{ctx}, assumptions round {round} {asm:?}");
        match solve_cnf(&mut s, &cnf, &lits) {
            SatResult::Sat => {
                assert!(expect, "{ctx}: Sat under refuted assumptions");
                for &l in &lits {
                    assert_eq!(s.value(l), LBool::True, "{ctx}: assumption not held");
                }
            }
            SatResult::Unsat => {
                assert!(!expect, "{ctx}: Unsat under satisfiable assumptions");
                let core: Vec<Lit> = s.core().to_vec();
                for l in &core {
                    assert!(
                        lits.contains(l),
                        "{ctx}: core {core:?} not within assumptions"
                    );
                }
                let core_p: Vec<PLit> = core.iter().map(|l| (l.var().0, l.is_neg())).collect();
                assert!(
                    !brute_sat(&cnf, &core_p),
                    "{ctx}: core {core:?} is satisfiable on its own"
                );
                let mut fresh = sat_solver_for(&cnf);
                assert_eq!(
                    solve_cnf(&mut fresh, &cnf, &core),
                    SatResult::Unsat,
                    "{ctx}: a fresh solver does not refute the core {core:?}"
                );
            }
            SatResult::Unknown => panic!("{ctx}: Unknown on a tiny CNF"),
        }
    }
}

fn run_cnf(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        check_cnf_seed(seed, false);
        check_cnf_seed(seed, true);
    }
}

#[test]
fn random_cnf_matches_brute_force() {
    run_cnf(0..400);
}

// ----------------------------------------------------------------------
// Ground EUF + LIA layer
// ----------------------------------------------------------------------

/// Integer terms over three constants, a unary `f` and a binary `g`.
#[derive(Clone, Debug)]
enum E {
    Var(usize),
    Const(i64),
    F(Box<E>),
    G(Box<E>, Box<E>),
    Add(Box<E>, Box<E>),
    Scale(i64, Box<E>),
}

#[derive(Clone, Copy, Debug)]
enum Rel {
    Eq,
    Le,
    Lt,
}

/// A clause: a disjunction of (possibly negated) atoms `lhs rel rhs`.
type Clause = Vec<(bool, Rel, E, E)>;

const NVARS: usize = 3;
/// The enumeration domain for constants and function values.
const DOMAIN: [i64; 4] = [-1, 0, 1, 2];

fn gen_term(rng: &mut Rng, depth: u32) -> E {
    let leaf = depth == 0 || rng.chance(35);
    if leaf {
        return if rng.chance(80) {
            E::Var(rng.range(0, NVARS as i64 - 1) as usize)
        } else {
            E::Const(rng.range(-2, 2))
        };
    }
    match rng.range(0, 3) {
        0 => E::F(Box::new(gen_term(rng, depth - 1))),
        1 => E::G(
            Box::new(gen_term(rng, depth - 1)),
            Box::new(gen_term(rng, depth - 1)),
        ),
        2 => E::Add(
            Box::new(gen_term(rng, depth - 1)),
            Box::new(gen_term(rng, depth - 1)),
        ),
        _ => E::Scale(rng.range(-2, 2), Box::new(gen_term(rng, depth - 1))),
    }
}

fn count_apps(e: &E) -> usize {
    match e {
        E::Var(_) | E::Const(_) => 0,
        E::F(a) | E::Scale(_, a) => count_apps(a) + matches!(e, E::F(_)) as usize,
        E::G(a, b) => 1 + count_apps(a) + count_apps(b),
        E::Add(a, b) => count_apps(a) + count_apps(b),
    }
}

/// Clause lengths of a generated ground formula.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Three in four clauses are units: most atoms are asserted outright.
    Units,
    /// Nine in ten clauses have 2 or 3 literals, so many atoms are
    /// irrelevant under a model: their clause is already satisfied.
    Wide,
}

fn gen_formula(rng: &mut Rng, shape: Shape) -> Vec<Clause> {
    // Keep the number of applications small: the enumeration branches over
    // the domain once per distinct application value.
    loop {
        let nclauses = rng.range(4, 9) as usize;
        let clauses: Vec<Clause> = (0..nclauses)
            .map(|_| {
                let len = match shape {
                    Shape::Units if rng.chance(75) => 1,
                    Shape::Units => 2,
                    Shape::Wide if rng.chance(10) => 1,
                    Shape::Wide => rng.range(2, 3),
                };
                (0..len)
                    .map(|_| {
                        let rel = match rng.range(0, 3) {
                            0 | 1 => Rel::Eq,
                            2 => Rel::Le,
                            _ => Rel::Lt,
                        };
                        {
                            let (dl, dr) = (rng.range(1, 2) as u32, rng.range(0, 1) as u32);
                            (rng.chance(35), rel, gen_term(rng, dl), gen_term(rng, dr))
                        }
                    })
                    .collect()
            })
            .collect();
        let apps: usize = clauses
            .iter()
            .flatten()
            .map(|(_, _, a, b)| count_apps(a) + count_apps(b))
            .sum();
        if apps <= 5 {
            return clauses;
        }
    }
}

/// Store terms of one formula, built in a solver.
struct Built {
    vars: Vec<TermId>,
    f: FuncId,
    g: FuncId,
}

fn build_term(s: &mut Solver, b: &Built, e: &E) -> TermId {
    match e {
        E::Var(i) => b.vars[*i],
        E::Const(k) => s.store.mk_int(*k as i128),
        E::F(a) => {
            let a = build_term(s, b, a);
            s.store.mk_app(b.f, vec![a])
        }
        E::G(x, y) => {
            let x = build_term(s, b, x);
            let y = build_term(s, b, y);
            s.store.mk_app(b.g, vec![x, y])
        }
        E::Add(x, y) => {
            let x = build_term(s, b, x);
            let y = build_term(s, b, y);
            s.store.mk_add(vec![x, y])
        }
        E::Scale(k, a) => {
            let k = s.store.mk_int(*k as i128);
            let a = build_term(s, b, a);
            s.store.mk_mul(k, a)
        }
    }
}

fn build_clause(s: &mut Solver, b: &Built, c: &Clause) -> TermId {
    let lits = c
        .iter()
        .map(|(neg, rel, x, y)| {
            let x = build_term(s, b, x);
            let y = build_term(s, b, y);
            let atom = match rel {
                Rel::Eq => s.store.mk_eq(x, y),
                Rel::Le => s.store.mk_le(x, y),
                Rel::Lt => s.store.mk_lt(x, y),
            };
            if *neg {
                s.store.mk_not(atom)
            } else {
                atom
            }
        })
        .collect();
    s.store.mk_or(lits)
}

/// A solver with each kept clause asserted under the label `c<i>`.
fn solver_for(clauses: &[Clause], keep: &[usize]) -> (Solver, Built) {
    let mut s = Solver::new(Config::default());
    let int = s.store.int_sort();
    let b = Built {
        vars: (0..NVARS)
            .map(|i| s.store.mk_var(&format!("x{i}"), int))
            .collect(),
        f: s.store.declare_fun("f", vec![int], int),
        g: s.store.declare_fun("g", vec![int, int], int),
    };
    for &i in keep {
        let t = build_clause(&mut s, &b, &clauses[i]);
        s.assert_labeled(t, &format!("c{i}"));
    }
    (s, b)
}

/// Evaluation environment: constant values plus a function table keyed by
/// (function, argument values).
struct Env<'a> {
    xs: &'a [i64],
    table: &'a [((u8, i64, i64), i64)],
}

/// Value of `e`, or `None` when an application is missing from the table.
fn eval(e: &E, env: &Env<'_>) -> Option<i64> {
    let lookup = |key: (u8, i64, i64)| env.table.iter().find(|(k, _)| *k == key).map(|e| e.1);
    Some(match e {
        E::Var(i) => env.xs[*i],
        E::Const(k) => *k,
        E::F(a) => lookup((0, eval(a, env)?, 0))?,
        E::G(x, y) => lookup((1, eval(x, env)?, eval(y, env)?))?,
        E::Add(x, y) => eval(x, env)? + eval(y, env)?,
        E::Scale(k, a) => k * eval(a, env)?,
    })
}

fn holds(c: &Clause, env: &Env<'_>) -> Option<bool> {
    let mut unknown = false;
    for (neg, rel, x, y) in c {
        let v = match (eval(x, env), eval(y, env)) {
            (Some(a), Some(b)) => match rel {
                Rel::Eq => a == b,
                Rel::Le => a <= b,
                Rel::Lt => a < b,
            },
            _ => {
                unknown = true;
                continue;
            }
        };
        if v != *neg {
            return Some(true);
        }
    }
    if unknown {
        None
    } else {
        Some(false)
    }
}

/// Every application of `e` in post-order (arguments before the call).
fn apps_of<'e>(e: &'e E, out: &mut Vec<&'e E>) {
    match e {
        E::Var(_) | E::Const(_) => {}
        E::F(a) | E::Scale(_, a) => {
            apps_of(a, out);
            if matches!(e, E::F(_)) {
                out.push(e);
            }
        }
        E::G(x, y) | E::Add(x, y) => {
            apps_of(x, out);
            apps_of(y, out);
            if matches!(e, E::G(..)) {
                out.push(e);
            }
        }
    }
}

fn app_key(e: &E, env: &Env<'_>) -> (u8, i64, i64) {
    match e {
        E::F(a) => (0, eval(a, env).expect("arguments precede"), 0),
        E::G(x, y) => (
            1,
            eval(x, env).expect("arguments precede"),
            eval(y, env).expect("arguments precede"),
        ),
        _ => unreachable!("not an application"),
    }
}

/// Search the function tables for the application values, in post-order.
fn extend_tables(
    apps: &[&E],
    i: usize,
    xs: &[i64],
    table: &mut Vec<((u8, i64, i64), i64)>,
    clauses: &[&Clause],
) -> bool {
    if i == apps.len() {
        let env = Env { xs, table };
        return clauses.iter().all(|c| holds(c, &env) == Some(true));
    }
    let key = app_key(apps[i], &Env { xs, table });
    if table.iter().any(|(k, _)| *k == key) {
        return extend_tables(apps, i + 1, xs, table, clauses);
    }
    for &v in &DOMAIN {
        table.push((key, v));
        if extend_tables(apps, i + 1, xs, table, clauses) {
            return true;
        }
        table.pop();
    }
    false
}

/// Does the conjunction of `clauses` have a model with every constant and
/// every needed function value in [`DOMAIN`]?
fn small_model_exists(clauses: &[&Clause]) -> bool {
    let mut apps = Vec::new();
    for (_, _, x, y) in clauses.iter().copied().flatten() {
        apps_of(x, &mut apps);
        apps_of(y, &mut apps);
    }
    let n = DOMAIN.len().pow(NVARS as u32);
    (0..n).any(|mut code| {
        let xs: Vec<i64> = (0..NVARS)
            .map(|_| {
                let v = DOMAIN[code % DOMAIN.len()];
                code /= DOMAIN.len();
                v
            })
            .collect();
        extend_tables(&apps, 0, &xs, &mut Vec::new(), clauses)
    })
}

/// Check a `Sat` model: every clause must evaluate to true under the
/// model's constant and application values, and the application values
/// must be functionally consistent. Terms the model gives no value make a
/// clause indeterminate, which is allowed.
fn check_model(
    s: &mut Solver,
    b: &Built,
    clauses: &[Clause],
    ints: &HashMap<TermId, i128>,
    ctx: &str,
) {
    let xs: Option<Vec<i64>> = b
        .vars
        .iter()
        .map(|v| ints.get(v).map(|&x| x as i64))
        .collect();
    let Some(xs) = xs else { return };
    // The model's function table: each application term's value, keyed by
    // its argument values. Two applications with equal arguments and
    // different values are a congruence violation.
    let mut table: Vec<((u8, i64, i64), i64)> = Vec::new();
    let mut all_apps = Vec::new();
    for (_, _, x, y) in clauses.iter().flatten() {
        apps_of(x, &mut all_apps);
        apps_of(y, &mut all_apps);
    }
    for app in all_apps {
        let Some(&val) = ints.get(&build_term(s, b, app)) else {
            continue;
        };
        let args: Option<(u8, i64, i64)> = match app {
            E::F(a) => ints
                .get(&build_term(s, b, a))
                .map(|&v| (0, v as i64, 0))
                .or_else(|| {
                    eval(
                        a,
                        &Env {
                            xs: &xs,
                            table: &table,
                        },
                    )
                    .map(|v| (0, v, 0))
                }),
            E::G(x, y) => {
                let env = Env {
                    xs: &xs,
                    table: &table,
                };
                match (eval(x, &env), eval(y, &env)) {
                    (Some(p), Some(q)) => Some((1, p, q)),
                    _ => None,
                }
            }
            _ => unreachable!(),
        };
        let Some(key) = args else { continue };
        match table.iter().find(|(k, _)| *k == key) {
            Some(&(_, v)) => assert_eq!(v, val as i64, "{ctx}: model breaks congruence at {key:?}"),
            None => table.push((key, val as i64)),
        }
    }
    let env = Env {
        xs: &xs,
        table: &table,
    };
    for (i, c) in clauses.iter().enumerate() {
        assert_ne!(
            holds(c, &env),
            Some(false),
            "{ctx}: model {xs:?} / {table:?} falsifies clause c{i} {c:?}"
        );
    }
}

/// Check one seed; returns false when the solver answered `Unknown` for a
/// theory limit, which is incomplete but not wrong. A model that fails the
/// solver's own validation is a wrong theory answer and fails the seed.
fn check_theory_seed(seed: u64, shape: Shape) -> bool {
    let salt = match shape {
        Shape::Units => 0x7e0_0000,
        Shape::Wide => 0x3a1_0000,
    };
    let mut rng = Rng::new(seed ^ salt);
    let clauses = gen_formula(&mut rng, shape);
    let all: Vec<usize> = (0..clauses.len()).collect();
    let ctx = format!("{shape:?} seed {seed}: {clauses:?}");
    let (mut s, b) = solver_for(&clauses, &all);
    let refs: Vec<&Clause> = clauses.iter().collect();
    match s.check() {
        SmtResult::Unsat => {
            assert!(
                !small_model_exists(&refs),
                "{ctx}: Unsat, but a small-domain model exists"
            );
            let core = s.unsat_core().expect("core after unsat").to_vec();
            let keep: Vec<usize> = core
                .iter()
                .map(|l| l[1..].parse().expect("label c<i>"))
                .collect();
            let core_refs: Vec<&Clause> = keep.iter().map(|&i| &clauses[i]).collect();
            assert!(
                !small_model_exists(&core_refs),
                "{ctx}: core {core:?} has a small-domain model"
            );
            let (mut alone, _) = solver_for(&clauses, &keep);
            assert!(
                matches!(alone.check(), SmtResult::Unsat),
                "{ctx}: core {core:?} is not unsat on its own"
            );
        }
        SmtResult::Sat(model) => {
            assert!(model.validated, "{ctx}: ground model not validated");
            check_model(&mut s, &b, &clauses, &model.ints, &ctx)
        }
        SmtResult::Unknown(msg) => {
            assert!(
                msg.starts_with("theory budget exceeded"),
                "{ctx}: Unknown({msg})"
            );
            return false;
        }
    }
    true
}

/// Run the ground generator over `seeds`. Branch-and-bound may give up on
/// an unbounded integer problem, so a few `Unknown`s are tolerated.
fn run_theory(seeds: std::ops::Range<u64>, shape: Shape) {
    let total = seeds.end - seeds.start;
    let unknown = seeds
        .filter(|&seed| !check_theory_seed(seed, shape))
        .count() as u64;
    assert!(
        unknown * 100 <= total,
        "{unknown} of {total} tiny {shape:?} ground formulas ended Unknown"
    );
}

#[test]
fn random_euf_lia_matches_enumeration() {
    run_theory(0..600, Shape::Units);
}

#[test]
fn random_wide_clauses_match_enumeration() {
    run_theory(0..600, Shape::Wide);
}

// ----------------------------------------------------------------------
// Backtracking kernels against fresh replays
// ----------------------------------------------------------------------

/// An e-graph operation: equality or disequality between two nodes,
/// labeled with a literal.
type EufOp = (bool, NodeId, NodeId, Lit);

/// Leaves, unary and binary applications over them, and a second layer.
fn euf_nodes(e: &mut Euf, rng: &mut Rng) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..5).map(|i| e.add_node(i, vec![])).collect();
    for layer in 0..2 {
        let n = nodes.len() as i64;
        for _ in 0..4 {
            let x = nodes[rng.range(0, n - 1) as usize];
            let y = nodes[rng.range(0, n - 1) as usize];
            let node = if rng.chance(50) {
                e.add_node(100 + layer, vec![x])
            } else {
                e.add_node(200 + layer, vec![x, y])
            };
            nodes.push(node);
        }
    }
    // Duplicate signatures merge at the base, before any mark.
    e.close();
    nodes
}

fn euf_apply(e: &mut Euf, &(eq, a, b, lit): &EufOp) {
    if eq {
        e.assert_eq(a, b, lit);
    } else {
        e.assert_neq(a, b, lit);
    }
    e.close();
}

/// Classes, explanations and the disequality verdict must agree.
fn euf_same(x: &Euf, y: &Euf, nodes: &[NodeId], ctx: &str) {
    for &a in nodes {
        for &b in nodes {
            assert_eq!(
                x.same_class(a, b),
                y.same_class(a, b),
                "{ctx}: classes of {a:?} {b:?}"
            );
            if x.same_class(a, b) {
                assert_eq!(
                    x.explain(a, b),
                    y.explain(a, b),
                    "{ctx}: explain {a:?} {b:?}"
                );
            }
        }
    }
    let verdict = |e: &Euf| e.check_diseqs().map_err(|c| c.lits);
    assert_eq!(verdict(x), verdict(y), "{ctx}: disequality verdict");
}

fn check_euf_undo_seed(seed: u64) {
    let mut rng = Rng::new(seed ^ 0xe0f);
    let mut live = Euf::new();
    let nodes = euf_nodes(&mut live, &mut Rng::new(seed));
    let n = nodes.len() as i64;
    let gen_op = |rng: &mut Rng, i: u32| -> EufOp {
        let a = nodes[rng.range(0, n - 1) as usize];
        let b = nodes[rng.range(0, n - 1) as usize];
        (rng.chance(80), a, b, Lit(2 * i))
    };
    let ops: Vec<EufOp> = (0..12).map(|i| gen_op(&mut rng, i)).collect();
    let mut marks = Vec::new();
    for op in &ops {
        marks.push(live.mark());
        euf_apply(&mut live, op);
    }
    let keep = rng.range(0, ops.len() as i64) as usize;
    if keep < ops.len() {
        live.undo(marks[keep]);
    }
    let mut fresh = Euf::new();
    euf_nodes(&mut fresh, &mut Rng::new(seed));
    for op in &ops[..keep] {
        euf_apply(&mut fresh, op);
    }
    let ctx = format!("seed {seed}, undo to op {keep} of {}", ops.len());
    euf_same(&live, &fresh, &nodes, &ctx);
    // The undone state must keep working like the fresh one.
    for i in 0..6 {
        let op = gen_op(&mut rng, 100 + i);
        euf_apply(&mut live, &op);
        euf_apply(&mut fresh, &op);
    }
    euf_same(&live, &fresh, &nodes, &format!("{ctx}, then 6 more ops"));
}

#[test]
fn euf_undo_matches_fresh_replay() {
    for seed in 0..300 {
        check_euf_undo_seed(seed);
    }
}

/// A bound on a combination of three columns: (upper?, combo, bound, tag).
type LiaOp = (bool, Vec<(i128, LVar)>, i128, u32);

fn lia_apply(l: &mut Lia, (upper, combo, bound, tag): &LiaOp) -> Option<Vec<u32>> {
    let r = if *upper {
        l.assert_upper(combo, *bound, Some(*tag))
    } else {
        l.assert_lower(combo, *bound, Some(*tag))
    };
    r.expect("small coefficients do not overflow")
}

/// Sat, Unsat or Unknown, without the model or the conflict.
fn lia_verdict(l: &mut Lia) -> &'static str {
    match l.check(1000) {
        LiaOutcome::Sat(_) => "sat",
        LiaOutcome::Unsat(_) => "unsat",
        LiaOutcome::Unknown(_) => "unknown",
    }
}

fn check_lia_undo_seed(seed: u64) {
    let mut rng = Rng::new(seed ^ 0x11a);
    let mut live = Lia::new();
    let vars: Vec<LVar> = (0..3).map(|_| live.new_var()).collect();
    let gen_op = |rng: &mut Rng, tag: u32| -> LiaOp {
        let mut combo = Vec::new();
        for &v in &vars {
            let c = rng.range(-3, 3) as i128;
            if c != 0 && rng.chance(60) {
                combo.push((c, v));
            }
        }
        let combo = if combo.is_empty() {
            vec![(1, vars[0])]
        } else {
            combo
        };
        (rng.chance(50), combo, rng.range(-6, 6) as i128, tag)
    };
    let ops: Vec<LiaOp> = (0..10).map(|i| gen_op(&mut rng, i)).collect();
    let mut marks = Vec::new();
    let mut results = Vec::new();
    for op in &ops {
        marks.push(live.mark());
        results.push(lia_apply(&mut live, op));
        // Interleave checks, so pivots happen between bounds and persist
        // into the undone state.
        if rng.chance(50) {
            lia_verdict(&mut live);
        }
    }
    let keep = rng.range(0, ops.len() as i64) as usize;
    if keep < ops.len() {
        live.undo(marks[keep]);
    }
    let mut fresh = Lia::new();
    for _ in 0..3 {
        fresh.new_var();
    }
    for (op, expect) in ops[..keep].iter().zip(&results) {
        assert_eq!(
            &lia_apply(&mut fresh, op),
            expect,
            "seed {seed}: replayed bound"
        );
    }
    let ctx = format!("seed {seed}, undo to bound {keep} of {}", ops.len());
    assert_eq!(lia_verdict(&mut live), lia_verdict(&mut fresh), "{ctx}");
    for i in 0..4 {
        let op = gen_op(&mut rng, 100 + i);
        assert_eq!(
            lia_apply(&mut live, &op).is_some(),
            lia_apply(&mut fresh, &op).is_some(),
            "{ctx}: bound conflict after undo"
        );
        assert_eq!(
            lia_verdict(&mut live),
            lia_verdict(&mut fresh),
            "{ctx}, then {i} more"
        );
    }
}

#[test]
fn simplex_bound_undo_matches_fresh_tableau() {
    for seed in 0..300 {
        check_lia_undo_seed(seed);
    }
}

/// Longer run of every generator.
#[test]
#[ignore]
fn soak_more_seeds() {
    run_cnf(400..20_000);
    run_theory(600..20_000, Shape::Units);
    run_theory(600..20_000, Shape::Wide);
    for seed in 300..20_000 {
        check_euf_undo_seed(seed);
        check_lia_undo_seed(seed);
    }
}
