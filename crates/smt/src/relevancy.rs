//! Relevancy (de Moura and Bjørner, "Relevancy Propagation",
//! MSR-TR-2007-140): which SAT variables the asserted formulas need under
//! the current assignment.
//!
//! The Tseitin encoder records, for every gate variable, its kind and its
//! child literals; it also records the root literals (asserted units and
//! hypothesis selectors) and the literals each selector or quantifier proxy
//! gates (`¬g ∨ l`). At a final check [`Relevancy::mark`] walks down from
//! the roots under the full assignment:
//!
//! - And-true, Or-false, Iff and Implies-false mark all their children;
//! - And-false, Or-true and Implies-true mark one justifying child, the
//!   first in child order (an Implies checks its antecedent first);
//! - a true selector or proxy marks every literal it gates.
//!
//! The marked set is the least fixpoint of these rules, so it depends only
//! on the assignment, not on the walk order. The table is flat: one entry
//! per variable plus shared child and gate arrays, so a solver clone copies
//! a few vectors and no per-variable allocation.

use crate::sat::{BVar, LBool, Lit, SatSolver};

/// End of a gate chain.
const NIL: u32 = u32::MAX;

/// The relevancy rule of one SAT variable.
#[derive(Clone, Copy)]
enum Node {
    /// Atom, opaque existential proxy or constant: no children.
    Leaf,
    /// `kids[start..start + len]`.
    And(u32, u32),
    Or(u32, u32),
    Implies(Lit, Lit),
    Iff(Lit, Lit),
    /// Selector or quantifier proxy: head of its chain in `gated`.
    Gate(u32),
}

/// The relevancy table, built during Tseitin encoding.
#[derive(Clone, Default)]
pub(crate) struct Relevancy {
    /// Indexed by variable; variables past the end are leaves.
    nodes: Vec<Node>,
    kids: Vec<Lit>,
    /// Gated literals as chains: (literal, next entry or `NIL`).
    gated: Vec<(Lit, u32)>,
    roots: Vec<Lit>,
}

impl Relevancy {
    fn set(&mut self, out: Lit, node: Node) {
        let v = out.var().0 as usize;
        if self.nodes.len() <= v {
            self.nodes.resize(v + 1, Node::Leaf);
        }
        self.nodes[v] = node;
    }

    fn push_kids(&mut self, kids: &[Lit]) -> (u32, u32) {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(kids);
        (start, kids.len() as u32)
    }

    /// `out ⇔ ⋀ kids`.
    pub(crate) fn and(&mut self, out: Lit, kids: &[Lit]) {
        let (start, len) = self.push_kids(kids);
        self.set(out, Node::And(start, len));
    }

    /// `out ⇔ ⋁ kids`.
    pub(crate) fn or(&mut self, out: Lit, kids: &[Lit]) {
        let (start, len) = self.push_kids(kids);
        self.set(out, Node::Or(start, len));
    }

    /// `out ⇔ (a ⇒ b)`.
    pub(crate) fn implies(&mut self, out: Lit, a: Lit, b: Lit) {
        self.set(out, Node::Implies(a, b));
    }

    /// `out ⇔ (a ⇔ b)`.
    pub(crate) fn iff(&mut self, out: Lit, a: Lit, b: Lit) {
        self.set(out, Node::Iff(a, b));
    }

    /// A literal asserted at the root: an asserted unit or a selector.
    pub(crate) fn root(&mut self, l: Lit) {
        self.roots.push(l);
    }

    /// The clause `¬g ∨ l`: while `g` is true and relevant, so is `l`.
    pub(crate) fn gate(&mut self, g: Lit, l: Lit) {
        let v = g.var().0 as usize;
        let head = match self.nodes.get(v) {
            Some(&Node::Gate(h)) => h,
            _ => NIL,
        };
        self.gated.push((l, head));
        self.set(g, Node::Gate(self.gated.len() as u32 - 1));
    }

    /// Mark the variables relevant under `sat`'s (full) assignment.
    pub(crate) fn mark(&self, sat: &SatSolver, marks: &mut Marks) {
        marks.begin(sat.num_vars() as usize);
        for &r in &self.roots {
            marks.push(r.var());
        }
        let kids = |s: u32, n: u32| &self.kids[s as usize..(s + n) as usize];
        let first = |ks: &[Lit], want: LBool| ks.iter().copied().find(|&l| sat.value(l) == want);
        while let Some(v) = marks.stack.pop() {
            let val = sat.value_var(v) == LBool::True;
            let node = self.nodes.get(v.0 as usize).copied().unwrap_or(Node::Leaf);
            match node {
                Node::Leaf => {}
                Node::And(s, n) | Node::Or(s, n) => {
                    // And-true / Or-false need every child; And-false /
                    // Or-true need one child with the gate's value.
                    let all = val == matches!(node, Node::And(..));
                    if all {
                        for &k in kids(s, n) {
                            marks.push(k.var());
                        }
                    } else if let Some(k) = first(kids(s, n), LBool::from_bool(val)) {
                        marks.push(k.var());
                    }
                }
                Node::Implies(a, b) => {
                    if !val {
                        marks.push(a.var());
                        marks.push(b.var());
                    } else if sat.value(a) == LBool::False {
                        marks.push(a.var());
                    } else {
                        marks.push(b.var());
                    }
                }
                Node::Iff(a, b) => {
                    marks.push(a.var());
                    marks.push(b.var());
                }
                Node::Gate(mut i) => {
                    if val {
                        while i != NIL {
                            let (l, next) = self.gated[i as usize];
                            marks.push(l.var());
                            i = next;
                        }
                    }
                }
            }
        }
    }
}

/// Relevance marks of one walk: a variable is relevant when its stamp is
/// the current epoch, so a new walk clears nothing.
#[derive(Default)]
pub(crate) struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<BVar>,
}

impl Marks {
    fn begin(&mut self, num_vars: usize) {
        self.epoch += 1;
        if self.stamp.len() < num_vars {
            self.stamp.resize(num_vars, 0);
        }
    }

    fn push(&mut self, v: BVar) {
        let s = &mut self.stamp[v.0 as usize];
        if *s != self.epoch {
            *s = self.epoch;
            self.stack.push(v);
        }
    }

    /// Did the last walk mark `v`? (False before the first walk, when
    /// `stamp` is still empty.)
    pub(crate) fn is_relevant(&self, v: BVar) -> bool {
        self.stamp.get(v.0 as usize) == Some(&self.epoch)
    }
}
