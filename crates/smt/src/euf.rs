//! Congruence closure for equality and uninterpreted functions, with
//! conflict explanations (Nieuwenhuis–Oliveras proof-forest style) and an
//! undo trail, so the closure can follow a backtracking search.
//!
//! The engine is deliberately decoupled from [`crate::term::TermStore`]: the
//! SMT layer registers nodes with an opaque `tag` (operator identity) and
//! child list, then asserts equalities/disequalities labeled with the SAT
//! literal that caused them. On conflict, `explain` yields the set of
//! responsible literals, which the solver negates into a learned clause.
//!
//! Backtracking follows Nieuwenhuis and Oliveras, "Fast congruence closure
//! and extensions" (2007): every node stores its class root directly, and
//! a merge relabels the smaller class, so `find` needs no path compression
//! and a merge is undone by relabeling the same members back. Nodes are
//! never removed; only merges and disequalities are undone, back to a
//! [`EufMark`].

use crate::fxhash::HashMap;
use std::sync::Arc;

use veris_obs::{Counter, ResourceMeter};

use crate::sat::Lit;

/// Node in the e-graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// Why two nodes were merged.
#[derive(Clone, Copy, Debug)]
enum Reason {
    /// An asserted (dis)equality literal.
    Literal(Lit),
    /// Congruence between two compound nodes (their children were equal).
    Congruence(NodeId, NodeId),
}

/// A theory conflict: the conjunction of these literals is EUF-unsat.
#[derive(Clone, Debug)]
pub struct EufConflict {
    pub lits: Vec<Lit>,
}

struct Node {
    tag: u64,
    children: Vec<NodeId>,
}

/// What one merge changed, so [`Euf::undo`] can take it back.
struct MergeRecord {
    /// The proof-forest edge the merge added.
    edge: (NodeId, NodeId),
    keep: NodeId,
    lose: NodeId,
    /// Length of `keep`'s use list before the merge.
    keep_uses: usize,
    /// `keep`'s shared node before the merge.
    keep_shared: Option<NodeId>,
    /// Length of the signature log before the merge.
    sigs: usize,
}

/// A point to undo back to (see [`Euf::mark`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EufMark {
    merges: usize,
    diseqs: usize,
}

/// Congruence closure engine.
pub struct Euf {
    nodes: Vec<Node>,
    /// Class root of every node.
    root: Vec<NodeId>,
    /// Circular list through the members of each class.
    next: Vec<NodeId>,
    /// For roots: class size.
    size: Vec<u32>,
    /// Proof forest: edge toward the merge partner with its reason.
    pf_parent: Vec<Option<(NodeId, Reason)>>,
    /// For roots: compound nodes with a child in this class.
    use_list: Vec<Vec<NodeId>>,
    /// Signature table: (tag, child roots) -> representative compound node.
    sig_table: HashMap<(u64, Vec<NodeId>), NodeId>,
    /// Signatures inserted by merges, in order, for undo.
    sig_log: Vec<(u64, Vec<NodeId>)>,
    /// Disequalities: (a, b, literal).
    diseqs: Vec<(NodeId, NodeId, Lit)>,
    pending: Vec<(NodeId, NodeId, Reason)>,
    /// For roots: a member marked shared with another theory (see
    /// [`Euf::set_shared`]).
    shared: Vec<Option<NodeId>>,
    /// Pairs of shared nodes whose classes merged, not yet taken.
    shared_eqs: Vec<(NodeId, NodeId)>,
    trail: Vec<MergeRecord>,
    /// Optional resource meter; union-find merges are charged to it.
    meter: Option<Arc<ResourceMeter>>,
}

impl Default for Euf {
    fn default() -> Self {
        Self::new()
    }
}

impl Euf {
    pub fn new() -> Euf {
        Euf {
            nodes: Vec::new(),
            root: Vec::new(),
            next: Vec::new(),
            size: Vec::new(),
            pf_parent: Vec::new(),
            use_list: Vec::new(),
            sig_table: HashMap::default(),
            sig_log: Vec::new(),
            diseqs: Vec::new(),
            pending: Vec::new(),
            shared: Vec::new(),
            shared_eqs: Vec::new(),
            trail: Vec::new(),
            meter: None,
        }
    }

    /// Attach a resource meter; merges are charged to it from now on.
    pub fn set_meter(&mut self, meter: Arc<ResourceMeter>) {
        self.meter = Some(meter);
    }

    /// Register a node. `tag` identifies the operator (two nodes are
    /// congruent when tags and child classes match); leaves use a unique tag
    /// per leaf and empty children. Nodes are never undone, so register
    /// them only while every merge made so far is permanent (no mark will
    /// undo below it).
    pub fn add_node(&mut self, tag: u64, children: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let nkids = children.len();
        self.nodes.push(Node { tag, children });
        self.root.push(id);
        self.next.push(id);
        self.size.push(1);
        self.pf_parent.push(None);
        self.use_list.push(Vec::new());
        self.shared.push(None);
        if nkids > 0 {
            for i in 0..nkids {
                let c = self.nodes[id.0 as usize].children[i];
                let rc = self.find(c);
                self.use_list[rc.0 as usize].push(id);
            }
            let sig = self.signature(id);
            if let Some(&other) = self.sig_table.get(&sig) {
                if self.find(other) != self.find(id) {
                    self.pending
                        .push((id, other, Reason::Congruence(id, other)));
                }
            } else {
                self.sig_table.insert(sig, id);
            }
        }
        id
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Mark `n` as shared with another theory: whenever the classes of two
    /// shared nodes merge, the pair is queued for [`Euf::take_shared_eqs`].
    /// One shared node per class is enough to tie every shared member of
    /// the class together, so the pairs form a spanning tree of each class.
    pub fn set_shared(&mut self, n: NodeId) {
        let r = self.find(n).0 as usize;
        match self.shared[r] {
            None => self.shared[r] = Some(n),
            Some(x) if x != n => self.shared_eqs.push((x, n)),
            Some(_) => {}
        }
    }

    /// Shared-node pairs whose classes merged since the last call, in merge
    /// order.
    pub fn take_shared_eqs(&mut self) -> Vec<(NodeId, NodeId)> {
        std::mem::take(&mut self.shared_eqs)
    }

    fn signature(&self, n: NodeId) -> (u64, Vec<NodeId>) {
        let node = &self.nodes[n.0 as usize];
        let roots = node.children.iter().map(|&c| self.find(c)).collect();
        (node.tag, roots)
    }

    pub fn find(&self, n: NodeId) -> NodeId {
        self.root[n.0 as usize]
    }

    pub fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    pub fn assert_eq(&mut self, a: NodeId, b: NodeId, lit: Lit) {
        self.pending.push((a, b, Reason::Literal(lit)));
    }

    pub fn assert_neq(&mut self, a: NodeId, b: NodeId, lit: Lit) {
        self.diseqs.push((a, b, lit));
    }

    /// Process pending merges; returns a conflict if the closure is
    /// inconsistent with an asserted disequality.
    pub fn propagate(&mut self) -> Result<(), EufConflict> {
        self.close();
        self.check_diseqs()
    }

    /// Process pending merges (and the congruences they cause).
    pub fn close(&mut self) {
        while let Some((a, b, reason)) = self.pending.pop() {
            self.merge(a, b, reason);
        }
    }

    /// The first asserted disequality whose sides are in one class, as a
    /// conflict.
    pub fn check_diseqs(&self) -> Result<(), EufConflict> {
        for &(a, b, lit) in &self.diseqs {
            if self.find(a) == self.find(b) {
                let mut lits = self.explain(a, b);
                lits.push(lit);
                lits.sort_unstable();
                lits.dedup();
                return Err(EufConflict { lits });
            }
        }
        Ok(())
    }

    /// The current state, to return to with [`Euf::undo`]. Pending merges
    /// must have been processed.
    pub fn mark(&self) -> EufMark {
        debug_assert!(self.pending.is_empty(), "mark with pending merges");
        EufMark {
            merges: self.trail.len(),
            diseqs: self.diseqs.len(),
        }
    }

    /// Undo every merge and disequality made since `mark`, newest first.
    pub fn undo(&mut self, mark: EufMark) {
        self.pending.clear();
        self.shared_eqs.clear();
        self.diseqs.truncate(mark.diseqs);
        while self.trail.len() > mark.merges {
            let rec = self.trail.pop().expect("trail above mark");
            for sig in self.sig_log.drain(rec.sigs..) {
                self.sig_table.remove(&sig);
            }
            let (keep, lose) = (rec.keep.0 as usize, rec.lose.0 as usize);
            self.use_list[keep].truncate(rec.keep_uses);
            self.shared[keep] = rec.keep_shared;
            self.size[keep] -= self.size[lose];
            self.next.swap(keep, lose);
            let mut m = rec.lose;
            loop {
                self.root[m.0 as usize] = rec.lose;
                m = self.next[m.0 as usize];
                if m == rec.lose {
                    break;
                }
            }
            // Later merges may have re-rooted the proof tree, so the edge
            // can point either way; there is only one edge between the two.
            let (a, b) = rec.edge;
            if matches!(self.pf_parent[a.0 as usize], Some((p, _)) if p == b) {
                self.pf_parent[a.0 as usize] = None;
            } else {
                debug_assert!(matches!(self.pf_parent[b.0 as usize], Some((p, _)) if p == a));
                self.pf_parent[b.0 as usize] = None;
            }
        }
    }

    fn merge(&mut self, a: NodeId, b: NodeId, reason: Reason) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        if let Some(m) = &self.meter {
            m.charge(Counter::EufMerges, 1);
        }
        // Add the proof-forest edge a -> b by reversing the path from `a` to
        // its proof root, then hanging it under `b`'s tree.
        self.pf_reroot(a);
        self.pf_parent[a.0 as usize] = Some((b, reason));

        // Union by size: relabel the smaller class.
        let (keep, lose) = if self.size[ra.0 as usize] >= self.size[rb.0 as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.trail.push(MergeRecord {
            edge: (a, b),
            keep,
            lose,
            keep_uses: self.use_list[keep.0 as usize].len(),
            keep_shared: self.shared[keep.0 as usize],
            sigs: self.sig_log.len(),
        });
        let mut m = lose;
        loop {
            self.root[m.0 as usize] = keep;
            m = self.next[m.0 as usize];
            if m == lose {
                break;
            }
        }
        self.next.swap(keep.0 as usize, lose.0 as usize);
        self.size[keep.0 as usize] += self.size[lose.0 as usize];
        match (self.shared[keep.0 as usize], self.shared[lose.0 as usize]) {
            (Some(x), Some(y)) => self.shared_eqs.push((x, y)),
            (None, y) => self.shared[keep.0 as usize] = y,
            _ => {}
        }
        // Re-hash compound nodes that used the losing class. Its use list
        // stays as it is, so undo only truncates the keeper's.
        for i in 0..self.use_list[lose.0 as usize].len() {
            let u = self.use_list[lose.0 as usize][i];
            let sig = self.signature(u);
            if let Some(&other) = self.sig_table.get(&sig) {
                if self.find(other) != self.find(u) {
                    self.pending.push((u, other, Reason::Congruence(u, other)));
                }
            } else {
                self.sig_table.insert(sig.clone(), u);
                self.sig_log.push(sig);
            }
            self.use_list[keep.0 as usize].push(u);
        }
    }

    /// Reverse proof-forest edges along the path from `n` to its proof root,
    /// making `n` the root of its proof tree.
    fn pf_reroot(&mut self, n: NodeId) {
        let mut prev: Option<(NodeId, Reason)> = None;
        let mut cur = n;
        loop {
            let next = self.pf_parent[cur.0 as usize];
            self.pf_parent[cur.0 as usize] = prev;
            match next {
                None => break,
                Some((p, r)) => {
                    prev = Some((cur, r));
                    cur = p;
                }
            }
        }
    }

    /// Explain why `a == b` holds: the set of asserted equality literals.
    ///
    /// # Panics
    /// Panics if `a` and `b` are not in the same class.
    pub fn explain(&self, a: NodeId, b: NodeId) -> Vec<Lit> {
        debug_assert!(self.find(a) == self.find(b));
        let mut out = Vec::new();
        let mut queue = vec![(a, b)];
        let mut guard = 0usize;
        while let Some((x, y)) = queue.pop() {
            guard += 1;
            debug_assert!(guard < 1_000_000, "explanation loop");
            if x == y {
                continue;
            }
            // Walk both to the common ancestor in the proof forest.
            let (px, py) = (self.pf_path(x), self.pf_path(y));
            // Find lowest common node.
            let set: crate::fxhash::HashSet<NodeId> = px.iter().map(|&(n, _)| n).collect();
            let mut common = None;
            for &(n, _) in &py {
                if set.contains(&n) {
                    common = Some(n);
                    break;
                }
            }
            let common = common.expect("common proof ancestor");
            for path in [&px, &py] {
                for &(n, reason) in path {
                    if n == common {
                        break;
                    }
                    match reason {
                        Some(Reason::Literal(l)) => out.push(l),
                        Some(Reason::Congruence(u, v)) => {
                            let (cu, cv) = (&self.nodes[u.0 as usize], &self.nodes[v.0 as usize]);
                            for (&cx, &cy) in cu.children.iter().zip(&cv.children) {
                                queue.push((cx, cy));
                            }
                        }
                        None => unreachable!("path nodes below common have reasons"),
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Nodes on the path from `n` to its proof root, with the reason of the
    /// edge *leaving* each node (None at the root).
    fn pf_path(&self, n: NodeId) -> Vec<(NodeId, Option<Reason>)> {
        let mut out = Vec::new();
        let mut cur = n;
        loop {
            match self.pf_parent[cur.0 as usize] {
                None => {
                    out.push((cur, None));
                    break;
                }
                Some((p, r)) => {
                    out.push((cur, Some(r)));
                    cur = p;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: u32) -> Lit {
        Lit(n)
    }

    #[test]
    fn transitivity() {
        let mut e = Euf::new();
        let a = e.add_node(1, vec![]);
        let b = e.add_node(2, vec![]);
        let c = e.add_node(3, vec![]);
        e.assert_eq(a, b, lit(0));
        e.assert_eq(b, c, lit(2));
        assert!(e.propagate().is_ok());
        assert!(e.same_class(a, c));
        let expl = e.explain(a, c);
        assert_eq!(expl, vec![lit(0), lit(2)]);
    }

    #[test]
    fn congruence_fx_fy() {
        let mut e = Euf::new();
        let x = e.add_node(1, vec![]);
        let y = e.add_node(2, vec![]);
        let fx = e.add_node(100, vec![x]);
        let fy = e.add_node(100, vec![y]);
        assert!(!e.same_class(fx, fy));
        e.assert_eq(x, y, lit(0));
        assert!(e.propagate().is_ok());
        assert!(e.same_class(fx, fy));
        let expl = e.explain(fx, fy);
        assert_eq!(expl, vec![lit(0)]);
    }

    #[test]
    fn nested_congruence() {
        // x = y  =>  g(f(x)) = g(f(y))
        let mut e = Euf::new();
        let x = e.add_node(1, vec![]);
        let y = e.add_node(2, vec![]);
        let fx = e.add_node(100, vec![x]);
        let fy = e.add_node(100, vec![y]);
        let gfx = e.add_node(101, vec![fx]);
        let gfy = e.add_node(101, vec![fy]);
        e.assert_eq(x, y, lit(4));
        assert!(e.propagate().is_ok());
        assert!(e.same_class(gfx, gfy));
        assert_eq!(e.explain(gfx, gfy), vec![lit(4)]);
    }

    #[test]
    fn diseq_conflict() {
        let mut e = Euf::new();
        let a = e.add_node(1, vec![]);
        let b = e.add_node(2, vec![]);
        let c = e.add_node(3, vec![]);
        e.assert_neq(a, c, lit(10));
        e.assert_eq(a, b, lit(0));
        e.assert_eq(b, c, lit(2));
        let conflict = e.propagate().unwrap_err();
        assert_eq!(conflict.lits, vec![lit(0), lit(2), lit(10)]);
    }

    #[test]
    fn congruence_added_late() {
        // Nodes registered after the equality is asserted still congruence-close.
        let mut e = Euf::new();
        let x = e.add_node(1, vec![]);
        let y = e.add_node(2, vec![]);
        e.assert_eq(x, y, lit(0));
        assert!(e.propagate().is_ok());
        let fx = e.add_node(100, vec![x]);
        let fy = e.add_node(100, vec![y]);
        assert!(e.propagate().is_ok());
        assert!(e.same_class(fx, fy));
    }

    #[test]
    fn two_arg_congruence_partial() {
        // f(x, a) vs f(y, b): needs both x=y and a=b.
        let mut e = Euf::new();
        let x = e.add_node(1, vec![]);
        let y = e.add_node(2, vec![]);
        let a = e.add_node(3, vec![]);
        let b = e.add_node(4, vec![]);
        let fxa = e.add_node(100, vec![x, a]);
        let fyb = e.add_node(100, vec![y, b]);
        e.assert_eq(x, y, lit(0));
        assert!(e.propagate().is_ok());
        assert!(!e.same_class(fxa, fyb));
        e.assert_eq(a, b, lit(2));
        assert!(e.propagate().is_ok());
        assert!(e.same_class(fxa, fyb));
        let expl = e.explain(fxa, fyb);
        assert_eq!(expl, vec![lit(0), lit(2)]);
    }
}
