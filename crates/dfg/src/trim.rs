//! Graph trimming — phase 5 of the paper's Fig. 2 pipeline.
//!
//! "Eventually, the redundant nodes and disconnected subgraphs are trimmed,
//! and the final DFG is generated." Trimming (a) drops every node not
//! reachable from an output root and (b) collapses redundant pass-through
//! nodes (`buf` gates and single-operand concats), which carry no behavioral
//! information.
//!
//! # Cost
//!
//! Reachability and each edge-list canonicalization are O(V + E log E).
//! The collapse is a single worklist pass. Pass-through candidates pop
//! from a min-id heap, so nodes collapse in lowest-id-first order. A
//! collapse forwards the victim to its dependency (union-find) and splices
//! the victim's in-edge list onto the dependency's in O(1). Only the
//! shorter of the two lists is rescanned for nodes whose dependency count
//! may have dropped, so each in-edge entry is rescanned O(log E) times.
//! Dependency lists shrink in place as duplicates and dropped edges are
//! found. The whole pass is O((V + E) log² V) in the worst case: no shape
//! of input (buffer chains, wide fan-in, cycles) makes it quadratic. A
//! graph with no collapsible node costs one O(E) degree count.
//!
//! # Preserved quirks
//!
//! The pass reproduces the original one-collapse-per-rebuild loop
//! exactly, including two of its behaviours:
//!
//! - The first collapse drops every self-loop in the graph. Before it, a
//!   self-loop counts as a dependency; after it, a pass-through with a
//!   self-loop and one other dependency can collapse.
//! - A pass-through whose only dependency is itself is deleted together
//!   with all its edges, including the edges into it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Dfg, NodeId};
use crate::nodekind::NodeKind;

/// Statistics reported by [`trim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrimStats {
    /// Nodes removed because they were unreachable from any root.
    pub unreachable_removed: usize,
    /// Pass-through nodes (buffers, trivial concats) collapsed.
    pub passthrough_collapsed: usize,
}

/// Trims a DFG in place and reports what was removed.
///
/// # Examples
///
/// ```
/// use gnn4ip_dfg::{Dfg, NodeKind, trim};
///
/// let mut g = Dfg::new("t");
/// let y = g.add_node(NodeKind::Output, "y");
/// let a = g.add_node(NodeKind::Input, "a");
/// let orphan = g.add_node(NodeKind::Wire, "dead");
/// let _ = orphan;
/// g.add_edge(y, a);
/// g.add_root(y);
/// let stats = trim(&mut g);
/// assert_eq!(stats.unreachable_removed, 1);
/// assert_eq!(g.node_count(), 2);
/// ```
pub fn trim(g: &mut Dfg) -> TrimStats {
    let mut stats = TrimStats::default();
    // Remove unreachable nodes first; retain_nodes also canonicalizes the
    // edge list (sort + dedup), which the pass-through collapse relies on —
    // a node with two parallel edges to one dependency has one dependency.
    let mask = g.reachable_from_roots();
    stats.unreachable_removed = mask.iter().filter(|&&k| !k).count();
    g.retain_nodes(&mask);
    stats.passthrough_collapsed = collapse_passthrough(g);
    stats
}

/// Whether a node kind only forwards its operand (buf gates and
/// single-child concat/repeat marks).
fn is_passthrough(kind: NodeKind) -> bool {
    matches!(kind, NodeKind::Buf | NodeKind::Concat | NodeKind::Repeat)
}

/// Collapses nodes that merely forward one dependency: incoming edges are
/// redirected to the single dependency and the node is removed, lowest id
/// first, until no non-root pass-through has exactly one dependency. The
/// edge list must be canonical on entry and is canonical on exit.
fn collapse_passthrough(g: &mut Dfg) -> usize {
    let n = g.node_count();
    let (out_start, targets) = g.out_csr();
    let mut may_collapse: Vec<bool> = g.nodes().iter().map(|v| is_passthrough(v.kind)).collect();
    for &r in g.roots() {
        may_collapse[r] = false;
    }
    let heap: BinaryHeap<Reverse<NodeId>> = (0..n)
        .filter(|&v| may_collapse[v] && out_start[v + 1] - out_start[v] == 1)
        .map(Reverse)
        .collect();
    if heap.is_empty() {
        return 0;
    }
    let mut pass = Collapse::new(g, out_start, targets, may_collapse, heap);
    let collapsed = pass.run();
    let edges = pass.final_edges();
    let alive = pass.alive;
    g.set_edges(edges);
    g.retain_nodes(&alive);
    collapsed
}

/// End marker of an in-edge list.
const NIL: usize = usize::MAX;

/// State of the collapse worklist pass over a canonical edge list.
///
/// Dependencies are kept as the original targets and resolved through
/// union-find forwarding (`fwd`), so a collapse never rewrites the
/// dependency lists of the victim's predecessors.
struct Collapse {
    /// Non-root pass-through nodes: the only nodes that may collapse.
    may_collapse: Vec<bool>,
    /// Node `v`'s dependency entries are
    /// `targets[out_start[v]..out_start[v] + out_len[v]]`.
    out_start: Vec<usize>,
    out_len: Vec<usize>,
    targets: Vec<NodeId>,
    /// In-edge lists, as linked lists over edge ids: `source[e]` is the
    /// node edge `e` leaves, `next[e]` the following entry. Entries are
    /// never removed; one whose source died, or that duplicates another,
    /// is simply stale.
    source: Vec<NodeId>,
    next: Vec<usize>,
    head: Vec<usize>,
    tail: Vec<usize>,
    len: Vec<usize>,
    /// Union-find forwarding: a collapsed node points at the dependency
    /// it was merged into; live and deleted nodes point at themselves.
    fwd: Vec<NodeId>,
    deleted: Vec<bool>,
    alive: Vec<bool>,
    /// Nodes with a self-loop in the input graph.
    self_loops: Vec<NodeId>,
    /// Set by the first collapse, which drops every self-loop.
    self_loops_dropped: bool,
    /// Nodes that may have exactly one dependency. Every node that does
    /// is queued; stale entries are rechecked when popped.
    heap: BinaryHeap<Reverse<NodeId>>,
}

impl Collapse {
    fn new(
        g: &Dfg,
        out_start: Vec<usize>,
        targets: Vec<NodeId>,
        may_collapse: Vec<bool>,
        heap: BinaryHeap<Reverse<NodeId>>,
    ) -> Self {
        let n = g.node_count();
        let edges = g.edges();
        let mut pass = Collapse {
            may_collapse,
            out_len: (0..n).map(|v| out_start[v + 1] - out_start[v]).collect(),
            out_start,
            targets,
            source: edges.iter().map(|&(f, _)| f).collect(),
            next: vec![NIL; edges.len()],
            head: vec![NIL; n],
            tail: vec![NIL; n],
            len: vec![0; n],
            fwd: (0..n).collect(),
            deleted: vec![false; n],
            alive: vec![true; n],
            self_loops: edges
                .iter()
                .filter(|(f, t)| f == t)
                .map(|&(f, _)| f)
                .collect(),
            self_loops_dropped: false,
            heap,
        };
        for (e, &(_, t)) in edges.iter().enumerate() {
            pass.append(t, e);
        }
        pass
    }

    /// Appends edge `e` to the in-edge list of `v`.
    fn append(&mut self, v: NodeId, e: usize) {
        if self.tail[v] == NIL {
            self.head[v] = e;
        } else {
            self.next[self.tail[v]] = e;
        }
        self.tail[v] = e;
        self.len[v] += 1;
    }

    /// Runs the pass to completion and returns the number of collapses.
    fn run(&mut self) -> usize {
        let mut collapsed = 0;
        while let Some(Reverse(x)) = self.heap.pop() {
            if !self.alive[x] {
                continue;
            }
            let Some(dep) = self.sole_dependency(x) else {
                continue;
            };
            collapsed += 1;
            self.alive[x] = false;
            if dep == x {
                // Its only dependency is itself: the node goes, and so does
                // every edge into it.
                self.deleted[x] = true;
                self.requeue_sources(x);
            } else {
                self.fwd[x] = dep;
                self.splice_in_edges(x, dep);
                // an edge dep → x is now a self-loop, which is dropped
                self.requeue(dep);
            }
            if !self.self_loops_dropped {
                self.self_loops_dropped = true;
                for i in 0..self.self_loops.len() {
                    self.requeue(self.self_loops[i]);
                }
            }
        }
        collapsed
    }

    /// Queues `v` for a recheck if it may still collapse.
    fn requeue(&mut self, v: NodeId) {
        if self.alive[v] && self.may_collapse[v] {
            self.heap.push(Reverse(v));
        }
    }

    /// Queues the source of every entry in `v`'s in-edge list.
    fn requeue_sources(&mut self, v: NodeId) {
        let mut e = self.head[v];
        while e != NIL {
            self.requeue(self.source[e]);
            e = self.next[e];
        }
    }

    /// Redirects every edge into `x` to `dep` by splicing `x`'s in-edge
    /// list onto `dep`'s. A node loses a dependency only if it had edges
    /// to both, so it is in both lists and queuing the sources of the
    /// shorter list covers it.
    fn splice_in_edges(&mut self, x: NodeId, dep: NodeId) {
        self.requeue_sources(if self.len[x] < self.len[dep] { x } else { dep });
        if self.head[x] == NIL {
            return;
        }
        if self.tail[dep] == NIL {
            self.head[dep] = self.head[x];
        } else {
            self.next[self.tail[dep]] = self.head[x];
        }
        self.tail[dep] = self.tail[x];
        self.len[dep] += self.len[x];
        self.head[x] = NIL;
        self.tail[x] = NIL;
        self.len[x] = 0;
    }

    /// The node a dependency entry `t` of `v` now stands for: `None` when
    /// the edge is gone (into a deleted node, or a self-loop after the
    /// first collapse).
    fn resolve(&mut self, v: NodeId, t: NodeId) -> Option<NodeId> {
        let mut r = t;
        while self.fwd[r] != r {
            let up = self.fwd[self.fwd[r]];
            self.fwd[r] = up;
            r = up;
        }
        let gone = self.deleted[r] || (r == v && self.self_loops_dropped);
        (!gone).then_some(r)
    }

    /// `v`'s only dependency, or `None` when it has none or several.
    ///
    /// Entries that resolve to nothing, or to an earlier entry's node, are
    /// removed for good (resolution never un-merges), so a call costs
    /// O(1 + entries removed).
    fn sole_dependency(&mut self, v: NodeId) -> Option<NodeId> {
        let start = self.out_start[v];
        let mut sole = None;
        let mut j = 0;
        while j < self.out_len[v] {
            match (self.resolve(v, self.targets[start + j]), sole) {
                (Some(r), None) => {
                    self.targets[start + j] = r;
                    sole = Some(r);
                    j += 1;
                }
                (Some(r), Some(s)) if r != s => return None,
                _ => {
                    self.out_len[v] -= 1;
                    self.targets[start + j] = self.targets[start + self.out_len[v]];
                }
            }
        }
        sole
    }

    /// The surviving edges, in pre-compaction node ids (unsorted, possibly
    /// with duplicates).
    fn final_edges(&mut self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.targets.len());
        for v in 0..self.alive.len() {
            if !self.alive[v] {
                continue;
            }
            let start = self.out_start[v];
            for j in start..start + self.out_len[v] {
                if let Some(r) = self.resolve(v, self.targets[j]) {
                    edges.push((v, r));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original trim: one pass-through collapse per full rebuild of
    /// the graph. Kept as the oracle the worklist pass must match.
    fn trim_reference(g: &mut Dfg) -> TrimStats {
        let mut stats = TrimStats::default();
        let mask = g.reachable_from_roots();
        stats.unreachable_removed = mask.iter().filter(|&&k| !k).count();
        g.retain_nodes(&mask);
        stats.passthrough_collapsed = collapse_passthrough_reference(g);
        if stats.passthrough_collapsed > 0 {
            let keep = vec![true; g.node_count()];
            g.retain_nodes(&keep);
        }
        stats
    }

    fn collapse_passthrough_reference(g: &mut Dfg) -> usize {
        let mut collapsed = 0usize;
        loop {
            let n = g.node_count();
            let mut victim: Option<(usize, usize)> = None;
            for id in 0..n {
                if !is_passthrough(g.node(id).kind) || g.roots().contains(&id) {
                    continue;
                }
                let deps: Vec<usize> = g.deps(id).collect();
                if deps.len() == 1 {
                    victim = Some((id, deps[0]));
                    break;
                }
            }
            let Some((id, dep)) = victim else { break };
            let mut rebuilt = Dfg::new(g.name());
            let mut remap = vec![0usize; n];
            let mut next = 0usize;
            for (i, slot) in remap.iter_mut().enumerate() {
                if i != id {
                    *slot = next;
                    let node = g.node(i).clone();
                    rebuilt.add_node(node.kind, node.label);
                    next += 1;
                }
            }
            let redirect = |x: usize| if x == id { dep } else { x };
            let mut seen = std::collections::HashSet::new();
            for &(f, t) in g.edges() {
                let (f, t) = (redirect(f), redirect(t));
                if f == id || t == id || f == t {
                    continue;
                }
                let e = (remap[f], remap[t]);
                if seen.insert(e) {
                    rebuilt.add_edge(e.0, e.1);
                }
            }
            for &r in g.roots() {
                rebuilt.add_root(remap[redirect(r)]);
            }
            *g = rebuilt;
            collapsed += 1;
        }
        collapsed
    }

    /// Node kinds for random graphs, pass-throughs over-represented.
    const KINDS: [NodeKind; 8] = [
        NodeKind::Buf,
        NodeKind::Buf,
        NodeKind::Concat,
        NodeKind::Repeat,
        NodeKind::Wire,
        NodeKind::Xor,
        NodeKind::Input,
        NodeKind::Output,
    ];

    /// Random graphs with cycles, self-loops, parallel edges,
    /// pass-through roots and self-dependent pass-throughs.
    fn arb_graph() -> impl Strategy<Value = Dfg> {
        (
            1usize..40,
            prop::collection::vec(0usize..KINDS.len(), 40),
            prop::collection::vec((0usize..40, 0usize..40), 0..90),
            prop::collection::vec(0usize..40, 1..4),
        )
            .prop_map(|(n, kinds, raw_edges, roots)| {
                let mut g = Dfg::new("prop");
                for (i, &k) in kinds.iter().take(n).enumerate() {
                    g.add_node(KINDS[k], format!("n{i}"));
                }
                for (a, b) in raw_edges {
                    // mostly toward higher ids (chains from the roots),
                    // some back edges and self-loops
                    g.add_edge(a % n, b % n);
                }
                for r in roots {
                    g.add_root(r % n);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The worklist pass yields exactly the graph and statistics of
        /// the one-collapse-per-rebuild original.
        #[test]
        fn trim_matches_reference(g in arb_graph()) {
            let mut fast = g.clone();
            let mut slow = g;
            let got = trim(&mut fast);
            let want = trim_reference(&mut slow);
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn first_collapse_drops_every_self_loop() {
        // b1 has a self-loop and one other dependency: it collapses only
        // after b0's collapse drops the self-loop. x is no pass-through,
        // yet loses its self-loop too.
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let b0 = g.add_node(NodeKind::Buf, "b0");
        let b1 = g.add_node(NodeKind::Buf, "b1");
        let x = g.add_node(NodeKind::Xor, "x");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, b0);
        g.add_edge(y, b1);
        g.add_edge(y, x);
        g.add_edge(b0, a);
        g.add_edge(b1, b1);
        g.add_edge(b1, a);
        g.add_edge(x, x);
        g.add_edge(x, a);
        g.add_root(y);
        let mut want = g.clone();
        let stats = trim(&mut g);
        assert_eq!(stats, trim_reference(&mut want));
        assert_eq!(g, want);
        assert_eq!(stats.passthrough_collapsed, 2);
        assert!(g.edges().iter().all(|(f, t)| f != t), "{:?}", g.edges());
    }

    #[test]
    fn self_dependent_passthrough_is_deleted_with_its_edges() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let b = g.add_node(NodeKind::Buf, "loop");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, b);
        g.add_edge(y, a);
        g.add_edge(b, b);
        g.add_root(y);
        let mut want = g.clone();
        let stats = trim(&mut g);
        assert_eq!(stats, trim_reference(&mut want));
        assert_eq!(g, want);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edges(), &[(0, 1)]);
    }

    #[test]
    fn buffer_cycle_keeps_the_higher_id() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let b0 = g.add_node(NodeKind::Buf, "b0");
        let b1 = g.add_node(NodeKind::Buf, "b1");
        g.add_edge(y, b0);
        g.add_edge(b0, b1);
        g.add_edge(b1, b0);
        g.add_root(y);
        trim(&mut g);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node(1).label, "b1");
        assert_eq!(g.edges(), &[(0, 1)]);
    }

    #[test]
    fn removes_disconnected_subgraph() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let a = g.add_node(NodeKind::Input, "a");
        let d1 = g.add_node(NodeKind::Wire, "dead1");
        let d2 = g.add_node(NodeKind::Wire, "dead2");
        g.add_edge(y, a);
        g.add_edge(d1, d2);
        g.add_root(y);
        let stats = trim(&mut g);
        assert_eq!(stats.unreachable_removed, 2);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn collapses_buffer_chain() {
        // y -> buf -> buf -> a
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let b1 = g.add_node(NodeKind::Buf, "buf");
        let b2 = g.add_node(NodeKind::Buf, "buf");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, b1);
        g.add_edge(b1, b2);
        g.add_edge(b2, a);
        g.add_root(y);
        let stats = trim(&mut g);
        assert_eq!(stats.passthrough_collapsed, 2);
        assert_eq!(g.node_count(), 2);
        // y now depends directly on a
        let deps: Vec<_> = g.deps(g.roots()[0]).collect();
        assert_eq!(g.node(deps[0]).kind, NodeKind::Input);
    }

    #[test]
    fn keeps_multi_child_concat() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let c = g.add_node(NodeKind::Concat, "concat");
        let a = g.add_node(NodeKind::Input, "a");
        let b = g.add_node(NodeKind::Input, "b");
        g.add_edge(y, c);
        g.add_edge(c, a);
        g.add_edge(c, b);
        g.add_root(y);
        let stats = trim(&mut g);
        assert_eq!(stats.passthrough_collapsed, 0);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn collapses_single_child_concat() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let c = g.add_node(NodeKind::Concat, "concat");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, c);
        g.add_edge(c, a);
        g.add_root(y);
        trim(&mut g);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn trim_is_idempotent() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let op = g.add_node(NodeKind::Xor, "xor");
        let a = g.add_node(NodeKind::Input, "a");
        let b = g.add_node(NodeKind::Input, "b");
        g.add_edge(y, op);
        g.add_edge(op, a);
        g.add_edge(op, b);
        g.add_root(y);
        let first = trim(&mut g);
        assert_eq!(first, TrimStats::default());
        let snapshot = g.clone();
        let second = trim(&mut g);
        assert_eq!(second, TrimStats::default());
        assert_eq!(g, snapshot);
    }

    #[test]
    fn root_buffer_is_preserved() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Buf, "odd-root");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, a);
        g.add_root(y);
        trim(&mut g);
        assert_eq!(g.node_count(), 2);
    }
}
