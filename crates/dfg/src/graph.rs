//! The hardware data-flow graph type.
//!
//! A [`Dfg`] is a rooted directed graph `G = (V, E)` as defined in §III-B of
//! the paper: nodes are signals, constants, or operations; a directed edge
//! `(i, j)` exists when the value of node `i` depends on node `j` (so edges
//! point from the circuit's output roots toward its input leaves).

use std::fmt::Write as _;

use crate::nodekind::NodeKind;

/// Identifier of a node inside a [`Dfg`].
pub type NodeId = usize;

/// One node of a data-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's vocabulary kind (one-hot feature index source).
    pub kind: NodeKind,
    /// Human-readable label (signal name, constant value, operator) — kept
    /// for DOT export and debugging, never used as a model feature.
    pub label: String,
}

/// A rooted, directed hardware data-flow graph.
///
/// # Examples
///
/// ```
/// use gnn4ip_dfg::{Dfg, NodeKind};
///
/// let mut g = Dfg::new("demo");
/// let y = g.add_node(NodeKind::Output, "y");
/// let op = g.add_node(NodeKind::Xor, "xor");
/// let a = g.add_node(NodeKind::Input, "a");
/// let b = g.add_node(NodeKind::Input, "b");
/// g.add_edge(y, op);
/// g.add_edge(op, a);
/// g.add_edge(op, b);
/// g.add_root(y);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
    roots: Vec<NodeId>,
}

impl Dfg {
    /// Creates an empty graph with a design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The design name this graph was extracted from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            kind,
            label: label.into(),
        });
        self.nodes.len() - 1
    }

    /// Adds a dependency edge `from → to` ("`from` depends on `to`").
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "edge ({from},{to}) out of bounds"
        );
        self.edges.push((from, to));
    }

    /// Marks a node as a root (an output signal of the design).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn add_root(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "root {id} out of bounds");
        if !self.roots.contains(&id) {
            self.roots.push(id);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges `(from, to)`.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Root node ids (output signals).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// One-hot feature index per node, in id order (input to hw2vec).
    pub fn kind_indices(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.kind.index()).collect()
    }

    /// Out-neighbors (dependencies) of a node.
    pub fn deps(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(move |(f, _)| *f == id)
            .map(|(_, t)| *t)
    }

    /// Nodes reachable from the roots along dependency edges (including the
    /// roots themselves), as a boolean mask.
    pub fn reachable_from_roots(&self) -> Vec<bool> {
        let (start, targets) = self.out_csr();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.roots.clone();
        for &r in &self.roots {
            seen[r] = true;
        }
        while let Some(n) = stack.pop() {
            for &m in &targets[start[n]..start[n + 1]] {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        seen
    }

    /// Dependency lists in compressed form: node `v`'s out-neighbors are
    /// `targets[start[v]..start[v + 1]]`, in edge-list order.
    pub(crate) fn out_csr(&self) -> (Vec<usize>, Vec<NodeId>) {
        let mut start = vec![0usize; self.nodes.len() + 1];
        for &(f, _) in &self.edges {
            start[f + 1] += 1;
        }
        for i in 0..self.nodes.len() {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut targets = vec![0; self.edges.len()];
        for &(f, t) in &self.edges {
            targets[cursor[f]] = t;
            cursor[f] += 1;
        }
        (start, targets)
    }

    /// Keeps only the nodes where `mask` is true, remapping ids and dropping
    /// dangling edges/roots. Returns the old→new id map (`None` = removed).
    pub fn retain_nodes(&mut self, mask: &[bool]) -> Vec<Option<NodeId>> {
        assert_eq!(mask.len(), self.nodes.len(), "mask length mismatch");
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut kept = 0;
        for (slot, &keep) in remap.iter_mut().zip(mask) {
            if keep {
                *slot = Some(kept);
                kept += 1;
            }
        }
        let old_nodes = std::mem::take(&mut self.nodes);
        self.nodes = old_nodes
            .into_iter()
            .zip(mask)
            .filter_map(|(node, &keep)| keep.then_some(node))
            .collect();
        let kept_edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .filter_map(|&(f, t)| Some((remap[f]?, remap[t]?)))
            .collect();
        // (from, to) order via two stable counting passes: O(V + E)
        let by_to = bucket_by(kept, &kept_edges, |&(_, t)| t);
        self.edges = bucket_by(kept, &by_to, |&(f, _)| f);
        self.edges.dedup();
        self.roots = self.roots.iter().filter_map(|&r| remap[r]).collect();
        remap
    }

    /// Replaces the edge list wholesale (no bounds checks: callers in this
    /// crate derive `edges` from the existing node set).
    pub(crate) fn set_edges(&mut self, edges: Vec<(NodeId, NodeId)>) {
        self.edges = edges;
    }

    /// Counts nodes per kind (index-aligned with the vocabulary).
    pub fn kind_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; crate::nodekind::VOCAB_SIZE];
        for n in &self.nodes {
            h[n.kind.index()] += 1;
        }
        h
    }

    /// Exports Graphviz DOT text for inspection.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=TB;");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.kind.is_signal() {
                "ellipse"
            } else if n.kind == NodeKind::Constant {
                "plaintext"
            } else {
                "box"
            };
            let peripheries = if self.roots.contains(&i) { 2 } else { 1 };
            let _ = writeln!(
                s,
                "  n{i} [label=\"{}\", shape={shape}, peripheries={peripheries}];",
                n.label.replace('"', "'")
            );
        }
        for &(f, t) in &self.edges {
            let _ = writeln!(s, "  n{f} -> n{t};");
        }
        s.push_str("}\n");
        s
    }
}

/// Stable counting sort of `edges` by `key`, whose values are `< n`.
fn bucket_by(
    n: usize,
    edges: &[(NodeId, NodeId)],
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) -> Vec<(NodeId, NodeId)> {
    let mut start = vec![0usize; n + 1];
    for e in edges {
        start[key(e) + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut out = vec![(0, 0); edges.len()];
    for e in edges {
        let slot = &mut start[key(e)];
        out[*slot] = *e;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain() -> Dfg {
        // y -> op -> a ; orphan node d
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        let op = g.add_node(NodeKind::Not, "not");
        let a = g.add_node(NodeKind::Input, "a");
        let _d = g.add_node(NodeKind::Wire, "orphan");
        g.add_edge(y, op);
        g.add_edge(op, a);
        g.add_root(y);
        g
    }

    #[test]
    fn reachability_excludes_orphans() {
        let g = chain();
        let mask = g.reachable_from_roots();
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn retain_nodes_remaps_edges_and_roots() {
        let mut g = chain();
        let mask = g.reachable_from_roots();
        let remap = g.retain_nodes(&mask);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.roots(), &[0]);
        assert_eq!(remap[3], None);
    }

    proptest! {
        /// The counting-sort canonicalization equals sort + dedup.
        #[test]
        fn retain_nodes_sorts_and_dedups_edges(
            mask in prop::collection::vec(0u8..4, 1..30),
            raw in prop::collection::vec((0usize..30, 0usize..30), 0..80),
        ) {
            let mask: Vec<bool> = mask.iter().map(|&m| m > 0).collect();
            let n = mask.len();
            let mut g = Dfg::new("t");
            for i in 0..n {
                g.add_node(NodeKind::Wire, format!("w{i}"));
            }
            for &(f, t) in &raw {
                g.add_edge(f % n, t % n);
            }
            let remap = g.clone().retain_nodes(&mask);
            let mut want: Vec<(NodeId, NodeId)> = g
                .edges()
                .iter()
                .filter_map(|&(f, t)| Some((remap[f]?, remap[t]?)))
                .collect();
            want.sort_unstable();
            want.dedup();
            g.retain_nodes(&mask);
            prop_assert_eq!(g.edges(), &want[..]);
        }
    }

    #[test]
    fn duplicate_roots_are_ignored() {
        let mut g = Dfg::new("t");
        let y = g.add_node(NodeKind::Output, "y");
        g.add_root(y);
        g.add_root(y);
        assert_eq!(g.roots().len(), 1);
    }

    #[test]
    fn kind_histogram_counts() {
        let g = chain();
        let h = g.kind_histogram();
        assert_eq!(h[NodeKind::Output.index()], 1);
        assert_eq!(h[NodeKind::Not.index()], 1);
        assert_eq!(h[NodeKind::Input.index()], 1);
        assert_eq!(h[NodeKind::Wire.index()], 1);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let g = chain();
        let dot = g.to_dot();
        assert!(dot.contains("n0"));
        assert!(dot.contains("n3"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn deps_iterates_dependencies() {
        let g = chain();
        let d: Vec<_> = g.deps(0).collect();
        assert_eq!(d, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_validates() {
        let mut g = Dfg::new("t");
        let a = g.add_node(NodeKind::Wire, "a");
        g.add_edge(a, 7);
    }
}
