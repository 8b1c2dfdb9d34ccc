//! Model-ready graph representation.
//!
//! hw2vec consumes a graph `G` as `(X, A)`: `X` the one-hot node features and
//! `A` the adjacency information. [`GraphInput`] stores the one-hot rows
//! implicitly (as kind indices — `X · W` is then a row gather of `W`) and the
//! symmetric-normalized adjacency `Â` of Eq. 5 explicitly.

use gnn4ip_dfg::{Dfg, VOCAB_SIZE};
use gnn4ip_tensor::{normalized_adjacency, CsrMatrix, Neighbors};

/// A graph prepared for the hw2vec model.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Design name (for reports; not a model feature).
    pub name: String,
    /// Per-node one-hot index into the node-kind vocabulary.
    pub kinds: Vec<usize>,
    /// Raw (deduplicated, undirected-ized during normalization) edges.
    pub edges: Vec<(usize, usize)>,
    /// `Â = D^-1/2 (A + I) D^-1/2` (GCN propagation operator, Eq. 5).
    pub adj: CsrMatrix,
    /// `D^-1 A` neighbor-mean operator (SAGE-style AGGREGATE, Eq. 1).
    pub mean_adj: CsrMatrix,
}

impl GraphInput {
    /// Prepares a DFG for the model.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes (an empty design cannot be embedded).
    pub fn from_dfg(g: &Dfg) -> Self {
        assert!(g.node_count() > 0, "cannot embed an empty graph");
        let kinds = g.kind_indices();
        debug_assert!(kinds.iter().all(|&k| k < VOCAB_SIZE));
        let neighbors = Neighbors::undirected(g.node_count(), g.edges());
        let adj = neighbors.normalized_adjacency();
        let mean_adj = neighbors.mean_adjacency();
        Self {
            name: g.name().to_string(),
            kinds,
            edges: g.edges().to_vec(),
            adj,
            mean_adj,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Recomputes the normalized adjacency of the subgraph induced by `idx`
    /// (the `A_pool` step of self-attention pooling).
    pub fn pooled_adjacency(&self, idx: &[usize]) -> CsrMatrix {
        let mut pos = vec![usize::MAX; self.node_count()];
        for (new, &old) in idx.iter().enumerate() {
            pos[old] = new;
        }
        let sub_edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter_map(|&(f, t)| {
                let (nf, nt) = (pos[f], pos[t]);
                (nf != usize::MAX && nt != usize::MAX).then_some((nf, nt))
            })
            .collect();
        normalized_adjacency(idx.len(), &sub_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_dfg::NodeKind;

    fn tiny_dfg() -> Dfg {
        let mut g = Dfg::new("tiny");
        let y = g.add_node(NodeKind::Output, "y");
        let op = g.add_node(NodeKind::Xor, "xor");
        let a = g.add_node(NodeKind::Input, "a");
        let b = g.add_node(NodeKind::Input, "b");
        g.add_edge(y, op);
        g.add_edge(op, a);
        g.add_edge(op, b);
        g.add_root(y);
        g
    }

    #[test]
    fn from_dfg_builds_normalized_adjacency() {
        let gi = GraphInput::from_dfg(&tiny_dfg());
        assert_eq!(gi.node_count(), 4);
        let d = gi.adj.to_dense();
        assert!(d.is_finite());
        // symmetric because propagation treats edges as undirected
        assert!(d.approx_eq(&d.transpose(), 1e-6));
    }

    #[test]
    fn pooled_adjacency_restricts_to_subset() {
        let gi = GraphInput::from_dfg(&tiny_dfg());
        let sub = gi.pooled_adjacency(&[0, 1]);
        assert_eq!(sub.rows(), 2);
        let d = sub.to_dense();
        // edge y-op survives, with self loops
        assert!(d.get(0, 1) > 0.0);
        assert!(d.get(0, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        let _ = GraphInput::from_dfg(&Dfg::new("void"));
    }
}
