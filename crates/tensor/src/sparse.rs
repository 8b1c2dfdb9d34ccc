//! Compressed sparse row (CSR) matrices for graph adjacency operators.
//!
//! DFGs extracted from netlists average ~3500 nodes; a dense `n x n`
//! adjacency would be ~49 MB per graph. GCN message propagation (Eq. 5 of the
//! paper) only needs `Â · X`, so a CSR product against the dense feature
//! matrix is both the faithful and the practical representation.

use crate::Matrix;

/// A sparse matrix in compressed sparse row format.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::{CsrMatrix, Matrix};
///
/// // 2x2 matrix [[0, 1], [2, 0]]
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0]]);
/// assert_eq!(m.spmm(&x), Matrix::from_rows(&[&[10.0], &[2.0]]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Zero-valued triplets are kept (they
    /// are harmless and preserve explicit structure).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        let mut row_of: Vec<usize> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if row_of.last() == Some(&r) && indices.last() == Some(&c) {
                // g4check: allow(unwrap-in-lib): values grows in lockstep with indices, whose last() the guard just matched
                *values.last_mut().expect("values nonempty when merging") += v;
            } else {
                row_of.push(r);
                indices.push(c);
                values.push(v);
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        for &r in &row_of {
            indptr[r + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.indptr[r]..self.indptr[r + 1]).map(move |i| (r, self.indices[i], self.values[i]))
        })
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// Sparse-dense product `self * dense` written into a caller-provided
    /// buffer — the allocation-free inference kernel behind
    /// [`CsrMatrix::spmm`]. `out` is overwritten (it need not be zeroed).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a mis-shaped `out`.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm dimension mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, dense.cols()),
            "spmm_into output shape {:?} != {}x{}",
            out.shape(),
            self.rows,
            dense.cols()
        );
        out.as_mut_slice().fill(0.0);
        for r in 0..self.rows {
            for i in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[i];
                let v = self.values[i];
                let src = dense.row(c);
                let dst = out.row_mut(r);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += v * s;
                }
            }
        }
    }

    /// Transposed copy (CSR of the transpose).
    pub fn transpose(&self) -> CsrMatrix {
        let triples: Vec<(usize, usize, f32)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triples)
    }

    /// Densifies into a [`Matrix`] (tests / small graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m.set(r, c, m.get(r, c) + v);
        }
        m
    }

    /// Extracts the square submatrix on the given node subset.
    ///
    /// `idx[i]` is the original index of new node `i`. Entries whose row or
    /// column fall outside `idx` are dropped — this is the `A_pool = A[idx,
    /// idx]` step of self-attention graph pooling.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or an index is out of bounds.
    pub fn select_square(&self, idx: &[usize]) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "select_square requires a square matrix"
        );
        let mut pos = vec![usize::MAX; self.rows];
        for (new, &old) in idx.iter().enumerate() {
            assert!(old < self.rows, "index {old} out of bounds");
            pos[old] = new;
        }
        let triples: Vec<(usize, usize, f32)> = self
            .iter()
            .filter_map(|(r, c, v)| {
                let (nr, nc) = (pos[r], pos[c]);
                (nr != usize::MAX && nc != usize::MAX).then_some((nr, nc, v))
            })
            .collect();
        CsrMatrix::from_triplets(idx.len(), idx.len(), &triples)
    }
}

/// Undirected neighbor lists of a directed edge list on `n` nodes: row `u`
/// holds every `v` joined to `u` by an edge `(u, v)` or `(v, u)`, sorted
/// ascending and deduplicated. A self-loop `(u, u)` puts `u` in its own row.
///
/// Both graph operators derive from these lists, so a graph's edges are
/// bucketed once for [`Neighbors::normalized_adjacency`] and
/// [`Neighbors::mean_adjacency`] alike.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::Neighbors;
///
/// // 0 and 2 are joined (twice); 1 has only a self-loop
/// let nb = Neighbors::undirected(3, &[(2, 0), (0, 2), (1, 1)]);
/// let a = nb.normalized_adjacency().to_dense();
/// assert_eq!(a.get(1, 1), 1.0);
/// assert!((a.get(0, 2) - 0.5).abs() < 1e-6);
/// let m = nb.mean_adjacency().to_dense();
/// assert_eq!((m.get(0, 2), m.get(1, 1)), (1.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbors {
    indptr: Vec<usize>,
    indices: Vec<usize>,
}

impl Neighbors {
    /// Buckets a directed edge list into undirected neighbor lists in
    /// O(n + E), with no hashing and no comparison sort.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn undirected(n: usize, edges: &[(usize, usize)]) -> Self {
        // Every edge contributes the pairs (u, v) and (v, u). The pair set
        // is symmetric, so row r and column r hold equally many pairs and
        // one prefix-summed count serves as the layout of both passes.
        let mut start = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of bounds for n={n}");
            start[u + 1] += 1;
            start[v + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Pass 1 buckets pairs by column; pass 2 walks the columns in
        // order and appends each to its rows (a two-digit LSD radix sort),
        // so every row comes out sorted with duplicates side by side.
        let mut cursor = start.clone();
        let mut by_col = vec![0usize; start[n]];
        for &(u, v) in edges {
            by_col[cursor[v]] = u;
            cursor[v] += 1;
            by_col[cursor[u]] = v;
            cursor[u] += 1;
        }
        let mut end = start[..n].to_vec();
        let mut rows = vec![0usize; start[n]];
        for c in 0..n {
            for &r in &by_col[start[c]..start[c + 1]] {
                let w = end[r];
                if w == start[r] || rows[w - 1] != c {
                    rows[w] = c;
                    end[r] = w + 1;
                }
            }
        }
        // Close the gaps the duplicates left, in place (rows only move
        // toward the front).
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        for r in 0..n {
            let dst = indptr[r];
            rows.copy_within(start[r]..end[r], dst);
            indptr.push(dst + end[r] - start[r]);
        }
        rows.truncate(indptr[n]);
        Self {
            indptr,
            indices: rows,
        }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.indptr.len() - 1
    }

    /// The sorted neighbors of node `u`.
    fn row(&self, u: usize) -> &[usize] {
        &self.indices[self.indptr[u]..self.indptr[u + 1]]
    }

    /// `Â = D^-1/2 (A + I) D^-1/2`; see [`normalized_adjacency`].
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        let n = self.len();
        // Row u of A + I is u's neighbors plus u itself; `split[u]` is
        // where u sits (or belongs) in its sorted row.
        let mut split = Vec::with_capacity(n);
        let mut inv_sqrt = Vec::with_capacity(n);
        for u in 0..n {
            let row = self.row(u);
            let at = row.partition_point(|&v| v < u);
            let degree = row.len() + usize::from(row.get(at) != Some(&u));
            split.push(at);
            inv_sqrt.push(1.0 / (degree as f32).sqrt());
        }
        let nnz = self.indices.len() + n;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for (u, (&at, &scale)) in split.iter().zip(&inv_sqrt).enumerate() {
            let row = self.row(u);
            let mut push = |v: usize| {
                indices.push(v);
                values.push(scale * inv_sqrt[v]);
            };
            row[..at].iter().for_each(|&v| push(v));
            if row.get(at) != Some(&u) {
                push(u);
            }
            row[at..].iter().for_each(|&v| push(v));
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    /// `D^-1 A` without self loops; see [`mean_adjacency`].
    pub fn mean_adjacency(&self) -> CsrMatrix {
        let n = self.len();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut values = Vec::with_capacity(self.indices.len());
        for u in 0..n {
            let before = indices.len();
            indices.extend(self.row(u).iter().copied().filter(|&v| v != u));
            let weight = 1.0 / (indices.len() - before) as f32;
            values.resize(indices.len(), weight);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }
}

/// Builds the symmetric-normalized adjacency `Â = D^-1/2 (A + I) D^-1/2`
/// of Eq. 5 (Kipf & Welling) from a directed edge list on `n` nodes.
///
/// Edges are treated as undirected for message propagation (both `(u, v)` and
/// `(v, u)` receive weight), matching GCN practice; self-loops from `I` are
/// always added so a node's own features survive each propagation step.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::normalized_adjacency;
///
/// let a = normalized_adjacency(2, &[(0, 1)]);
/// // Both nodes have degree 2 (self-loop + edge): every weight is 1/2.
/// assert!((a.to_dense().get(0, 1) - 0.5).abs() < 1e-6);
/// assert!((a.to_dense().get(0, 0) - 0.5).abs() < 1e-6);
/// ```
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
pub fn normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    Neighbors::undirected(n, edges).normalized_adjacency()
}

/// Builds the row-normalized neighbor-mean operator `D^-1 A` (no self
/// loops) from a directed edge list treated as undirected — the AGGREGATE
/// step of GraphSAGE-style convolutions (mean of neighbor features).
///
/// Isolated nodes get an all-zero row (their aggregate is the zero vector).
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
pub fn mean_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    Neighbors::undirected(n, edges).mean_adjacency()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The original hash-set builders, kept as oracles for the bucketed
    // ones: identical CSR structure and bit-identical values.
    fn normalized_adjacency_reference(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut seen = std::collections::HashSet::with_capacity(edges.len() * 2 + n);
        let mut undirected: Vec<(usize, usize)> = Vec::with_capacity(edges.len() * 2 + n);
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of bounds for n={n}");
            if seen.insert((u, v)) {
                undirected.push((u, v));
            }
            if seen.insert((v, u)) {
                undirected.push((v, u));
            }
        }
        for i in 0..n {
            if seen.insert((i, i)) {
                undirected.push((i, i));
            }
        }
        let mut degree = vec![0.0f32; n];
        for &(u, _) in &undirected {
            degree[u] += 1.0;
        }
        let inv_sqrt: Vec<f32> = degree
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let triples: Vec<(usize, usize, f32)> = undirected
            .into_iter()
            .map(|(u, v)| (u, v, inv_sqrt[u] * inv_sqrt[v]))
            .collect();
        CsrMatrix::from_triplets(n, n, &triples)
    }

    fn mean_adjacency_reference(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut seen = std::collections::HashSet::with_capacity(edges.len() * 2);
        let mut undirected: Vec<(usize, usize)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of bounds for n={n}");
            if u == v {
                continue;
            }
            if seen.insert((u, v)) {
                undirected.push((u, v));
            }
            if seen.insert((v, u)) {
                undirected.push((v, u));
            }
        }
        let mut degree = vec![0usize; n];
        for &(u, _) in &undirected {
            degree[u] += 1;
        }
        let triples: Vec<(usize, usize, f32)> = undirected
            .into_iter()
            .map(|(u, v)| (u, v, 1.0 / degree[u] as f32))
            .collect();
        CsrMatrix::from_triplets(n, n, &triples)
    }

    fn assert_same_csr(got: &CsrMatrix, want: &CsrMatrix) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols));
        assert_eq!(got.indptr, want.indptr);
        assert_eq!(got.indices, want.indices);
        let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Random edge lists with duplicates, both directions, self-loops
        /// and isolated nodes build the same operators as the oracles.
        #[test]
        fn bucketed_adjacency_matches_reference(
            n in 1usize..40,
            raw in prop::collection::vec((0usize..40, 0usize..40), 0..120),
        ) {
            // squeeze ids into the low part of 0..n so high ids stay isolated
            let span = n.div_ceil(2).max(1);
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % span, v % n)).collect();
            assert_same_csr(&normalized_adjacency(n, &edges), &normalized_adjacency_reference(n, &edges));
            assert_same_csr(&mean_adjacency(n, &edges), &mean_adjacency_reference(n, &edges));
        }
    }

    #[test]
    fn empty_graph_builds_empty_operators() {
        let nb = Neighbors::undirected(0, &[]);
        assert_eq!(nb.normalized_adjacency().nnz(), 0);
        assert_eq!(nb.mean_adjacency().rows(), 0);
    }

    #[test]
    fn from_triplets_matches_dense() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0), (1, 1, -1.0)]);
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(2, 0), 1.0);
        assert_eq!(d.get(1, 1), -1.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.to_dense().get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let triples = [(0, 1, 2.0), (1, 0, 3.0), (1, 2, -1.0), (2, 2, 4.0)];
        let s = CsrMatrix::from_triplets(3, 3, &triples);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 3.0);
        let via_sparse = s.spmm(&x);
        let via_dense = s.to_dense().matmul(&x);
        assert!(via_sparse.approx_eq(&via_dense, 1e-5));
    }

    #[test]
    fn spmm_into_matches_spmm() {
        let s = CsrMatrix::from_triplets(3, 4, &[(0, 3, 1.5), (2, 0, -2.0), (2, 3, 0.5)]);
        let x = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 - 3.0);
        let mut out = Matrix::filled(3, 2, 42.0); // garbage must be overwritten
        s.spmm_into(&x, &mut out);
        assert_eq!(out, s.spmm(&x));
    }

    #[test]
    #[should_panic(expected = "spmm_into output shape")]
    fn spmm_into_rejects_wrong_shape() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let mut out = Matrix::zeros(3, 1);
        s.spmm_into(&Matrix::zeros(2, 1), &mut out);
    }

    #[test]
    fn transpose_round_trip() {
        let s = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]);
        let t = s.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.to_dense().get(2, 0), 5.0);
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn select_square_extracts_submatrix() {
        let s = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 0, 4.0),
                (1, 1, 9.0),
            ],
        );
        let sub = s.select_square(&[1, 2]);
        let d = sub.to_dense();
        assert_eq!(d.get(0, 1), 2.0); // old (1,2)
        assert_eq!(d.get(0, 0), 9.0); // old (1,1)
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    fn normalized_adjacency_rows_are_finite_and_symmetric() {
        let a = normalized_adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let d = a.to_dense();
        assert!(d.is_finite());
        assert!(d.approx_eq(&d.transpose(), 1e-6));
        // self loops exist
        for i in 0..4 {
            assert!(d.get(i, i) > 0.0);
        }
    }

    #[test]
    fn normalized_adjacency_isolated_node() {
        let a = normalized_adjacency(2, &[]);
        let d = a.to_dense();
        // isolated node with self loop: degree 1, weight 1
        assert!((d.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn normalized_adjacency_dedups_edges() {
        let a = normalized_adjacency(2, &[(0, 1), (0, 1), (1, 0)]);
        let d = a.to_dense();
        assert!((d.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_adjacency_rows_sum_to_one_or_zero() {
        let a = mean_adjacency(4, &[(0, 1), (0, 2), (1, 2)]);
        let d = a.to_dense();
        for r in 0..4 {
            let sum: f32 = (0..4).map(|c| d.get(r, c)).sum();
            assert!(
                (sum - 1.0).abs() < 1e-6 || sum == 0.0,
                "row {r} sums to {sum}"
            );
        }
        // node 3 is isolated
        assert_eq!((0..4).map(|c| d.get(3, c)).sum::<f32>(), 0.0);
        // no self loops
        for i in 0..4 {
            assert_eq!(d.get(i, i), 0.0);
        }
    }

    #[test]
    fn iter_yields_all_entries() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }
}
