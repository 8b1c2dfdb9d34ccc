//! The per-row kernels and hit order behind every similarity query.
//!
//! §IV-C argues hw2vec embeddings separate designs in embedding space; the
//! deployment consequence is a *library*: embed every owned IP once, then
//! answer "what is this suspect closest to?" forever. The library is a
//! [`ShardedEmbeddingIndex`](crate::ShardedEmbeddingIndex); this module
//! holds the pieces whose float expressions and ordering fix its results:
//! row normalization, the per-row cosine score, the query norm, and the
//! [`rank`] order on hits. Every scan path of the sharded index (serial,
//! fanned-out, batched, int8 rescoring) funnels through them, so its
//! results are bit-identical whichever path produced them.

/// One query result: the neighbor's position, label, and cosine score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// Insertion index of the neighbor.
    pub index: usize,
    /// Label the neighbor was inserted with.
    pub label: usize,
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub score: f32,
}

/// Appends the row-normalized form of `embedding` to `out`.
///
/// Rows containing a NaN/inf component — or whose norm is not a normal
/// positive float — are stored as zero rows: they score 0 against every
/// query instead of poisoning top-k order with NaN comparisons. Every
/// insert path uses this one implementation, so stored rows are
/// bit-identical for identical inputs.
pub(crate) fn normalize_into(embedding: &[f32], out: &mut Vec<f32>) {
    let norm = embedding.iter().map(|v| v * v).sum::<f32>().sqrt();
    if !norm.is_finite() || norm < 1e-12 || embedding.iter().any(|v| !v.is_finite()) {
        out.extend(std::iter::repeat_n(0.0, embedding.len()));
    } else {
        out.extend(embedding.iter().map(|v| v / norm));
    }
}

/// Cosine score of a *normalized* row against a raw query with
/// precomputed norm `qnorm` (pass a non-finite or sub-`1e-12` `qnorm` to
/// force the zero-query path). Shared by every scan path so per-row
/// scores are bit-identical between them.
pub(crate) fn score_row(row: &[f32], query: &[f32], qnorm: f32) -> f32 {
    if !qnorm.is_finite() || qnorm < 1e-12 {
        return 0.0;
    }
    let dot: f32 = row.iter().zip(query).map(|(&r, &q)| r * q).sum();
    dot / qnorm
}

/// Norm of a query vector, collapsed to `0.0` when any component is
/// non-finite so [`score_row`] takes the zero-query path.
pub(crate) fn query_norm(query: &[f32]) -> f32 {
    if query.iter().any(|v| !v.is_finite()) {
        return 0.0;
    }
    query.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Total order on hits: score descending, insertion index ascending.
/// Scores are always finite (non-finite inputs are zeroed on insert and
/// query), so the `partial_cmp` fallback is unreachable in practice —
/// it remains only as a belt against future score sources.
pub(crate) fn rank(a: &QueryHit, b: &QueryHit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.index.cmp(&b.index))
}

/// The exhaustive reference the sharded index's bit-identity tests
/// compare against: normalize every raw row, score every row, sort all
/// hits by [`rank`], truncate. It shares no code with the sharded scan
/// paths, only the float expressions of the kernels above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{rank, QueryHit};
    use gnn4ip_tensor::Matrix;

    #[derive(Default)]
    pub(crate) struct Exhaustive {
        dim: usize,
        rows: Vec<f32>,
        labels: Vec<usize>,
    }

    impl Exhaustive {
        pub(crate) fn new(dim: usize) -> Self {
            Self {
                dim,
                ..Self::default()
            }
        }

        pub(crate) fn insert(&mut self, raw: &[f32], label: usize) {
            let norm = raw.iter().map(|v| v * v).sum::<f32>().sqrt();
            if !norm.is_finite() || norm < 1e-12 || raw.iter().any(|v| !v.is_finite()) {
                self.rows.extend(std::iter::repeat_n(0.0, raw.len()));
            } else {
                self.rows.extend(raw.iter().map(|v| v / norm));
            }
            self.labels.push(label);
        }

        pub(crate) fn query(&self, query: &[f32], k: usize) -> Vec<QueryHit> {
            let qnorm = if query.iter().any(|v| !v.is_finite()) {
                0.0
            } else {
                query.iter().map(|v| v * v).sum::<f32>().sqrt()
            };
            let mut hits: Vec<QueryHit> = (self.rows.chunks(self.dim).zip(&self.labels))
                .enumerate()
                .map(|(index, (row, &label))| QueryHit {
                    index,
                    label,
                    score: if !qnorm.is_finite() || qnorm < 1e-12 {
                        0.0
                    } else {
                        row.iter().zip(query).map(|(&r, &q)| r * q).sum::<f32>() / qnorm
                    },
                })
                .collect();
            hits.sort_by(rank);
            hits.truncate(k);
            hits
        }

        /// The full `n x n` cosine Gram of the normalized rows.
        pub(crate) fn gram(&self) -> Matrix {
            let e = Matrix::from_vec(self.labels.len(), self.dim, self.rows.clone());
            e.matmul_nt(&e)
        }

        pub(crate) fn precision_at_k(&self, k: usize) -> f64 {
            let n = self.labels.len();
            if n < 2 {
                return 0.0;
            }
            let k = k.min(n - 1);
            let gram = self.gram();
            let mut total = 0.0f64;
            for q in 0..n {
                let mut hits: Vec<QueryHit> = (0..n)
                    .filter(|&j| j != q)
                    .map(|j| QueryHit {
                        index: j,
                        label: self.labels[j],
                        score: gram.get(q, j),
                    })
                    .collect();
                hits.sort_by(rank);
                let same = hits[..k]
                    .iter()
                    .filter(|h| h.label == self.labels[q])
                    .count();
                total += same as f64 / k as f64;
            }
            total / n as f64
        }
    }
}
