//! Embedding-space retrieval metrics.
//!
//! §IV-C argues hw2vec "is a compelling tool to distinguish between various
//! hardware designs": instances of the same design land near each other.
//! Retrieval precision@k quantifies that claim without any threshold — for
//! each instance, how many of its k nearest neighbors (by cosine) share its
//! design label?

use crate::sharded::ShardedEmbeddingIndex;

/// Rows per shard of the throwaway index: the `AuditConfig` default. The
/// result does not depend on it; only the block size of the scan does.
const SHARD_CAPACITY: usize = 256;

/// Mean precision@k of same-label retrieval: for each embedding, the
/// fraction of its `k` nearest neighbors (cosine, excluding itself) that
/// carry the same label, averaged over all query points.
///
/// 1.0 means every instance's neighborhood is pure; chance level is the
/// label's prevalence.
///
/// This is [`ShardedEmbeddingIndex::precision_at_k`] over a throwaway
/// index: blocked shard×shard Gram products instead of `n²` scalar cosine
/// calls, in `O(n·k)` memory instead of an `n×n` Gram. Build the index
/// yourself to amortize it across metrics and queries. Like the index
/// method, `k` clamps to the available neighbor count and fewer than two
/// points report 0.0 — a small corpus degrades instead of aborting.
///
/// # Panics
///
/// Panics if lengths differ or `k == 0`.
pub fn retrieval_precision_at_k(embeddings: &[Vec<f32>], labels: &[usize], k: usize) -> f64 {
    assert_eq!(embeddings.len(), labels.len(), "embeddings/labels mismatch");
    assert!(k > 0, "k must be positive");
    let dim = embeddings.first().map_or(1, Vec::len);
    let mut index = ShardedEmbeddingIndex::new(dim, SHARD_CAPACITY);
    for (e, &l) in embeddings.iter().zip(labels) {
        index.insert(e, l);
    }
    index.precision_at_k(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut e = Vec::new();
        let mut l = Vec::new();
        for i in 0..6 {
            e.push(vec![1.0, 0.0, 0.001 * i as f32]);
            l.push(0);
            e.push(vec![0.0, 1.0, 0.001 * i as f32]);
            l.push(1);
        }
        (e, l)
    }

    #[test]
    fn pure_clusters_retrieve_perfectly() {
        let (e, l) = blobs();
        let p = retrieval_precision_at_k(&e, &l, 3);
        assert!(p > 0.99, "precision@3 = {p}");
    }

    #[test]
    fn shuffled_labels_drop_to_chance() {
        let (e, _) = blobs();
        // label everything by parity of index — orthogonal to geometry
        let l: Vec<usize> = (0..e.len()).map(|i| i % 2).collect();
        let p = retrieval_precision_at_k(&e, &l, 3);
        assert!(p > 0.99, "parity equals geometry here"); // sanity: blob layout interleaves
        let l2: Vec<usize> = (0..e.len()).map(|i| usize::from(i < e.len() / 2)).collect();
        let p2 = retrieval_precision_at_k(&e, &l2, 3);
        assert!(p2 < 0.8, "mismatched labels should score lower: {p2}");
    }

    #[test]
    fn zero_vectors_do_not_panic() {
        let e = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.9, 0.1]];
        let l = vec![0, 1, 1];
        let p = retrieval_precision_at_k(&e, &l, 1);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn small_corpus_degrades_instead_of_panicking() {
        assert_eq!(retrieval_precision_at_k(&[], &[], 3), 0.0);
        assert_eq!(retrieval_precision_at_k(&[vec![1.0, 0.0]], &[0], 3), 0.0);
        // k larger than the corpus clamps to the available neighbors
        let e = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let l = vec![0, 0, 1];
        assert_eq!(
            retrieval_precision_at_k(&e, &l, 100),
            retrieval_precision_at_k(&e, &l, 2)
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = retrieval_precision_at_k(&[vec![1.0], vec![2.0]], &[0, 1], 0);
    }
}
