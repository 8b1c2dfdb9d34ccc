//! A sharded, persistent, read-mostly embedding index for corpus-scale
//! retrieval and concurrent serving.
//!
//! The deployment the paper's §IV-C motivates — embed every owned IP
//! once, then answer "what is this suspect closest to?" forever —
//! outgrows one contiguous matrix in three ways: the corpus arrives
//! *incrementally* (designs stream in; rebuilding a monolithic matrix per
//! insert is quadratic), it must *outlive the process* (an index that
//! vanishes on exit re-embeds the world on every restart), and it must
//! keep *serving queries while it grows* (a monolithic `&mut` structure
//! blocks every reader for the duration of an ingest).
//!
//! [`ShardedEmbeddingIndex`] stores row-normalized embeddings in
//! fixed-capacity shards with a sealed/tail split: every full shard is an
//! immutable, `Arc`-shared [`SealedShard`] carrying precomputed score
//! bounds (centroid, covering radius, max row norm), and exactly one open
//! *tail* shard sits behind the mutable insert path. Because the sealed
//! prefix is immutable, [`snapshot`](ShardedEmbeddingIndex::snapshot) is
//! cheap — it bumps one `Arc` per sealed shard and copies only the tail —
//! and a snapshot serves queries forever without seeing (or blocking)
//! later inserts.
//!
//! Queries are fast twice over. Sealed shards whose *best possible* score
//! (from the centroid/radius bound) cannot beat the current global top-k
//! floor are skipped without touching a row, and on corpora large enough
//! to be worth threading the surviving per-shard scans fan out across
//! workers via [`fan_out`]. Both paths produce results **bit-identical**
//! to an exhaustive scan that scores every row and sorts (property tests
//! in `tests/properties.rs` hold this line): every score is computed by
//! the same per-row kernel, pruning only discards shards whose rows
//! provably lose, and the k-way merge is order-insensitive.
//!
//! Two more layers kick in at corpus scale (≥ 100k rows). **Routing:**
//! bound pruning only bites when shards are internally coherent, which
//! arrival order does not guarantee;
//! [`rebalance`](ShardedEmbeddingIndex::rebalance) learns k-means-style
//! centroids from the sealed rows and rebuilds the sealed region in
//! cluster order, so the descending-bound walk behaves like an IVF probe
//! of the nearest-centroid shards regardless of how the corpus arrived.
//! **Quantization:** an index built with [`ShardStorage::Int8`] stores
//! sealed rows as symmetric int8 with a per-shard calibration header;
//! queries scan the int8 codes (~4x less memory traffic), then rescore a
//! provably sufficient shortlist in f32 — the dequantized values are the
//! canonical rows, so results stay bit-identical to an exhaustive f32
//! scan of the same index. Shard bounds are computed *before*
//! quantization and the quantization error bound is folded into the
//! prune slack, so pruning stays sound.
//!
//! The whole structure persists through the `G4IP` binary artifact format
//! (format v2 serializes the sealed-shard bounds; v1 artifacts still load
//! by recomputing them), pinned to the checksum of the model weights that
//! produced the embeddings. For growing corpora the append-only
//! manifest layout in [`crate::manifest`] checkpoints only newly sealed
//! shards instead of rewriting the monolithic artifact.

use std::borrow::Cow;
use std::sync::Arc;

use gnn4ip_tensor::{
    dot_i8, fan_out, gemm_nt, read_artifact, worker_count, write_artifact, BinReader, BinWriter,
    Fnv64, Matrix, QuantParams, Workspace,
};

use crate::index::{normalize_into, query_norm, rank, score_row, QueryHit};

/// Kind tag of the persisted shard-index artifact.
pub const SHARD_INDEX_KIND: &str = "gnn4ip-shard-index";

/// Format version the shard-index artifact is written at: v2 appended
/// the sealed-shard bounds (centroid, radius, max norm) to each full
/// shard. v1 artifacts still load; the bounds are recomputed.
const SHARD_INDEX_VERSION: u16 = 2;

/// Default minimum number of indexed rows before [`query`] fans per-shard
/// scans across worker threads. Below this, thread spawn/join overhead
/// dwarfs the scan itself and queries stay single-threaded.
///
/// [`query`]: ShardedEmbeddingIndex::query
pub const PARALLEL_QUERY_MIN_ROWS: usize = 1 << 17;

/// Additive slack applied to a sealed shard's score bound before it is
/// compared against the current top-k floor. The centroid/radius bound
/// holds in exact arithmetic; this slack absorbs f32 rounding in both the
/// bound and the per-row scores, so pruning can never discard a true
/// top-k hit. Scores live in `[-1, 1]` and the accumulated rounding error
/// of a `dim`-term dot product of unit vectors is bounded well below
/// `1e-5` for any practical `dim`, so `1e-4` is a wide margin — and the
/// sharded-vs-exhaustive bit-identity proptest holds the line
/// empirically.
const PRUNE_SLACK: f32 = 1e-4;

/// How a sealed shard stores its rows.
///
/// The tail is always f32 (it is mutable and tiny); the choice applies
/// when a full tail is sealed. Under [`ShardStorage::Int8`] the sealed
/// rows are quantized symmetrically with a per-shard calibration
/// header, and **the dequantized values become the canonical rows**:
/// every exact score — exhaustive scan, shortlist rescoring,
/// similarity blocks — is computed from the same deterministic
/// dequantization, so query results are bit-identical whichever scan
/// path produced them, while sealed row storage drops to ~1/4 of f32.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardStorage {
    /// Full-precision rows (the default).
    #[default]
    F32,
    /// Symmetric int8 rows with per-shard scale; exact f32 rescoring of
    /// a shortlist keeps query results bit-identical.
    Int8,
}

/// The open tail shard: the one mutable block of the index. Holds
/// `0..capacity` rows; sealing moves its storage into a [`SealedShard`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Shard {
    /// Row-major `len x dim` normalized rows.
    pub(crate) data: Vec<f32>,
    pub(crate) labels: Vec<usize>,
}

impl Shard {
    pub(crate) fn new(capacity_hint: usize, dim: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity_hint * dim),
            labels: Vec::with_capacity(capacity_hint),
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// Row payload of one sealed shard: full-precision f32, or symmetric
/// int8 codes plus the per-shard calibration header.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RowBlock {
    /// Row-major `rows x dim` f32.
    F32(Vec<f32>),
    /// Row-major `rows x dim` int8 codes. The dequantized values are the
    /// shard's canonical rows.
    Int8 {
        q: Vec<i8>,
        params: QuantParams,
        /// `max_i Σ_j |dequantize(q_ij)|` — the L1 bound the int8 scan's
        /// shortlist error analysis divides the query quantization step
        /// into. Recomputable from `q` and `params`; cached at seal.
        max_l1: f32,
    },
}

impl RowBlock {
    pub(crate) fn as_ref(&self) -> RowsRef<'_> {
        match self {
            RowBlock::F32(data) => RowsRef::F32(data),
            RowBlock::Int8 { q, params, .. } => RowsRef::Int8 { q, params: *params },
        }
    }

    /// Bytes of row payload held (codes/floats plus the quantization
    /// header; labels and bounds excluded) — the memory-traffic number
    /// the int8 mode exists to shrink.
    pub(crate) fn payload_bytes(&self) -> usize {
        match self {
            RowBlock::F32(data) => std::mem::size_of_val(data.as_slice()),
            RowBlock::Int8 { q, .. } => {
                std::mem::size_of_val(q.as_slice()) + std::mem::size_of::<QuantParams>() + 4
            }
        }
    }
}

/// Borrowed view of row storage, dispatching the *exact* per-row scoring
/// kernel over either representation. The int8 arm dequantizes into a
/// caller scratch buffer and runs the same [`score_row`] the f32 arm
/// runs — this is the single definition of a row's exact score.
#[derive(Clone, Copy)]
pub(crate) enum RowsRef<'a> {
    F32(&'a [f32]),
    Int8 { q: &'a [i8], params: QuantParams },
}

impl RowsRef<'_> {
    fn score(
        &self,
        i: usize,
        dim: usize,
        query: &[f32],
        qnorm: f32,
        scratch: &mut Vec<f32>,
    ) -> f32 {
        match *self {
            RowsRef::F32(data) => score_row(&data[i * dim..(i + 1) * dim], query, qnorm),
            RowsRef::Int8 { q, params } => {
                scratch.clear();
                scratch.extend(
                    q[i * dim..(i + 1) * dim]
                        .iter()
                        .map(|&c| params.dequantize(c)),
                );
                score_row(scratch, query, qnorm)
            }
        }
    }

    /// Materializes every row (dequantizing as needed) into `out`, which
    /// must hold exactly `rows * dim` floats.
    pub(crate) fn copy_all_into(&self, out: &mut [f32]) {
        match *self {
            RowsRef::F32(data) => out.copy_from_slice(data),
            RowsRef::Int8 { q, params } => {
                for (o, &c) in out.iter_mut().zip(q) {
                    *o = params.dequantize(c);
                }
            }
        }
    }
}

/// One full, immutable, `Arc`-shared block of row-normalized embeddings,
/// carrying precomputed query-independent score bounds.
#[derive(Debug, PartialEq)]
pub(crate) struct SealedShard {
    /// Row payload (`capacity x dim`), f32 or quantized.
    pub(crate) rows: RowBlock,
    pub(crate) labels: Vec<usize>,
    /// Mean of the pre-quantization rows (not itself normalized).
    pub(crate) centroid: Vec<f32>,
    /// Covering radius: `max_i ‖rᵢ − centroid‖` (pre-quantization).
    pub(crate) radius: f32,
    /// `max_i ‖rᵢ‖` — ~1 for normalized rows, 0 for all-zero shards.
    pub(crate) max_norm: f32,
    /// Additive bound slack covering how far quantization may have moved
    /// any stored row from the pre-quantization row the bounds describe:
    /// `√dim · scale ≥ ‖r̂ − r‖` with margin to spare. 0 for f32 shards.
    pub(crate) quant_slack: f32,
    /// FNV-1a-64 over the stored labels + row payload — the shard's
    /// content address in the append-only manifest layout.
    pub(crate) content_id: u64,
}

/// Bounds of one row block: `(centroid, radius, max_norm)` exactly as
/// [`SealedShard`] documents them.
fn compute_bounds(data: &[f32], dim: usize) -> (Vec<f32>, f32, f32) {
    let n = data.len() / dim;
    let mut centroid = vec![0.0f32; dim];
    for row in data.chunks_exact(dim) {
        for (c, &v) in centroid.iter_mut().zip(row) {
            *c += v;
        }
    }
    let inv = 1.0 / n as f32;
    for c in &mut centroid {
        *c *= inv;
    }
    let mut radius = 0.0f32;
    let mut max_norm = 0.0f32;
    for row in data.chunks_exact(dim) {
        let mut d2 = 0.0f32;
        let mut n2 = 0.0f32;
        for (&v, &c) in row.iter().zip(&centroid) {
            d2 += (v - c) * (v - c);
            n2 += v * v;
        }
        radius = radius.max(d2.sqrt());
        max_norm = max_norm.max(n2.sqrt());
    }
    (centroid, radius, max_norm)
}

/// Content address of a shard's stored payload: FNV-1a-64 over a storage
/// tag, the labels, and the exact stored row bytes (codes + calibration
/// for int8). Two shards with the same id hold the same rows under the
/// same labels; the append-only layout names shard files by this id so
/// an unchanged shard is never rewritten.
fn content_id_of(rows: &RowBlock, labels: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    for &l in labels {
        h.update(&(l as u64).to_le_bytes());
    }
    match rows {
        RowBlock::F32(data) => {
            h.update(&[0u8]);
            for &v in data {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        RowBlock::Int8 { q, params, .. } => {
            h.update(&[1u8]);
            h.update(&params.scale.to_bits().to_le_bytes());
            // g4check: allow(cast-truncation): i8→u8 reinterprets the bit pattern, round-trips
            h.update(&[params.zero_point as u8]);
            for &c in q {
                // g4check: allow(cast-truncation): i8→u8 reinterprets the bit pattern, round-trips
                h.update(&[c as u8]);
            }
        }
    }
    h.finish()
}

impl SealedShard {
    /// Freezes a full tail shard: bounds are computed once from the f32
    /// rows, then (under [`ShardStorage::Int8`]) the rows are calibrated
    /// and quantized, with the quantization displacement folded into
    /// `quant_slack` so the pre-quantization bounds stay sound for the
    /// stored rows.
    fn seal(shard: Shard, dim: usize, storage: ShardStorage) -> Self {
        debug_assert!(!shard.labels.is_empty(), "sealing an empty shard");
        let (centroid, radius, max_norm) = compute_bounds(&shard.data, dim);
        let (rows, quant_slack) = match storage {
            ShardStorage::F32 => (RowBlock::F32(shard.data), 0.0),
            ShardStorage::Int8 => {
                let params = QuantParams::calibrate(&shard.data);
                let mut q = Vec::new();
                params.quantize_into(&shard.data, &mut q);
                let max_l1 = max_row_l1(&q, params, dim);
                // each component moved at most step() = scale/2 (+ fp
                // rounding), so ‖r̂ − r‖ ≤ √dim·scale/2; double it for a
                // comfortable margin — slack only costs pruning a little
                // less, never correctness
                let slack = (dim as f32).sqrt() * params.scale;
                (RowBlock::Int8 { q, params, max_l1 }, slack)
            }
        };
        let content_id = content_id_of(&rows, &shard.labels);
        Self {
            rows,
            labels: shard.labels,
            centroid,
            radius,
            max_norm,
            quant_slack,
            content_id,
        }
    }

    /// Assembles a sealed shard from full-precision parts with already
    /// computed (validated) bounds — the monolithic-artifact load path.
    pub(crate) fn from_f32_parts(
        data: Vec<f32>,
        labels: Vec<usize>,
        centroid: Vec<f32>,
        radius: f32,
        max_norm: f32,
    ) -> Self {
        let rows = RowBlock::F32(data);
        let content_id = content_id_of(&rows, &labels);
        Self {
            rows,
            labels,
            centroid,
            radius,
            max_norm,
            quant_slack: 0.0,
            content_id,
        }
    }

    /// Assembles a quantized sealed shard from its stored parts (the
    /// append-only shard-file load path). `max_l1` and `quant_slack` are
    /// recomputed rather than trusted from the file.
    pub(crate) fn from_int8_parts(
        q: Vec<i8>,
        params: QuantParams,
        labels: Vec<usize>,
        dim: usize,
        centroid: Vec<f32>,
        radius: f32,
        max_norm: f32,
    ) -> Self {
        let max_l1 = max_row_l1(&q, params, dim);
        let rows = RowBlock::Int8 { q, params, max_l1 };
        let content_id = content_id_of(&rows, &labels);
        Self {
            rows,
            labels,
            centroid,
            radius,
            max_norm,
            quant_slack: (dim as f32).sqrt() * params.scale,
            content_id,
        }
    }

    /// Upper bound (in exact arithmetic) on any row's score against the
    /// query: `dot(r, q̂) = dot(c, q̂) + dot(r − c, q̂) ≤ dot(c, q̂) + ‖r − c‖`
    /// by Cauchy–Schwarz, and independently `dot(r, q̂) ≤ ‖r‖`. Returns the
    /// tighter of the two, plus `quant_slack` on quantized shards (whose
    /// stored rows may sit up to that far from the pre-quantization rows
    /// the bounds were computed over). Always finite on the insert path
    /// (non-finite embeddings are stored as zero rows) and for loaded
    /// artifacts (bounds are validated at load; a forged non-finite value
    /// could otherwise force an always-pruned `-inf` bound).
    fn score_bound(&self, query: &[f32], qnorm: f32) -> f32 {
        (score_row(&self.centroid, query, qnorm) + self.radius).min(self.max_norm)
            + self.quant_slack
    }
}

/// `max_i Σ_j |dequantize(q_ij)|` over the rows of a quantized block.
fn max_row_l1(q: &[i8], params: QuantParams, dim: usize) -> f32 {
    let mut max_l1 = 0.0f32;
    for row in q.chunks_exact(dim) {
        let l1: f32 = row.iter().map(|&c| params.dequantize(c).abs()).sum();
        max_l1 = max_l1.max(l1);
    }
    max_l1
}

/// An incrementally built, persistent, read-mostly index of row-normalized
/// embeddings: immutable `Arc`-shared sealed shards plus one open tail.
///
/// Scores, tie-breaking, and non-finite handling are identical to an
/// exhaustive scan that scores every row and sorts by score, then
/// insertion index; only the storage layout and algorithms differ.
/// [`snapshot`](ShardedEmbeddingIndex::snapshot) produces an independent
/// copy in `O(sealed shards + tail)` — not `O(rows)` — so a serving thread
/// can keep answering queries while a writer ingests.
///
/// # Examples
///
/// ```
/// use gnn4ip_eval::ShardedEmbeddingIndex;
///
/// let mut index = ShardedEmbeddingIndex::new(2, 2); // dim 2, 2 rows/shard
/// index.insert(&[1.0, 0.0], 0);
/// index.insert(&[0.9, 0.1], 0); // seals the first shard
/// index.insert(&[0.0, 2.0], 1); // opens the tail
/// assert_eq!(index.num_shards(), 2);
/// assert_eq!(index.num_sealed_shards(), 1);
/// let hits = index.query(&[1.0, 0.05], 2);
/// assert_eq!(hits[0].label, 0);
/// assert!(hits[0].score >= hits[1].score);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEmbeddingIndex {
    pub(crate) dim: usize,
    pub(crate) shard_capacity: usize,
    /// Row representation newly sealed shards adopt.
    pub(crate) storage: ShardStorage,
    /// Immutable full shards, cheaply shared between snapshots.
    pub(crate) sealed: Vec<Arc<SealedShard>>,
    /// The one mutable block: `0..shard_capacity` rows. Sealed eagerly the
    /// moment it fills, so it is never full between calls.
    pub(crate) tail: Shard,
}

/// Tuning knobs for [`ShardedEmbeddingIndex::query_opts`].
///
/// The defaults (used by [`ShardedEmbeddingIndex::query`]) enable bound
/// pruning and gate the parallel scan behind
/// [`PARALLEL_QUERY_MIN_ROWS`]. Whatever the options, query *results* are
/// bit-identical — only the work done to produce them changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Skip sealed shards whose score bound cannot beat the current
    /// top-k floor.
    pub prune: bool,
    /// Worker threads for the per-shard scans (`0` = one per core).
    pub threads: usize,
    /// Minimum total indexed rows before scans fan out across threads;
    /// smaller corpora always scan on the calling thread.
    pub parallel_min_rows: usize,
    /// On [`ShardStorage::Int8`] indexes, scan the int8 codes and
    /// rescore a provably sufficient shortlist in f32 (results stay
    /// bit-identical). Off forces the exact dequantize-and-score walk on
    /// every row — the reference path the proptests compare against. No
    /// effect on f32 indexes.
    pub int8_scan: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            prune: true,
            threads: 0,
            parallel_min_rows: PARALLEL_QUERY_MIN_ROWS,
            int8_scan: true,
        }
    }
}

/// What one [`ShardedEmbeddingIndex::query_opts`] call did. Results never
/// depend on these numbers; they exist so benches and operators can see
/// pruning and threading actually engage.
#[must_use = "query stats exist only to be inspected; dropping them silences the pruning telemetry"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sealed shards in the index at query time.
    pub sealed_shards: usize,
    /// Sealed shards whose rows were actually scanned (probed).
    pub sealed_probed: usize,
    /// Sealed shards skipped by the bound check without scanning a row.
    pub sealed_pruned: usize,
    /// Rows actually scored (int8 approximate scores count — they touch
    /// the row).
    pub rows_scanned: usize,
    /// Rows whose exact f32 score was recomputed by the int8 shortlist
    /// rescoring pass (0 on f32 indexes and with `int8_scan` off).
    pub rows_rescored: usize,
    /// Whether the surviving shard scans ran on worker threads.
    pub parallel: bool,
}

/// Tuning knobs for [`ShardedEmbeddingIndex::rebalance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceOptions {
    /// Lloyd refinement iterations over the training sample.
    pub iters: usize,
    /// Maximum rows sampled (strided, deterministic) to train centroids;
    /// the final assignment always visits every sealed row.
    pub sample: usize,
    /// Worker threads for the assignment pass (`0` = one per core).
    pub threads: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        Self {
            iters: 4,
            sample: 16_384,
            threads: 0,
        }
    }
}

/// What one [`ShardedEmbeddingIndex::rebalance`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Sealed rows that participated in the re-clustering.
    pub sealed_rows: usize,
    /// Centroids trained (= sealed shard count; 0 when nothing to do).
    pub centroids: usize,
    /// Lloyd iterations actually run.
    pub iters: usize,
    /// Rows whose shard changed (storage moved; labels and scores do not).
    pub moved: usize,
}

/// A candidate in the k-way heap merge: the head of one shard run's
/// sorted top-k. Ordered so the rank-best hit is the heap maximum.
struct MergeHead {
    hit: QueryHit,
    run: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum; reverse rank so "best" is maximal
        rank(&self.hit, &other.hit).reverse()
    }
}

/// A bounded keeper of the `k` rank-best `(score, global index)` pairs.
/// The heap top is the *worst* retained hit, so an incoming candidate
/// either evicts it or is discarded in `O(log k)`.
///
/// For exact top-k selection, candidates MUST be pushed in ascending
/// index order (the per-shard scans do). That precondition collapses the
/// keep/discard decision to one float compare: a candidate tying the
/// retained worst on score always carries the larger index, so under
/// [`rank`] it loses — only a strictly greater score evicts. When used
/// as a cross-shard score *floor* (pruning), pushes arrive out of index
/// order; ties then retain an arbitrary hit, but the floor — the worst
/// retained *score* — is unaffected, which is all the pruning comparison
/// reads.
struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

struct WorstFirst(QueryHit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // rank() is ascending-is-better; the heap maximum is the worst hit
        rank(&self.0, &other.0)
    }
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    fn push(&mut self, hit: QueryHit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
        } else if let Some(worst) = self.heap.peek() {
            // exact only for ascending-index pushes; see the type docs
            if hit.score > worst.0.score {
                self.heap.pop();
                self.heap.push(WorstFirst(hit));
            }
        }
    }

    fn into_hits(self) -> Vec<QueryHit> {
        self.heap.into_iter().map(|w| w.0).collect()
    }

    /// Whether `k` hits are retained — the floor is only meaningful then.
    fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Score of the worst retained hit (`-inf` when empty) — the eviction
    /// threshold for the caller's fast path.
    fn worst_score(&self) -> f32 {
        self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.0.score)
    }
}

/// One shard's sorted top-k run: a bounded heap maintained while the rows
/// are scored (a losing row costs one dot product and one float compare —
/// no heap access, no hit construction), then sorted by rank. Shared by
/// the sequential and fanned-out scan paths so their runs are identical.
fn shard_run(
    rows: RowsRef<'_>,
    labels: &[usize],
    dim: usize,
    offset: usize,
    query: &[f32],
    qnorm: f32,
    k: usize,
) -> Vec<QueryHit> {
    let n = labels.len();
    // clamp per shard: a "give me everything" k (even usize::MAX, which
    // `query` accepts) must not size the heap
    let kk = k.min(n);
    let mut scratch = Vec::with_capacity(dim);
    let mut top = TopK::new(kk);
    for (i, &label) in labels.iter().enumerate().take(kk) {
        top.push(QueryHit {
            index: offset + i,
            label,
            score: rows.score(i, dim, query, qnorm, &mut scratch),
        });
    }
    if kk < n {
        let mut worst = top.worst_score();
        for (i, &label) in labels.iter().enumerate().skip(kk) {
            let score = rows.score(i, dim, query, qnorm, &mut scratch);
            if score > worst {
                top.push(QueryHit {
                    index: offset + i,
                    label,
                    score,
                });
                worst = top.worst_score();
            }
        }
    }
    let mut run = top.into_hits();
    run.sort_unstable_by(rank);
    run
}

/// The query quantized once per [`ShardedEmbeddingIndex::query_opts`]
/// call with its own symmetric calibration, shared by every int8 shard
/// scan of that query.
struct QuantizedQuery {
    q: Vec<i8>,
    params: QuantParams,
}

impl QuantizedQuery {
    fn new(query: &[f32]) -> Self {
        let params = QuantParams::calibrate(query);
        let mut q = Vec::new();
        params.quantize_into(query, &mut q);
        Self { q, params }
    }
}

/// The int8 fast path of one quantized shard: approximate every row with
/// the integer dot product, then exactly rescore the shortlist the
/// error analysis proves sufficient. Returns the shard's *exact* sorted
/// top-k run plus how many rows were rescored.
///
/// Soundness: with `s_i` the exact (dequantized f32) score and `a_i`
/// the int8 approximation, `|s_i − a_i| ≤ ε` where
/// `ε = max_l1 · step_q / qnorm + slack` (`step_q` is half the query's
/// quantization step; the additive slack absorbs f32 rounding, same
/// rationale as [`PRUNE_SLACK`]). Let `t` be the k-th largest `a`. Any
/// row `x` with `a_x < t − 2ε` has `s_x ≤ a_x + ε < t − ε ≤ s_j` for
/// each of the ≥ k rows with `a_j ≥ t` — strictly below k rows, so `x`
/// cannot be in the exact top-k under any tie-break. Rescoring
/// `{i : a_i ≥ t − 2ε}` therefore reproduces the exact run bit for bit.
#[allow(clippy::too_many_arguments)]
fn shard_run_int8(
    q: &[i8],
    params: QuantParams,
    max_l1: f32,
    labels: &[usize],
    dim: usize,
    offset: usize,
    query: &[f32],
    qq: &QuantizedQuery,
    qnorm: f32,
    k: usize,
) -> (Vec<QueryHit>, usize) {
    let n = labels.len();
    let kk = k.min(n);
    // combined ≤ ~1/127² per integer unit: the products cannot overflow
    // f32 (see dot_i8 — the integer accumulation itself is exact)
    let combined = params.scale * qq.params.scale / qnorm;
    let approx: Vec<f32> = (0..n)
        .map(|i| dot_i8(&q[i * dim..(i + 1) * dim], &qq.q) as f32 * combined)
        .collect();
    let mut tmp = approx.clone();
    let (_, &mut kth, _) = tmp.select_nth_unstable_by(kk - 1, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    let eps = max_l1 * qq.params.step() / qnorm + PRUNE_SLACK;
    let cut = kth - 2.0 * eps;
    let rows = RowsRef::Int8 { q, params };
    let mut scratch = Vec::with_capacity(dim);
    let mut top = TopK::new(kk);
    let mut rescored = 0usize;
    // ascending index order, as TopK's exactness precondition requires
    for (i, &a) in approx.iter().enumerate() {
        if a >= cut {
            rescored += 1;
            top.push(QueryHit {
                index: offset + i,
                label: labels[i],
                score: rows.score(i, dim, query, qnorm, &mut scratch),
            });
        }
    }
    let mut run = top.into_hits();
    run.sort_unstable_by(rank);
    (run, rescored)
}

/// One shard's exact sorted top-k run built from already-computed exact
/// per-row scores — the same bounded-heap pass as [`shard_run`], minus
/// the scoring. The batched paths gemm a whole block's scores first and
/// then select per query through this single definition.
fn run_from_scores(scores: &[f32], labels: &[usize], offset: usize, k: usize) -> Vec<QueryHit> {
    let n = labels.len();
    let kk = k.min(n);
    let nb = n.div_ceil(64);
    let mut top = TopK::new(kk);
    // A NaN among the first `kk` rows forces the positional walk:
    // [`shard_run`] pushes those rows unconditionally, a retained NaN
    // floor then rejects everything, and [`rank`] is not a total order
    // over NaN — no filtered walk reproduces that. A NaN *beyond* the
    // head never enters serially (`score > worst` is false), so the
    // filtered walk below drops it the same way.
    let head_nan = scores[..kk].iter().fold(false, |a, &s| a | s.is_nan());
    if kk > 0 && !head_nan && nb > kk {
        // Floor-seeded selection. Block maxes (64-row granules, four
        // independent max chains so the fold isn't latency-bound) give
        // a floor that is valid *before* the walk starts: the `kk`-th
        // largest block max is witnessed by `kk` rows in distinct
        // blocks, so the true `kk`-th best score can only be higher.
        // Rows below the floor — in practice almost all of them, block
        // skips deciding 64 at a time — can then be ignored outright,
        // and the surviving candidates stream through the same
        // ascending-index strict-`>` walk as [`shard_run`], which
        // retains exactly the `kk` rank-best of them (see [`TopK`]).
        let mut bmax: Vec<f32> = Vec::with_capacity(nb);
        for block in scores.chunks(64) {
            // `(s > m) ? s : m` instead of `f32::max`: same result when
            // `m` is never NaN (it starts at -inf and NaN fails the
            // compare), and it lowers to one bare max instruction
            // instead of a NaN-order-correcting sequence
            let mut m = [f32::NEG_INFINITY; 4];
            let mut it = block.chunks_exact(4);
            for ch in &mut it {
                for (mj, &s) in m.iter_mut().zip(ch) {
                    *mj = if s > *mj { s } else { *mj };
                }
            }
            let mut mm = f32::NEG_INFINITY;
            for &mj in &m {
                mm = if mj > mm { mj } else { mm };
            }
            for &s in it.remainder() {
                mm = if s > mm { s } else { mm };
            }
            bmax.push(mm);
        }
        let mut order = bmax.clone();
        let (_, &mut floor, _) = order.select_nth_unstable_by(kk - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut worst = f32::NEG_INFINITY;
        for (bi, &m) in bmax.iter().enumerate() {
            // `<` keeps boundary ties: a top-k row may *equal* the floor
            if m < floor {
                continue;
            }
            let start = bi * 64;
            let end = (start + 64).min(n);
            for i in start..end {
                let score = scores[i];
                if score >= floor && (!top.is_full() || score > worst) {
                    top.push(QueryHit {
                        index: offset + i,
                        label: labels[i],
                        score,
                    });
                    worst = top.worst_score();
                }
            }
        }
    } else {
        // [`shard_run`]'s exact positional walk, minus the scoring
        for (i, &label) in labels.iter().enumerate().take(kk) {
            top.push(QueryHit {
                index: offset + i,
                label,
                score: scores[i],
            });
        }
        let mut worst = top.worst_score();
        for (i, &label) in labels.iter().enumerate().skip(kk) {
            let score = scores[i];
            if score > worst {
                top.push(QueryHit {
                    index: offset + i,
                    label,
                    score,
                });
                worst = top.worst_score();
            }
        }
    }
    let mut run = top.into_hits();
    run.sort_unstable_by(rank);
    run
}

/// Exact sorted runs of one f32 row block for a *subset* of a query
/// batch: one blocked [`gemm_nt`] streams the rows once for every
/// selected query, then each query's run is selected from its score row.
///
/// Bit-identity with the serial path: a gemm entry accumulates the same
/// products in the same order as [`score_row`]'s dot, and the division
/// by the query norm (with the degenerate-norm zero path) is applied
/// per entry exactly as [`score_row`] applies it.
#[allow(clippy::too_many_arguments)]
fn gemm_runs(
    rows: &[f32],
    labels: &[usize],
    dim: usize,
    offset: usize,
    queries: &[Vec<f32>],
    qnorms: &[f32],
    select: &[usize],
    k: usize,
) -> Vec<Vec<QueryHit>> {
    let n = labels.len();
    let mut qbuf: Vec<f32> = Vec::with_capacity(select.len() * dim);
    for &qi in select {
        qbuf.extend_from_slice(&queries[qi]);
    }
    let mut dots = vec![0.0f32; select.len() * n];
    gemm_nt(&qbuf, rows, dim, &mut dots);
    let mut scores = vec![0.0f32; n];
    let mut out = Vec::with_capacity(select.len());
    for (si, &qi) in select.iter().enumerate() {
        let qnorm = qnorms[qi];
        if !qnorm.is_finite() || qnorm < 1e-12 {
            // score_row's zero-query path, batched
            scores.fill(0.0);
        } else {
            for (s, &d) in scores.iter_mut().zip(&dots[si * n..(si + 1) * n]) {
                *s = d / qnorm;
            }
        }
        out.push(run_from_scores(&scores, labels, offset, k));
    }
    out
}

/// The int8 fast path of one quantized shard against a subset of a query
/// batch: every selected query runs its own integer approximate scan
/// (exactly [`shard_run_int8`]'s), but the exact rescoring walks **one
/// merged shortlist** — a row shortlisted by several queries is
/// dequantized once and rescored through the shared kernel for each of
/// them. Returns each selected query's exact sorted run plus its own
/// rescored-row count (identical to what its serial scan would report).
#[allow(clippy::too_many_arguments)]
fn shard_runs_int8_batch(
    q: &[i8],
    params: QuantParams,
    max_l1: f32,
    labels: &[usize],
    dim: usize,
    offset: usize,
    queries: &[Vec<f32>],
    qnorms: &[f32],
    sel: &[(usize, &QuantizedQuery)],
    k: usize,
) -> Vec<(Vec<QueryHit>, usize)> {
    let n = labels.len();
    let kk = k.min(n);
    let b = sel.len();
    let mut approx = vec![0.0f32; b * n];
    let mut cuts = vec![f32::NEG_INFINITY; b];
    for (si, &(qi, qq)) in sel.iter().enumerate() {
        let qnorm = qnorms[qi];
        let combined = params.scale * qq.params.scale / qnorm;
        let arow = &mut approx[si * n..(si + 1) * n];
        for (i, a) in arow.iter_mut().enumerate() {
            *a = dot_i8(&q[i * dim..(i + 1) * dim], &qq.q) as f32 * combined;
        }
        let mut tmp = arow.to_vec();
        let (_, &mut kth, _) = tmp.select_nth_unstable_by(kk - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        let eps = max_l1 * qq.params.step() / qnorm + PRUNE_SLACK;
        cuts[si] = kth - 2.0 * eps;
    }
    let mut scratch = Vec::with_capacity(dim);
    let mut tops: Vec<TopK> = (0..b).map(|_| TopK::new(kk)).collect();
    let mut rescored = vec![0usize; b];
    // ascending index order per query, as TopK's exactness requires; the
    // dequantization is hoisted out of the per-query pushes
    for i in 0..n {
        let mut dequantized = false;
        for (si, &(qi, _)) in sel.iter().enumerate() {
            if approx[si * n + i] >= cuts[si] {
                if !dequantized {
                    scratch.clear();
                    scratch.extend(
                        q[i * dim..(i + 1) * dim]
                            .iter()
                            .map(|&c| params.dequantize(c)),
                    );
                    dequantized = true;
                }
                rescored[si] += 1;
                tops[si].push(QueryHit {
                    index: offset + i,
                    label: labels[i],
                    score: score_row(&scratch, &queries[qi], qnorms[qi]),
                });
            }
        }
    }
    tops.into_iter()
        .zip(rescored)
        .map(|(top, rs)| {
            let mut run = top.into_hits();
            run.sort_unstable_by(rank);
            (run, rs)
        })
        .collect()
}

/// k-way merge of per-shard sorted runs into the global top-k: the heap
/// holds one [`MergeHead`] per non-empty run. `rank()` totally orders
/// hits by (score desc, global index asc), so the merged output is
/// independent of run order — and pruned shards contribute nothing they
/// could have won. Shared by the serial and batched query paths.
fn merge_runs(runs: &[Vec<QueryHit>], k: usize, total: usize) -> Vec<QueryHit> {
    let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        if let Some(&hit) = run.first() {
            heap.push(MergeHead {
                hit,
                run: ri,
                pos: 0,
            });
        }
    }
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.hit);
        let next = head.pos + 1;
        if let Some(&hit) = runs[head.run].get(next) {
            heap.push(MergeHead {
                hit,
                run: head.run,
                pos: next,
            });
        }
    }
    out
}

/// The splitmix64 output function: a stateless deterministic mixer.
/// [`ShardedEmbeddingIndex::rebalance`] draws its k-means sample indices
/// from `mix64(0), mix64(1), …` — reproducible like a stride, but with
/// none of a stride's arithmetic structure to alias against periodic
/// arrival orders.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Squared L2 norm of each centroid, precomputed so nearest-centroid
/// assignment reduces to `argmin ‖c‖² − 2·r·c` (the `‖r‖²` term is
/// constant per row and drops out of the argmin).
fn centroid_norms2(centroids: &[f32], dim: usize) -> Vec<f32> {
    centroids
        .chunks_exact(dim)
        .map(|c| c.iter().map(|&v| v * v).sum())
        .collect()
}

/// Index of the centroid nearest to `row` under squared L2 distance,
/// ties broken toward the lower index (deterministic).
fn nearest_centroid(row: &[f32], centroids: &[f32], cnorm2: &[f32], dim: usize) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, (centroid, &n2)) in centroids.chunks_exact(dim).zip(cnorm2).enumerate() {
        let dot: f32 = centroid.iter().zip(row).map(|(&a, &b)| a * b).sum();
        let d = n2 - 2.0 * dot;
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

impl ShardedEmbeddingIndex {
    /// Creates an empty index over `dim`-dimensional embeddings with
    /// `shard_capacity` rows per shard.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `shard_capacity` is zero.
    pub fn new(dim: usize, shard_capacity: usize) -> Self {
        Self::with_storage(dim, shard_capacity, ShardStorage::F32)
    }

    /// [`ShardedEmbeddingIndex::new`] with an explicit sealed-row
    /// representation. [`ShardStorage::Int8`] quantizes each shard as it
    /// seals (~4x less sealed row storage); query results remain
    /// bit-identical to an exhaustive f32 scan of the same index because
    /// the dequantized values are the canonical rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `shard_capacity` is zero.
    pub fn with_storage(dim: usize, shard_capacity: usize, storage: ShardStorage) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        Self {
            dim,
            shard_capacity,
            storage,
            sealed: Vec::new(),
            tail: Shard::new(0, dim),
        }
    }

    /// The sealed-row representation this index seals shards into.
    pub fn storage(&self) -> ShardStorage {
        self.storage
    }

    /// Bytes of sealed row payload currently held (codes/floats plus
    /// quantization headers; labels, bounds, and the tail excluded) —
    /// the memory-traffic number [`ShardStorage::Int8`] shrinks ~4x.
    pub fn sealed_row_bytes(&self) -> usize {
        self.sealed.iter().map(|s| s.rows.payload_bytes()).sum()
    }

    /// An independent copy that serves queries concurrently with further
    /// inserts on `self`: the sealed shards are shared by `Arc` (no row is
    /// copied) and only the tail — at most one shard — is cloned. This is
    /// the read-mostly serving primitive: a writer keeps ingesting into
    /// the original while any number of reader threads query their own
    /// snapshots, which are immutable and therefore can never observe a
    /// torn tail.
    ///
    /// `Clone` does the same thing; `snapshot` exists to name the intent
    /// at call sites.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// Total number of indexed embeddings across all shards.
    pub fn len(&self) -> usize {
        self.sealed.len() * self.shard_capacity + self.tail.len()
    }

    /// Whether the index holds no embeddings.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.labels.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of shards currently allocated (sealed plus the tail when it
    /// holds rows).
    pub fn num_shards(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.labels.is_empty())
    }

    /// Number of sealed (immutable, bound-carrying) shards.
    pub fn num_sealed_shards(&self) -> usize {
        self.sealed.len()
    }

    /// Label of the embedding at global insertion index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        let block = i / self.shard_capacity;
        if block < self.sealed.len() {
            self.sealed[block].labels[i % self.shard_capacity]
        } else {
            self.tail.labels[i - self.sealed.len() * self.shard_capacity]
        }
    }

    /// Labels of all embeddings in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = usize> + '_ {
        self.sealed
            .iter()
            .flat_map(|s| s.labels.iter().copied())
            .chain(self.tail.labels.iter().copied())
    }

    /// The stored (canonical) row at global storage index `i` — borrowed
    /// from f32 storage, dequantized into an owned buffer on quantized
    /// sealed shards.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn normalized_row(&self, i: usize) -> Cow<'_, [f32]> {
        let block = i / self.shard_capacity;
        let dim = self.dim;
        if block < self.sealed.len() {
            let r = i % self.shard_capacity;
            match &self.sealed[block].rows {
                RowBlock::F32(data) => Cow::Borrowed(&data[r * dim..(r + 1) * dim]),
                RowBlock::Int8 { q, params, .. } => Cow::Owned(
                    q[r * dim..(r + 1) * dim]
                        .iter()
                        .map(|&c| params.dequantize(c))
                        .collect(),
                ),
            }
        } else {
            let r = i - self.sealed.len() * self.shard_capacity;
            Cow::Borrowed(&self.tail.data[r * dim..(r + 1) * dim])
        }
    }

    /// Seals the tail into an immutable bound-carrying shard when full.
    fn seal_tail_if_full(&mut self) {
        if self.tail.len() == self.shard_capacity {
            let full = std::mem::replace(&mut self.tail, Shard::new(self.shard_capacity, self.dim));
            self.sealed
                .push(Arc::new(SealedShard::seal(full, self.dim, self.storage)));
        }
    }

    /// Appends one embedding (normalized on the way in: non-finite or
    /// zero-norm rows are stored as zero rows and score 0 against
    /// everything, so they can never corrupt top-k order). Fills the tail
    /// shard; the moment the tail reaches capacity it is sealed — centroid,
    /// radius, and max-norm bounds computed once — and a fresh tail opens.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn insert(&mut self, embedding: &[f32], label: usize) {
        assert_eq!(
            embedding.len(),
            self.dim,
            "embedding dimension {} != index dimension {}",
            embedding.len(),
            self.dim
        );
        if self.tail.labels.capacity() == 0 {
            // lazily size the tail so empty indexes stay allocation-free
            self.tail = Shard::new(self.shard_capacity, self.dim);
        }
        normalize_into(embedding, &mut self.tail.data);
        self.tail.labels.push(label);
        self.seal_tail_if_full();
    }

    /// The `k` nearest neighbors of `query` by cosine similarity, highest
    /// first (ties broken by global insertion index) — bit-identical to
    /// an exhaustive scan of every row, with default [`QueryOptions`]:
    /// bound pruning on, parallel scan gated behind
    /// [`PARALLEL_QUERY_MIN_ROWS`]. Returns fewer than `k` hits only when
    /// the index holds fewer rows; `k == 0` yields an empty list. A query
    /// with a NaN/inf component (or a norm that overflows) is treated as
    /// a zero query: every score is 0.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<QueryHit> {
        self.query_opts(query, k, &QueryOptions::default()).0
    }

    /// [`ShardedEmbeddingIndex::query`] with explicit [`QueryOptions`],
    /// also reporting what the query did ([`QueryStats`]).
    ///
    /// The result is bit-identical for every option combination; options
    /// only steer how much work is spent producing it:
    ///
    /// - **Pruning.** Sealed shards are visited in descending order of
    ///   their precomputed score bound. Once the global top-k floor is
    ///   established, any sealed shard whose bound (plus a rounding slack)
    ///   falls below the floor is skipped outright — and since bounds
    ///   descend and the floor only rises, everything after the first
    ///   pruned shard is pruned with it.
    /// - **Parallelism.** When the corpus is at least
    ///   `parallel_min_rows`, the surviving per-shard scans fan out
    ///   across [`fan_out`] workers (the floor is then seeded from the
    ///   tail and the single best-bound shard rather than updated
    ///   incrementally, which prunes slightly less but keeps workers
    ///   independent). The scanned-shard *set* may differ between the
    ///   serial and parallel paths; the merged result never does.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn query_opts(
        &self,
        query: &[f32],
        k: usize,
        opts: &QueryOptions,
    ) -> (Vec<QueryHit>, QueryStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut stats = QueryStats {
            sealed_shards: self.sealed.len(),
            ..QueryStats::default()
        };
        if k == 0 || self.is_empty() {
            return (Vec::new(), stats);
        }
        let qnorm = query_norm(query);
        let total = self.len();
        // quantize the query once when any int8 shard scan could use it;
        // a degenerate qnorm takes score_row's zero-query path, where the
        // int8 approximation math (which divides by qnorm) has no meaning
        let qq = match self.storage {
            ShardStorage::Int8 if opts.int8_scan && qnorm.is_finite() && qnorm >= 1e-12 => {
                Some(QuantizedQuery::new(query))
            }
            _ => None,
        };
        let qq = qq.as_ref();
        // pruning is sound only when some row may be left out at all
        let can_prune = opts.prune && k < total;
        // the floor never needs more slots than the corpus has rows, so a
        // "give me everything" k cannot size this heap; without pruning it
        // is never consulted, so it stays empty
        let mut floor = TopK::new(if can_prune { k.min(total) } else { 0 });
        let mut runs: Vec<Vec<QueryHit>> = Vec::with_capacity(self.num_shards());

        // the tail is always scanned (it has no precomputed bound) and,
        // when pruning, seeds the floor first
        if !self.tail.labels.is_empty() {
            let offset = self.sealed.len() * self.shard_capacity;
            let run = shard_run(
                RowsRef::F32(&self.tail.data),
                &self.tail.labels,
                self.dim,
                offset,
                query,
                qnorm,
                k,
            );
            stats.rows_scanned += self.tail.len();
            if can_prune {
                for &hit in &run {
                    floor.push(hit);
                }
            }
            runs.push(run);
        }

        // worker threads engage only past the row gate, and only when the
        // chunking would actually produce more than one worker
        let threaded = |shards: usize| {
            total >= opts.parallel_min_rows && worker_count(shards, opts.threads) > 1
        };
        // one scan epilogue for every batch path: fans `sids` across
        // workers when `parallel`, else walks them on this thread;
        // returns the per-shard runs plus the rescored-row total
        let scan_batch = |sids: &[usize], parallel: bool| -> (Vec<Vec<QueryHit>>, usize) {
            let scans: Vec<(Vec<QueryHit>, usize)> = if parallel {
                fan_out(sids, opts.threads, |_tid, chunk| {
                    chunk
                        .iter()
                        .map(|&sid| self.sealed_run(sid, query, qq, qnorm, k))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                sids.iter()
                    .map(|&sid| self.sealed_run(sid, query, qq, qnorm, k))
                    .collect()
            };
            let mut batch_runs = Vec::with_capacity(scans.len());
            let mut rescored = 0;
            for (run, rs) in scans {
                rescored += rs;
                batch_runs.push(run);
            }
            (batch_runs, rescored)
        };
        if !can_prune && !self.sealed.is_empty() {
            // exhaustive scan: the bound order is irrelevant, so skip
            // computing bounds and walk the shards in natural order
            stats.rows_scanned += self.sealed.len() * self.shard_capacity;
            stats.sealed_probed = self.sealed.len();
            stats.parallel = threaded(self.sealed.len());
            let all: Vec<usize> = (0..self.sealed.len()).collect();
            let (batch, rescored) = scan_batch(&all, stats.parallel);
            stats.rows_rescored += rescored;
            runs.extend(batch);
        } else if !self.sealed.is_empty() {
            // visit sealed shards best-bound-first (ties: lower shard id),
            // so the floor rises as fast as possible and the prune walk
            // can stop at the first losing shard
            let mut order: Vec<(usize, f32)> = self
                .sealed
                .iter()
                .map(|s| s.score_bound(query, qnorm))
                .enumerate()
                .collect();
            order.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });

            let pruned = |floor: &TopK, bound: f32| {
                // strict <: a shard that can only tie the floor may still
                // win a tie-break on insertion index, so it is scanned
                floor.is_full() && bound + PRUNE_SLACK < floor.worst_score()
            };
            if threaded(self.sealed.len()) {
                // seed the floor from the most promising shard, prune the
                // rest against that fixed floor (a lower bound of the
                // final floor, so still sound), then fan the survivors out
                // g4check: allow(unwrap-in-lib): threaded() required rows >= PARALLEL_QUERY_MIN_ROWS, which implies at least one sealed shard in order
                let (&(first, _), rest) = order.split_first().expect("sealed is non-empty");
                let (run, rescored) = self.sealed_run(first, query, qq, qnorm, k);
                stats.rows_scanned += self.shard_capacity;
                stats.rows_rescored += rescored;
                stats.sealed_probed += 1;
                for &hit in &run {
                    floor.push(hit);
                }
                runs.push(run);
                let mut survivors: Vec<usize> = Vec::with_capacity(rest.len());
                for (i, &(sid, bound)) in rest.iter().enumerate() {
                    if pruned(&floor, bound) {
                        // bounds descend from here: everything left loses
                        stats.sealed_pruned = rest.len() - i;
                        break;
                    }
                    survivors.push(sid);
                }
                stats.rows_scanned += survivors.len() * self.shard_capacity;
                stats.sealed_probed += survivors.len();
                // report what actually happened: heavy pruning can leave
                // too few survivors for the fan-out to spawn anything
                stats.parallel = worker_count(survivors.len(), opts.threads) > 1;
                let (batch, rescored) = scan_batch(&survivors, stats.parallel);
                stats.rows_rescored += rescored;
                runs.extend(batch);
            } else {
                for (i, &(sid, bound)) in order.iter().enumerate() {
                    if pruned(&floor, bound) {
                        stats.sealed_pruned = order.len() - i;
                        break;
                    }
                    let (run, rescored) = self.sealed_run(sid, query, qq, qnorm, k);
                    stats.rows_scanned += self.shard_capacity;
                    stats.rows_rescored += rescored;
                    stats.sealed_probed += 1;
                    for &hit in &run {
                        floor.push(hit);
                    }
                    runs.push(run);
                }
            }
        }

        (merge_runs(&runs, k, total), stats)
    }

    /// The *exact* sorted top-k run of one sealed shard, plus how many
    /// rows the int8 shortlist pass rescored (0 on the plain paths).
    /// Quantized shards take the int8 fast path when the caller built a
    /// [`QuantizedQuery`]; otherwise every row is scored exactly through
    /// the shared kernel — both produce the identical run.
    fn sealed_run(
        &self,
        sid: usize,
        query: &[f32],
        qq: Option<&QuantizedQuery>,
        qnorm: f32,
        k: usize,
    ) -> (Vec<QueryHit>, usize) {
        let s = &self.sealed[sid];
        let offset = sid * self.shard_capacity;
        match (&s.rows, qq) {
            (RowBlock::Int8 { q, params, max_l1 }, Some(qq)) => shard_run_int8(
                q, *params, *max_l1, &s.labels, self.dim, offset, query, qq, qnorm, k,
            ),
            _ => (
                shard_run(
                    s.rows.as_ref(),
                    &s.labels,
                    self.dim,
                    offset,
                    query,
                    qnorm,
                    k,
                ),
                0,
            ),
        }
    }

    /// Scores a whole batch of queries in one pass over the index —
    /// results **bit-identical**, query by query, to calling
    /// [`query_opts`](ShardedEmbeddingIndex::query_opts) once per query
    /// with the same `k` and options (a property test holds this line
    /// across f32/int8 storage, rebalanced corpora, and every option
    /// combination).
    ///
    /// What batching changes is only the work schedule:
    ///
    /// - **One gemm per shard.** Each scanned row block streams through
    ///   the cache once for the whole batch (blocked [`gemm_nt`] over the
    ///   shard's rows) instead of once per query, and the gemm's
    ///   independent accumulator chains hide the add latency a one-query
    ///   gemv walk is bound by.
    /// - **One bound walk.** Sealed shards are visited in descending
    ///   order of their *batch-max* score bound; each query keeps its own
    ///   rising top-k floor, a shard is scanned only for the queries
    ///   whose floor its per-query bound still beats, and the walk stops
    ///   outright when the best remaining bound loses to **every**
    ///   query's full floor.
    /// - **One merged shortlist per int8 shard.** Every query runs its
    ///   own integer approximate scan, but a row shortlisted by several
    ///   queries is dequantized once and rescored for each of them.
    ///
    /// Per-query [`QueryStats`] are preserved: a shard counts as probed
    /// (and its rows as scanned) for a query only when its rows were
    /// actually scored *for that query*; `parallel` reports the batch
    /// walk's single fan-out decision for every query.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimension mismatches the index.
    pub fn query_many(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        opts: &QueryOptions,
    ) -> Vec<(Vec<QueryHit>, QueryStats)> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dimension mismatch");
        }
        let nq = queries.len();
        let base = QueryStats {
            sealed_shards: self.sealed.len(),
            ..QueryStats::default()
        };
        if nq == 0 {
            return Vec::new();
        }
        if k == 0 || self.is_empty() {
            return (0..nq).map(|_| (Vec::new(), base)).collect();
        }
        let total = self.len();
        let qnorms: Vec<f32> = queries.iter().map(|q| query_norm(q)).collect();
        let qqs: Vec<Option<QuantizedQuery>> = queries
            .iter()
            .zip(&qnorms)
            .map(|(q, &qnorm)| match self.storage {
                ShardStorage::Int8 if opts.int8_scan && qnorm.is_finite() && qnorm >= 1e-12 => {
                    Some(QuantizedQuery::new(q))
                }
                _ => None,
            })
            .collect();
        let mut stats = vec![base; nq];
        let can_prune = opts.prune && k < total;
        let mut floors: Vec<TopK> = (0..nq)
            .map(|_| TopK::new(if can_prune { k.min(total) } else { 0 }))
            .collect();
        let mut runs: Vec<Vec<Vec<QueryHit>>> = (0..nq)
            .map(|_| Vec::with_capacity(self.num_shards()))
            .collect();
        let all: Vec<usize> = (0..nq).collect();

        // the tail is always scanned and, when pruning, seeds every floor
        // first — the batched mirror of the serial walk's opening move
        if !self.tail.labels.is_empty() {
            let offset = self.sealed.len() * self.shard_capacity;
            let tail_runs = gemm_runs(
                &self.tail.data,
                &self.tail.labels,
                self.dim,
                offset,
                queries,
                &qnorms,
                &all,
                k,
            );
            for (qi, run) in tail_runs.into_iter().enumerate() {
                stats[qi].rows_scanned += self.tail.labels.len();
                if can_prune {
                    for &hit in &run {
                        floors[qi].push(hit);
                    }
                }
                runs[qi].push(run);
            }
        }

        let threaded = |shards: usize| {
            total >= opts.parallel_min_rows && worker_count(shards, opts.threads) > 1
        };
        // drains one shard's batch scan into the per-query accumulators
        let absorb = |trio: Vec<(usize, Vec<QueryHit>, usize)>,
                      stats: &mut Vec<QueryStats>,
                      floors: &mut Vec<TopK>,
                      runs: &mut Vec<Vec<Vec<QueryHit>>>,
                      feed_floors: bool| {
            for (qi, run, rescored) in trio {
                stats[qi].sealed_probed += 1;
                stats[qi].rows_scanned += self.shard_capacity;
                stats[qi].rows_rescored += rescored;
                if feed_floors {
                    for &hit in &run {
                        floors[qi].push(hit);
                    }
                }
                runs[qi].push(run);
            }
        };

        if !can_prune && !self.sealed.is_empty() {
            // exhaustive scan: every shard against the whole batch, in
            // natural order — bounds are irrelevant
            let parallel = threaded(self.sealed.len());
            let sids: Vec<usize> = (0..self.sealed.len()).collect();
            let scans: Vec<Vec<(usize, Vec<QueryHit>, usize)>> = if parallel {
                fan_out(&sids, opts.threads, |_tid, chunk| {
                    chunk
                        .iter()
                        .map(|&sid| self.sealed_runs_batch(sid, queries, &qnorms, &qqs, &all, k))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                sids.iter()
                    .map(|&sid| self.sealed_runs_batch(sid, queries, &qnorms, &qqs, &all, k))
                    .collect()
            };
            for st in stats.iter_mut() {
                st.parallel = parallel;
            }
            for trio in scans {
                absorb(trio, &mut stats, &mut floors, &mut runs, false);
            }
        } else if !self.sealed.is_empty() {
            // one walk order for the whole batch: descending *batch-max*
            // bound (ties: lower shard id). Per-query bounds come from a
            // single gemm over the gathered centroids; each entry is
            // bit-identical to that shard's serial `score_bound`.
            let s_count = self.sealed.len();
            let mut cbuf: Vec<f32> = Vec::with_capacity(s_count * self.dim);
            for s in &self.sealed {
                cbuf.extend_from_slice(&s.centroid);
            }
            let qflat: Vec<f32> = queries.iter().flatten().copied().collect();
            let mut cdots = vec![0.0f32; nq * s_count];
            gemm_nt(&qflat, &cbuf, self.dim, &mut cdots);
            let bound = |sid: usize, qi: usize| -> f32 {
                let s = &self.sealed[sid];
                let qn = qnorms[qi];
                let score = if !qn.is_finite() || qn < 1e-12 {
                    0.0
                } else {
                    cdots[qi * s_count + sid] / qn
                };
                (score + s.radius).min(s.max_norm) + s.quant_slack
            };
            let mut order: Vec<(usize, f32)> = (0..s_count)
                .map(|sid| {
                    let mut mb = f32::NEG_INFINITY;
                    for qi in 0..nq {
                        mb = mb.max(bound(sid, qi));
                    }
                    (sid, mb)
                })
                .collect();
            order.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });

            let pruned =
                |floor: &TopK, bnd: f32| floor.is_full() && bnd + PRUNE_SLACK < floor.worst_score();
            // batch-wide early stop: bounds descend in batch-max, so once
            // the best remaining bound loses to every query's full floor,
            // everything left is pruned for the whole batch
            let all_lose = |floors: &[TopK], maxb: f32| {
                floors
                    .iter()
                    .all(|f| f.is_full() && maxb + PRUNE_SLACK < f.worst_score())
            };

            if threaded(s_count) {
                // seed every floor from the batch's single most promising
                // shard, prune the rest against those fixed floors (each a
                // lower bound of its final floor, so still sound), then
                // fan the surviving (shard, query subset) scans out
                // g4check: allow(unwrap-in-lib): threaded() required rows >= PARALLEL_QUERY_MIN_ROWS, which implies at least one sealed shard in order
                let (&(first, _), rest) = order.split_first().expect("sealed is non-empty");
                let trio = self.sealed_runs_batch(first, queries, &qnorms, &qqs, &all, k);
                absorb(trio, &mut stats, &mut floors, &mut runs, true);
                let mut survivors: Vec<(usize, Vec<usize>)> = Vec::with_capacity(rest.len());
                for (ri, &(sid, maxb)) in rest.iter().enumerate() {
                    if all_lose(&floors, maxb) {
                        for st in stats.iter_mut() {
                            st.sealed_pruned += rest.len() - ri;
                        }
                        break;
                    }
                    let mut select: Vec<usize> = Vec::with_capacity(nq);
                    for qi in 0..nq {
                        if pruned(&floors[qi], bound(sid, qi)) {
                            stats[qi].sealed_pruned += 1;
                        } else {
                            select.push(qi);
                        }
                    }
                    if !select.is_empty() {
                        survivors.push((sid, select));
                    }
                }
                let parallel = worker_count(survivors.len(), opts.threads) > 1;
                for st in stats.iter_mut() {
                    st.parallel = parallel;
                }
                let scans: Vec<Vec<(usize, Vec<QueryHit>, usize)>> = if parallel {
                    fan_out(&survivors, opts.threads, |_tid, chunk| {
                        chunk
                            .iter()
                            .map(|(sid, select)| {
                                self.sealed_runs_batch(*sid, queries, &qnorms, &qqs, select, k)
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect()
                } else {
                    survivors
                        .iter()
                        .map(|(sid, select)| {
                            self.sealed_runs_batch(*sid, queries, &qnorms, &qqs, select, k)
                        })
                        .collect()
                };
                for trio in scans {
                    absorb(trio, &mut stats, &mut floors, &mut runs, false);
                }
            } else {
                for (oi, &(sid, maxb)) in order.iter().enumerate() {
                    if all_lose(&floors, maxb) {
                        for st in stats.iter_mut() {
                            st.sealed_pruned += order.len() - oi;
                        }
                        break;
                    }
                    let mut select: Vec<usize> = Vec::with_capacity(nq);
                    for qi in 0..nq {
                        if pruned(&floors[qi], bound(sid, qi)) {
                            stats[qi].sealed_pruned += 1;
                        } else {
                            select.push(qi);
                        }
                    }
                    if select.is_empty() {
                        continue;
                    }
                    let trio = self.sealed_runs_batch(sid, queries, &qnorms, &qqs, &select, k);
                    absorb(trio, &mut stats, &mut floors, &mut runs, true);
                }
            }
        }

        runs.into_iter()
            .zip(stats)
            .map(|(qruns, st)| (merge_runs(&qruns, k, total), st))
            .collect()
    }

    /// One sealed shard scanned for a subset of the batch: the f32 arm
    /// gemms the rows once for every selected query; the int8 arm splits
    /// the selection into integer-scan queries (merged-shortlist
    /// rescoring) and exact-walk queries (the rows dequantized once, then
    /// gemmed). Returns `(query index, exact sorted run, rescored rows)`
    /// triples.
    fn sealed_runs_batch(
        &self,
        sid: usize,
        queries: &[Vec<f32>],
        qnorms: &[f32],
        qqs: &[Option<QuantizedQuery>],
        select: &[usize],
        k: usize,
    ) -> Vec<(usize, Vec<QueryHit>, usize)> {
        let s = &self.sealed[sid];
        let offset = sid * self.shard_capacity;
        let mut out = Vec::with_capacity(select.len());
        match &s.rows {
            RowBlock::F32(data) => {
                let batch = gemm_runs(
                    data, &s.labels, self.dim, offset, queries, qnorms, select, k,
                );
                for (&qi, run) in select.iter().zip(batch) {
                    out.push((qi, run, 0));
                }
            }
            RowBlock::Int8 { q, params, max_l1 } => {
                let mut fast: Vec<(usize, &QuantizedQuery)> = Vec::with_capacity(select.len());
                let mut exact: Vec<usize> = Vec::new();
                for &qi in select {
                    match qqs[qi].as_ref() {
                        Some(qq) => fast.push((qi, qq)),
                        None => exact.push(qi),
                    }
                }
                if !fast.is_empty() {
                    let batch = shard_runs_int8_batch(
                        q, *params, *max_l1, &s.labels, self.dim, offset, queries, qnorms, &fast, k,
                    );
                    for (&(qi, _), (run, rescored)) in fast.iter().zip(batch) {
                        out.push((qi, run, rescored));
                    }
                }
                if !exact.is_empty() {
                    // the dequantized values are the canonical rows, so the
                    // exact walk is an f32 gemm over them
                    let mut deq = vec![0.0f32; s.labels.len() * self.dim];
                    s.rows.as_ref().copy_all_into(&mut deq);
                    let batch = gemm_runs(
                        &deq, &s.labels, self.dim, offset, queries, qnorms, &exact, k,
                    );
                    for (&qi, run) in exact.iter().zip(batch) {
                        out.push((qi, run, 0));
                    }
                }
            }
        }
        out
    }

    /// All shard storage in storage order: sealed blocks, then the tail
    /// when it holds rows.
    pub(crate) fn shard_blocks(&self) -> Vec<(RowsRef<'_>, &[usize])> {
        let mut v: Vec<(RowsRef<'_>, &[usize])> = self
            .sealed
            .iter()
            .map(|s| (s.rows.as_ref(), s.labels.as_slice()))
            .collect();
        if !self.tail.labels.is_empty() {
            v.push((RowsRef::F32(&self.tail.data), self.tail.labels.as_slice()));
        }
        v
    }

    /// Visits the cosine-similarity Gram matrix one shard×shard block at a
    /// time: `f(row_offset, col_offset, block)` where `block[i][j]` is the
    /// similarity of global rows `row_offset + i` and `col_offset + j`.
    ///
    /// Block buffers come from `ws` and are recycled across blocks, so the
    /// peak footprint is three `shard_capacity`-bounded matrices no matter
    /// how large the corpus grows — the full `n×n` Gram is never
    /// materialized. Each element is the same contiguous-row dot product
    /// [`Matrix::matmul_nt`] computes over the whole normalized matrix,
    /// so block values match that Gram bit for bit.
    pub fn for_each_similarity_block<F>(&self, ws: &mut Workspace, mut f: F)
    where
        F: FnMut(usize, usize, &Matrix),
    {
        let shards = self.shard_blocks();
        let mut row_offset = 0;
        for &(qdata, qlabels) in &shards {
            let qn = qlabels.len();
            let mut qm = ws.acquire(qn, self.dim);
            qdata.copy_all_into(qm.as_mut_slice());
            let mut col_offset = 0;
            for &(ddata, dlabels) in &shards {
                let dn = dlabels.len();
                let mut dm = ws.acquire(dn, self.dim);
                ddata.copy_all_into(dm.as_mut_slice());
                let mut block = ws.acquire(qn, dn);
                qm.matmul_nt_into(&dm, &mut block);
                f(row_offset, col_offset, &block);
                ws.release(block);
                ws.release(dm);
                col_offset += dn;
            }
            ws.release(qm);
            row_offset += qn;
        }
    }

    /// Mean precision@k of same-label retrieval: for each entry, the
    /// fraction of its `k` nearest neighbors (excluding itself) that share
    /// its label, averaged over all entries. `k` clamps to `len() - 1`
    /// (each point has only that many neighbors), and fewer than two
    /// points report 0.0 instead of aborting small-corpus callers. The
    /// result has the same f64 bits as sorting each row of the full Gram
    /// matrix, because both select under the same total order on finite
    /// scores.
    ///
    /// Peak memory is `O(n·k)` for the per-row candidate keepers plus one
    /// shard×shard block, never the `n×n` Gram.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn precision_at_k(&self, k: usize) -> f64 {
        self.precision_at_k_ws(k, &mut Workspace::new())
    }

    /// [`ShardedEmbeddingIndex::precision_at_k`] with a caller-provided
    /// workspace, so repeated evaluations reuse warm block buffers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn precision_at_k_ws(&self, k: usize, ws: &mut Workspace) -> f64 {
        assert!(k > 0, "k must be positive");
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let k = k.min(n - 1);
        let mut tops: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
        self.for_each_similarity_block(ws, |row_offset, col_offset, block| {
            for i in 0..block.rows() {
                let q = row_offset + i;
                for (j, &score) in block.row(i).iter().enumerate() {
                    let g = col_offset + j;
                    if g != q {
                        tops[q].push(QueryHit {
                            index: g,
                            label: 0, // resolved after selection
                            score,
                        });
                    }
                }
            }
        });
        let mut total = 0.0f64;
        for (q, top) in tops.into_iter().enumerate() {
            let own = self.label(q);
            let hits = top
                .into_hits()
                .iter()
                .filter(|h| self.label(h.index) == own)
                .count();
            total += hits as f64 / k as f64;
        }
        total / n as f64
    }

    // --- rebalance (IVF routing) ---------------------------------------

    /// Re-clusters the *sealed* rows into centroid-aligned shards so the
    /// descending-bound walk of [`ShardedEmbeddingIndex::query_opts`]
    /// prunes well regardless of arrival order — the IVF coarse-quantizer
    /// stage. The open tail is untouched.
    ///
    /// Centroids are seeded from the current shard centroids and refined
    /// with Lloyd iterations over a deterministic strided sample; the
    /// final assignment visits every sealed row (fanned out across
    /// threads), then rows are regrouped by `(cluster, original index)`
    /// with a stable sort and resealed through the normal path, which
    /// recomputes every bound (and re-quantizes on
    /// [`ShardStorage::Int8`] indexes, recalibrating each new shard).
    ///
    /// The row *set* is preserved: every `(label, row)` pair survives.
    /// On [`ShardStorage::F32`] canonical values are bit-identical, so
    /// query results keep the same labels and scores — only
    /// [`QueryHit::index`] (the storage position) changes, along with
    /// how effectively shards prune. On [`ShardStorage::Int8`] the new
    /// shards re-calibrate, so canonical values may shift within one
    /// quantization step of the (already dequantized) inputs. The whole
    /// pass is deterministic: no RNG, no wall clock, stable tie-breaks.
    pub fn rebalance(&mut self, opts: &RebalanceOptions) -> RebalanceReport {
        let k = self.sealed.len();
        let cap = self.shard_capacity;
        let dim = self.dim;
        if k < 2 {
            return RebalanceReport {
                sealed_rows: k * cap,
                centroids: k,
                iters: 0,
                moved: 0,
            };
        }
        let n = k * cap;

        // Gather the canonical (dequantized) rows and labels once.
        let mut rows = vec![0.0f32; n * dim];
        let mut labels: Vec<usize> = Vec::with_capacity(n);
        for (si, s) in self.sealed.iter().enumerate() {
            s.rows
                .as_ref()
                .copy_all_into(&mut rows[si * cap * dim..(si + 1) * cap * dim]);
            labels.extend_from_slice(&s.labels);
        }

        // A strided sample aliases with periodic arrival: round-robin
        // ingest makes the cluster of row `i` a function of `i mod p`,
        // and any stride sharing a factor with `p` then samples only a
        // subset of the clusters — Lloyd never sees the rest and cannot
        // separate them. Drawing indices from a splitmix64 counter
        // stream keeps the sample deterministic but structure-free;
        // occasional duplicate indices merely double-weight a row.
        let sample = opts.sample.clamp(k, n);
        let sample_ids: Vec<usize> = (0..sample as u64)
            .map(|t| (mix64(t) % n as u64) as usize)
            .collect();

        // Deterministic farthest-point seeding over the sample. (Seeding
        // from the current shard centroids would collapse under
        // round-robin arrival — every shard then holds a slice of every
        // cluster, so all shard centroids coincide and Lloyd cannot pull
        // them apart.) Ties break toward the lower index; no RNG.
        let row_of = |ri: usize| &rows[ri * dim..(ri + 1) * dim];
        let mut centroids = vec![0.0f32; k * dim];
        centroids[..dim].copy_from_slice(row_of(sample_ids[0]));
        let d2 = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
        };
        let mut nearest2: Vec<f32> = sample_ids
            .iter()
            .map(|&ri| d2(row_of(ri), &centroids[..dim]))
            .collect();
        for c in 1..k {
            let mut far = 0usize;
            let mut far_d = -1.0f32;
            for (i, &d) in nearest2.iter().enumerate() {
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            let seed = row_of(sample_ids[far]).to_vec();
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&seed);
            for (nd, &ri) in nearest2.iter_mut().zip(&sample_ids) {
                *nd = nd.min(d2(row_of(ri), &seed));
            }
        }
        let mut iters_run = 0;
        for _ in 0..opts.iters {
            let cnorm2 = centroid_norms2(&centroids, dim);
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for &ri in &sample_ids {
                let row = &rows[ri * dim..(ri + 1) * dim];
                let c = nearest_centroid(row, &centroids, &cnorm2, dim);
                counts[c] += 1;
                for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                    *s += f64::from(v);
                }
            }
            for c in 0..k {
                // an empty cluster keeps its previous centroid so the
                // shard count stays fixed
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = (s * inv) as f32;
                    }
                }
            }
            iters_run += 1;
        }

        // Full assignment pass over every sealed row, fanned out.
        let cnorm2 = centroid_norms2(&centroids, dim);
        let ids: Vec<usize> = (0..n).collect();
        let assign: Vec<usize> = fan_out(&ids, opts.threads, |_, chunk| {
            chunk
                .iter()
                .map(|&ri| {
                    nearest_centroid(&rows[ri * dim..(ri + 1) * dim], &centroids, &cnorm2, dim)
                })
                .collect::<Vec<usize>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Cluster sizes rarely divide the shard capacity, so some shards
        // straddle two consecutive clusters of the concatenation — and
        // the farthest-point seeding order would put maximally *distant*
        // clusters next to each other, giving every straddling shard a
        // covering radius near the inter-cluster distance (and a useless
        // bound). Rank the clusters along a greedy nearest-neighbor
        // chain instead: a straddling shard then mixes the most similar
        // cluster pair available and its bound stays tight.
        let mut rank = vec![0usize; k];
        {
            let mut visited = vec![false; k];
            let mut cur = 0usize;
            visited[0] = true;
            for pos in 1..k {
                let from = centroids[cur * dim..(cur + 1) * dim].to_vec();
                let mut next = 0usize;
                let mut next_d = f32::INFINITY;
                for (c, cand) in centroids.chunks_exact(dim).enumerate() {
                    if !visited[c] {
                        let d = d2(&from, cand);
                        if d < next_d {
                            next_d = d;
                            next = c;
                        }
                    }
                }
                visited[next] = true;
                rank[next] = pos;
                cur = next;
            }
        }

        // Stable regroup by (chain rank of cluster, original index) —
        // deterministic tie-break, and rows of one cluster stay in
        // arrival order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&ri| (rank[assign[ri]], ri));

        let mut moved = 0usize;
        let mut sealed = Vec::with_capacity(k);
        for (new_sid, chunk) in order.chunks(cap).enumerate() {
            let mut shard = Shard::new(cap, dim);
            for &ri in chunk {
                if ri / cap != new_sid {
                    moved += 1;
                }
                shard.labels.push(labels[ri]);
                shard
                    .data
                    .extend_from_slice(&rows[ri * dim..(ri + 1) * dim]);
            }
            sealed.push(Arc::new(SealedShard::seal(shard, dim, self.storage)));
        }
        self.sealed = sealed;

        RebalanceReport {
            sealed_rows: n,
            centroids: k,
            iters: iters_run,
            moved,
        }
    }

    // --- persistence ---------------------------------------------------

    /// Serializes the index through the `G4IP` artifact format (v2: the
    /// sealed-shard bounds ride along, so loading skips recomputing
    /// them), pinned to `pinned_checksum` — by convention the weights
    /// checksum of the model whose embeddings fill the index, so a stale
    /// index cannot silently serve scores for weights that no longer
    /// exist (the same pinning discipline as the embedding-library
    /// artifact). Rows round-trip bit-exactly; quantized shards
    /// serialize their dequantized (canonical) rows, so the reload is a
    /// plain-f32 index with identical scores.
    pub fn to_bytes(&self, pinned_checksum: u64) -> Vec<u8> {
        let mut w = BinWriter::with_version(SHARD_INDEX_KIND, SHARD_INDEX_VERSION);
        w.u64(pinned_checksum);
        w.len_of(self.dim);
        w.len_of(self.shard_capacity);
        w.len_of(self.num_shards());
        let mut scratch: Vec<f32> = Vec::new();
        for shard in &self.sealed {
            w.len_of(shard.labels.len());
            for &l in &shard.labels {
                w.u64(l as u64);
            }
            match &shard.rows {
                RowBlock::F32(data) => {
                    for &v in data {
                        w.f32(v);
                    }
                    // v2: full shards carry their precomputed bounds
                    for &v in &shard.centroid {
                        w.f32(v);
                    }
                    w.f32(shard.radius);
                    w.f32(shard.max_norm);
                }
                block @ RowBlock::Int8 { .. } => {
                    // The dequantized values are the canonical rows of a
                    // quantized shard, and a v2 reload scores them as plain
                    // f32 with zero quantization slack — so the serialized
                    // bounds must be recomputed from the dequantized data,
                    // not copied from the (pre-quantization) stored bounds,
                    // or the reload could over-prune.
                    scratch.resize(shard.labels.len() * self.dim, 0.0);
                    block.as_ref().copy_all_into(&mut scratch);
                    for &v in &scratch {
                        w.f32(v);
                    }
                    let (centroid, radius, max_norm) = compute_bounds(&scratch, self.dim);
                    for &v in &centroid {
                        w.f32(v);
                    }
                    w.f32(radius);
                    w.f32(max_norm);
                }
            }
        }
        if !self.tail.labels.is_empty() {
            w.len_of(self.tail.labels.len());
            for &l in &self.tail.labels {
                w.u64(l as u64);
            }
            for &v in &self.tail.data {
                w.f32(v);
            }
        }
        w.finish()
    }

    /// Reads back the checksum an artifact was pinned to, without
    /// deserializing the shards (e.g. to report *which* weights an index
    /// belongs to before deciding to load it).
    ///
    /// # Errors
    ///
    /// Fails on a corrupt or wrong-kind artifact.
    pub fn pinned_checksum(bytes: &[u8]) -> Result<u64, String> {
        BinReader::open_versioned(bytes, SHARD_INDEX_KIND, SHARD_INDEX_VERSION)?.u64()
    }

    /// Restores an index serialized by [`ShardedEmbeddingIndex::to_bytes`].
    /// v2 artifacts restore the sealed-shard bounds directly; v1 artifacts
    /// (which predate the bounds) load by recomputing them, producing a
    /// bit-identical index either way.
    ///
    /// # Errors
    ///
    /// Fails on corrupt artifacts, on a checksum-pin mismatch (an index
    /// built by different weights is rejected rather than silently serving
    /// stale similarities), and on shard layouts that violate the
    /// fixed-capacity invariant.
    pub fn from_bytes(bytes: &[u8], expected_checksum: u64) -> Result<Self, String> {
        let mut r = BinReader::open_versioned(bytes, SHARD_INDEX_KIND, SHARD_INDEX_VERSION)?;
        let pinned = r.u64()?;
        if pinned != expected_checksum {
            return Err(format!(
                "shard index was built by weights {pinned:#018x}, \
                 expected {expected_checksum:#018x}; re-embed instead of loading"
            ));
        }
        let dim = r.len_of()?;
        let shard_capacity = r.len_of()?;
        if dim == 0 || shard_capacity == 0 {
            return Err(format!(
                "shard index declares zero dim ({dim}) or capacity ({shard_capacity})"
            ));
        }
        let row_bytes = dim
            .checked_mul(4)
            .and_then(|b| b.checked_add(8))
            .ok_or_else(|| format!("implausible dimension {dim}"))?;
        let n_shards = r.count_of(8)?; // every shard carries a row count
        let mut sealed = Vec::with_capacity(n_shards);
        let mut tail = Shard::new(0, dim);
        for si in 0..n_shards {
            let rows = r.count_of(row_bytes)?;
            let expect_full = si + 1 < n_shards;
            if rows > shard_capacity || rows == 0 || (expect_full && rows != shard_capacity) {
                return Err(format!(
                    "shard {si} holds {rows} rows, violating capacity {shard_capacity}"
                ));
            }
            // reserve from `rows` (count_of-bounded by remaining payload),
            // never from the untrusted `shard_capacity` field — a forged
            // capacity must not drive a multi-GB allocation
            let mut shard = Shard::new(rows, dim);
            for _ in 0..rows {
                shard.labels.push(
                    usize::try_from(r.u64()?).map_err(|_| "label overflows usize".to_string())?,
                );
            }
            for _ in 0..rows * dim {
                shard.data.push(r.f32()?);
            }
            if rows == shard_capacity {
                // a full shard is sealed; its bounds are stored from v2 on
                let block = if r.version() >= 2 {
                    let mut centroid = Vec::with_capacity(dim);
                    for _ in 0..dim {
                        centroid.push(r.f32()?);
                    }
                    let radius = r.f32()?;
                    let max_norm = r.f32()?;
                    // reject corrupt bounds outright: a forged -inf
                    // centroid component or negative radius would not
                    // crash, it would silently over-prune true top-k
                    // hits, which is worse (NaN alone degrades safely —
                    // every pruning comparison fails — but there is no
                    // reason to accept it)
                    let sane = |v: f32| v.is_finite() && v >= 0.0;
                    if !sane(radius) || !sane(max_norm) || centroid.iter().any(|v| !v.is_finite()) {
                        return Err(format!(
                            "shard {si} carries corrupt bounds \
                             (radius {radius}, max_norm {max_norm}, or non-finite centroid)"
                        ));
                    }
                    SealedShard::from_f32_parts(
                        shard.data,
                        shard.labels,
                        centroid,
                        radius,
                        max_norm,
                    )
                } else {
                    SealedShard::seal(shard, dim, ShardStorage::F32)
                };
                sealed.push(Arc::new(block));
            } else {
                // the (non-full) last shard becomes the open tail
                tail = shard;
            }
        }
        r.done()?;
        Ok(Self {
            dim,
            shard_capacity,
            sealed,
            tail,
            storage: ShardStorage::F32,
        })
    }

    /// Writes the artifact to `path` (atomic: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as text.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
        pinned_checksum: u64,
    ) -> Result<(), String> {
        write_artifact(path.as_ref(), &self.to_bytes(pinned_checksum))
    }

    /// Loads an artifact written by [`ShardedEmbeddingIndex::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O, format, or checksum-pin errors as text.
    pub fn load(path: impl AsRef<std::path::Path>, expected_checksum: u64) -> Result<Self, String> {
        Self::from_bytes(&read_artifact(path.as_ref())?, expected_checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::oracle::Exhaustive;

    fn seeded_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| {
                        let x = ((i * 31 + j * 17) as u64).wrapping_mul(2654435761) % 97;
                        x as f32 / 97.0 - 0.5
                    })
                    .collect()
            })
            .collect()
    }

    fn both(n: usize, dim: usize, cap: usize) -> (Exhaustive, ShardedEmbeddingIndex) {
        let rows = seeded_rows(n, dim);
        let mut oracle = Exhaustive::new(dim);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            oracle.insert(row, i % 5);
            sharded.insert(row, i % 5);
        }
        (oracle, sharded)
    }

    /// Every interesting option combination: serial/parallel ×
    /// pruned/exhaustive.
    fn option_grid() -> Vec<QueryOptions> {
        let mut grid = Vec::new();
        for prune in [false, true] {
            for (threads, parallel_min_rows) in [(1, usize::MAX), (3, 0), (0, 0)] {
                for int8_scan in [false, true] {
                    grid.push(QueryOptions {
                        prune,
                        threads,
                        parallel_min_rows,
                        int8_scan,
                    });
                }
            }
        }
        grid
    }

    #[test]
    fn shards_fill_to_capacity_in_insertion_order() {
        let (_, sharded) = both(10, 3, 4);
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.num_shards(), 3); // 4 + 4 + 2
        assert_eq!(sharded.num_sealed_shards(), 2);
        for i in 0..10 {
            assert_eq!(sharded.label(i), i % 5);
        }
        assert_eq!(sharded.labels().collect::<Vec<_>>().len(), 10);
    }

    #[test]
    fn query_matches_exhaustive_bit_for_bit() {
        for cap in [1, 3, 4, 7, 64] {
            let (oracle, sharded) = both(23, 6, cap);
            let q: Vec<f32> = (0..6).map(|j| 0.3 - j as f32 * 0.1).collect();
            for k in [1, 2, 5, 23, 40] {
                let a = oracle.query(&q, k);
                let b = sharded.query(&q, k);
                assert_eq!(a.len(), b.len(), "cap {cap} k {k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.index, y.index, "cap {cap} k {k}");
                    assert_eq!(x.label, y.label);
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
                // and under every option combination
                for opts in option_grid() {
                    let (c, _) = sharded.query_opts(&q, k, &opts);
                    assert_eq!(b, c, "cap {cap} k {k} opts {opts:?}");
                }
            }
        }
    }

    /// A batch of seeded queries exercising distinct directions, plus a
    /// zero query and a poisoned (NaN) query so the batched path must
    /// reproduce the degenerate zero-score behavior per query.
    fn query_batch(b: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut qs: Vec<Vec<f32>> = (0..b)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 13 + j * 7) % 19) as f32 / 19.0 - 0.4)
                    .collect()
            })
            .collect();
        if b > 2 {
            qs[b / 2] = vec![0.0; dim];
            qs[b - 1][0] = f32::NAN;
        }
        qs
    }

    fn assert_batch_matches_serial(
        index: &ShardedEmbeddingIndex,
        queries: &[Vec<f32>],
        k: usize,
        opts: &QueryOptions,
        ctx: &str,
    ) {
        let batch = index.query_many(queries, k, opts);
        assert_eq!(batch.len(), queries.len(), "{ctx}");
        for (qi, (q, (hits, stats))) in queries.iter().zip(&batch).enumerate() {
            let (serial, _) = index.query_opts(q, k, opts);
            assert_eq!(hits.len(), serial.len(), "{ctx} query {qi}");
            for (x, y) in hits.iter().zip(&serial) {
                assert_eq!(x.index, y.index, "{ctx} query {qi}");
                assert_eq!(x.label, y.label, "{ctx} query {qi}");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{ctx} query {qi}: {} vs {}",
                    x.score,
                    y.score
                );
            }
            assert_eq!(stats.sealed_shards, index.num_sealed_shards(), "{ctx}");
            if opts.prune {
                assert_eq!(
                    stats.sealed_probed + stats.sealed_pruned,
                    stats.sealed_shards,
                    "{ctx} query {qi}: every shard is probed or pruned per query"
                );
            }
        }
    }

    #[test]
    fn query_many_matches_serial_bit_for_bit_f32() {
        for cap in [1, 4, 7] {
            let (_, sharded) = both(37, 6, cap);
            let queries = query_batch(6, 6);
            for k in [1, 3, 37, 50] {
                for opts in option_grid() {
                    assert_batch_matches_serial(
                        &sharded,
                        &queries,
                        k,
                        &opts,
                        &format!("f32 cap {cap} k {k} opts {opts:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn query_many_matches_serial_bit_for_bit_int8() {
        for (n, cap) in [(23, 4), (40, 8)] {
            let index = int8_index(n, 6, cap);
            let queries = query_batch(5, 6);
            for k in [1, 3, n] {
                for opts in option_grid() {
                    assert_batch_matches_serial(
                        &index,
                        &queries,
                        k,
                        &opts,
                        &format!("int8 n {n} cap {cap} k {k} opts {opts:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn query_many_matches_serial_after_rebalance() {
        for storage in [ShardStorage::F32, ShardStorage::Int8] {
            let rows = seeded_rows(60, 6);
            let mut index = ShardedEmbeddingIndex::with_storage(6, 8, storage);
            for (i, row) in rows.iter().enumerate() {
                index.insert(row, i % 5);
            }
            index.rebalance(&RebalanceOptions::default());
            let queries = query_batch(6, 6);
            for opts in option_grid() {
                assert_batch_matches_serial(
                    &index,
                    &queries,
                    4,
                    &opts,
                    &format!("rebalanced {storage:?} opts {opts:?}"),
                );
            }
        }
    }

    #[test]
    fn query_many_edge_batches() {
        let (_, sharded) = both(12, 4, 4);
        // empty batch
        assert!(sharded
            .query_many(&[], 3, &QueryOptions::default())
            .is_empty());
        // k == 0 returns one empty result per query
        let qs = query_batch(3, 4);
        let zero = sharded.query_many(&qs, 0, &QueryOptions::default());
        assert_eq!(zero.len(), 3);
        assert!(zero.iter().all(|(hits, _)| hits.is_empty()));
        // singleton batch goes through the same batched machinery
        assert_batch_matches_serial(&sharded, &qs[..1], 3, &QueryOptions::default(), "singleton");
        // empty index
        let empty = ShardedEmbeddingIndex::new(4, 4);
        let none = empty.query_many(&qs, 3, &QueryOptions::default());
        assert!(none.iter().all(|(hits, _)| hits.is_empty()));
    }

    #[test]
    fn query_many_prunes_and_shares_the_walk() {
        // clustered corpus (see pruning_skips_losing_shards_on_clustered_
        // data): two queries into different clusters must each keep their
        // own pruning decisions while sharing one walk
        let dim = 6;
        let mut sharded = ShardedEmbeddingIndex::new(dim, 8);
        for c in 0..6 {
            for i in 0..8 {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.02 * i as f32;
                sharded.insert(&row, c);
            }
        }
        let mut q2 = vec![0.0f32; dim];
        q2[2] = 1.0;
        let mut q5 = vec![0.0f32; dim];
        q5[4] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: true,
        };
        let queries = vec![q2.clone(), q5.clone()];
        assert_batch_matches_serial(&sharded, &queries, 4, &opts, "clustered pair");
        let batch = sharded.query_many(&queries, 4, &opts);
        for (qi, (hits, stats)) in batch.iter().enumerate() {
            assert_eq!(hits[0].label, [2usize, 4][qi]);
            assert!(
                stats.sealed_pruned >= 3,
                "query {qi} should prune most foreign clusters: {stats:?}"
            );
        }
    }

    #[test]
    fn pruning_skips_losing_shards_on_clustered_data() {
        // 6 tight clusters of 8 rows along distinct axes; shards align
        // with clusters, so a query into one cluster makes the others'
        // bounds hopeless
        let dim = 6;
        let mut sharded = ShardedEmbeddingIndex::new(dim, 8);
        let mut oracle = Exhaustive::new(dim);
        for c in 0..6 {
            for i in 0..8 {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.02 * i as f32; // small in-cluster spread
                oracle.insert(&row, c);
                sharded.insert(&row, c);
            }
        }
        let mut q = vec![0.0f32; dim];
        q[2] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: true,
        };
        let (hits, stats) = sharded.query_opts(&q, 4, &opts);
        assert_eq!(hits, oracle.query(&q, 4));
        assert!(hits.iter().all(|h| h.label == 2));
        assert_eq!(stats.sealed_shards, 6);
        assert!(
            stats.sealed_pruned >= 4,
            "expected most shards pruned, got {stats:?}"
        );
        assert!(stats.rows_scanned < 48);
        // exhaustive scan agrees and scans everything
        let (all, full) = sharded.query_opts(
            &q,
            4,
            &QueryOptions {
                prune: false,
                ..opts
            },
        );
        assert_eq!(all, hits);
        assert_eq!(full.sealed_pruned, 0);
        assert_eq!(full.rows_scanned, 48);
    }

    #[test]
    fn parallel_scan_is_bit_identical_and_reports_itself() {
        let (oracle, sharded) = both(40, 5, 4);
        let q = [0.4, -0.2, 0.1, 0.3, -0.5];
        let opts = QueryOptions {
            prune: false,
            threads: 4,
            parallel_min_rows: 0,
            int8_scan: true,
        };
        let (hits, stats) = sharded.query_opts(&q, 7, &opts);
        assert_eq!(hits, oracle.query(&q, 7));
        assert!(stats.parallel, "threshold 0 must engage the fan-out");
        // below the threshold the same query stays serial
        let (same, serial) = sharded.query_opts(
            &q,
            7,
            &QueryOptions {
                parallel_min_rows: usize::MAX,
                ..opts
            },
        );
        assert_eq!(same, hits);
        assert!(!serial.parallel);
    }

    #[test]
    fn snapshot_is_immutable_under_later_inserts() {
        let (_, mut sharded) = both(10, 3, 4);
        let snap = sharded.snapshot();
        let q = [0.5, -0.1, 0.3];
        let before = snap.query(&q, 5);
        // writer keeps inserting: fills the tail, seals, opens a new tail
        for i in 0..9 {
            sharded.insert(&[i as f32 * 0.1, 0.2, -0.3], 99);
        }
        assert_eq!(sharded.len(), 19);
        assert_eq!(snap.len(), 10, "snapshot must not see later inserts");
        assert_eq!(snap.query(&q, 5), before, "snapshot answers must be stable");
        // the snapshot shares sealed storage with the original
        assert!(Arc::ptr_eq(&snap.sealed[0], &sharded.sealed[0]));
    }

    #[test]
    fn precision_matches_exhaustive_exactly() {
        for cap in [1, 4, 9, 64] {
            let (oracle, sharded) = both(17, 5, cap);
            for k in [1, 3, 8, 30] {
                assert_eq!(
                    oracle.precision_at_k(k).to_bits(),
                    sharded.precision_at_k(k).to_bits(),
                    "cap {cap} k {k}"
                );
            }
        }
    }

    #[test]
    fn non_finite_rows_behave_like_exhaustive() {
        let mut oracle = Exhaustive::new(2);
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        let rows: [&[f32]; 5] = [
            &[f32::NAN, 1.0],
            &[1.0, 0.0],
            &[0.5, 0.5],
            &[0.0, 0.0],
            &[f32::INFINITY, f32::NEG_INFINITY],
        ];
        for (i, row) in rows.iter().enumerate() {
            oracle.insert(row, i);
            sharded.insert(row, i);
        }
        let hits = sharded.query(&[1.0, 0.1], 5);
        let expect = oracle.query(&[1.0, 0.1], 5);
        assert_eq!(hits, expect);
        assert!(hits.iter().all(|h| h.score.is_finite()));
        // the finite rows rank first; poisoned and zero-norm rows sink to
        // the bottom with exactly 0.0
        assert_eq!((hits[0].label, hits[1].label), (1, 2));
        assert!(hits[2..].iter().all(|h| h.score == 0.0));
        // a truncated query still returns the global best
        assert_eq!(sharded.query(&[1.0, 0.1], 1)[0].label, 1);
    }

    #[test]
    fn query_scores_match_plain_cosine() {
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        sharded.insert(&[3.0, 4.0], 7); // normalizes to [0.6, 0.8]
        let hits = sharded.query(&[2.0, 0.0], 1);
        assert_eq!((hits[0].index, hits[0].label), (0, 7));
        assert!((hits[0].score - 0.6).abs() < 1e-6);
    }

    #[test]
    fn degenerate_queries_score_zero_everywhere() {
        // one sealed shard plus a tail, so both storage paths answer
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        for row in [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]] {
            sharded.insert(&row, 0);
        }
        // zero, non-finite, and overflowing-norm queries take the
        // zero-query path instead of producing NaN scores
        for q in [
            [0.0, 0.0],
            [f32::NAN, 1.0],
            [f32::INFINITY, 0.0],
            [1.0, f32::NAN],
            [f32::MAX, f32::MAX],
        ] {
            for opts in option_grid() {
                let (hits, _) = sharded.query_opts(&q, 3, &opts);
                assert!(hits.iter().all(|h| h.score == 0.0), "{q:?} {opts:?}");
                // ties broken by insertion order, deterministically
                let order: Vec<usize> = hits.iter().map(|h| h.index).collect();
                assert_eq!(order, [0, 1, 2], "{q:?} {opts:?}");
            }
        }
    }

    #[test]
    fn precision_at_k_clamps_k_and_needs_two_points() {
        let (_, sharded) = both(10, 3, 4);
        // k = 100 clamps to 9 neighbors per point instead of panicking
        assert_eq!(
            sharded.precision_at_k(100).to_bits(),
            sharded.precision_at_k(9).to_bits()
        );
        // a singleton index has no neighborhoods at all
        let mut single = ShardedEmbeddingIndex::new(2, 4);
        single.insert(&[1.0, 0.0], 0);
        assert_eq!(single.precision_at_k(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn insert_rejects_wrong_dimension() {
        ShardedEmbeddingIndex::new(3, 4).insert(&[1.0], 0);
    }

    #[test]
    fn all_zero_shards_prune_cleanly() {
        // a sealed shard of poisoned (zeroed) rows has bound 0; once the
        // floor is positive it is skipped, and the results still match
        let mut oracle = Exhaustive::new(2);
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        let rows: [&[f32]; 6] = [
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[f32::NAN, 1.0],
            &[0.0, 0.0],
            &[0.8, 0.3],
            &[0.7, 0.2],
        ];
        for (i, row) in rows.iter().enumerate() {
            oracle.insert(row, i);
            sharded.insert(row, i);
        }
        let opts = QueryOptions {
            prune: true,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: true,
        };
        let (hits, stats) = sharded.query_opts(&[1.0, 0.05], 2, &opts);
        assert_eq!(hits, oracle.query(&[1.0, 0.05], 2));
        assert!(stats.sealed_pruned >= 1, "zero-bound shard not pruned");
    }

    #[test]
    fn huge_k_dumps_everything() {
        // k >> len (even usize::MAX) is a legitimate "give me everything"
        // call; the index must accept it without sizing heaps from k
        let (oracle, sharded) = both(13, 4, 5);
        let q = [0.2, -0.4, 0.6, 0.1];
        for k in [13, 14, 1 << 40, usize::MAX] {
            assert_eq!(sharded.query(&q, k), oracle.query(&q, k), "k={k}");
        }
    }

    #[test]
    fn zero_k_and_empty_index_query_to_nothing() {
        let idx = ShardedEmbeddingIndex::new(3, 8);
        assert!(idx.is_empty());
        assert!(idx.query(&[1.0, 0.0, 0.0], 5).is_empty());
        assert_eq!(idx.precision_at_k(2), 0.0);
        // k == 0 is "report nothing", not a panic
        let (_, filled) = both(5, 3, 2);
        assert!(filled.query(&[1.0, 0.0, 0.0], 0).is_empty());
        let (hits, stats) = filled.query_opts(&[1.0, 0.0, 0.0], 0, &QueryOptions::default());
        assert!(hits.is_empty());
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn similarity_blocks_tile_the_full_gram() {
        let (oracle, sharded) = both(13, 4, 5);
        let gram = oracle.gram();
        let mut ws = Workspace::new();
        let mut seen = [false; 13 * 13];
        sharded.for_each_similarity_block(&mut ws, |ro, co, block| {
            for i in 0..block.rows() {
                for j in 0..block.cols() {
                    let (g_i, g_j) = (ro + i, co + j);
                    assert_eq!(
                        block.get(i, j).to_bits(),
                        gram.get(g_i, g_j).to_bits(),
                        "({g_i},{g_j})"
                    );
                    seen[g_i * 13 + g_j] = true;
                }
            }
        });
        assert!(seen.iter().all(|&s| s), "blocks must cover the full Gram");
        for i in 0..13 {
            assert!((gram.get(i, i) - 1.0).abs() < 1e-5, "diag {i}");
        }
        // and the workspace pools block buffers instead of reallocating
        let warm = ws.allocations();
        sharded.for_each_similarity_block(&mut ws, |_, _, _| {});
        assert_eq!(ws.allocations(), warm, "warm workspace re-allocated");
    }

    #[test]
    fn artifact_roundtrips_bit_exactly() {
        let (_, sharded) = both(19, 4, 6);
        let bytes = sharded.to_bytes(0xDEAD_BEEF);
        assert_eq!(
            ShardedEmbeddingIndex::pinned_checksum(&bytes).expect("pin"),
            0xDEAD_BEEF
        );
        let back = ShardedEmbeddingIndex::from_bytes(&bytes, 0xDEAD_BEEF).expect("loads");
        assert_eq!(back, sharded);
        // save -> load -> save is byte-identical (bounds included)
        assert_eq!(back.to_bytes(0xDEAD_BEEF), bytes);
    }

    /// Serializes an index in the v1 layout (no sealed-shard bounds), as
    /// PR 4 wrote it.
    fn v1_bytes(index: &ShardedEmbeddingIndex, pin: u64) -> Vec<u8> {
        let mut w = BinWriter::with_version(SHARD_INDEX_KIND, 1);
        w.u64(pin);
        w.len_of(index.dim);
        w.len_of(index.shard_capacity);
        w.len_of(index.num_shards());
        for (rows, labels) in index.shard_blocks() {
            w.len_of(labels.len());
            for &l in labels {
                w.u64(l as u64);
            }
            let mut data = vec![0.0f32; labels.len() * index.dim];
            rows.copy_all_into(&mut data);
            for &v in &data {
                w.f32(v);
            }
        }
        w.finish()
    }

    #[test]
    fn v1_artifacts_load_by_recomputing_bounds() {
        let (_, sharded) = both(19, 4, 6);
        let old = v1_bytes(&sharded, 7);
        let back = ShardedEmbeddingIndex::from_bytes(&old, 7).expect("v1 loads");
        // recomputed bounds are bit-identical to the originals, so the
        // whole index compares equal — and queries (pruning included)
        // behave identically
        assert_eq!(back, sharded);
        // re-saving a v1 load produces a current (v2) artifact
        assert_eq!(back.to_bytes(7), sharded.to_bytes(7));
    }

    #[test]
    fn corrupt_v2_bounds_are_rejected() {
        let mut w = BinWriter::with_version(SHARD_INDEX_KIND, SHARD_INDEX_VERSION);
        w.u64(0);
        w.len_of(3); // dim
        w.len_of(4); // capacity
        w.len_of(1); // one shard
        w.len_of(4); // full -> sealed -> carries bounds
        for i in 0..4u64 {
            w.u64(i);
        }
        for _ in 0..12 {
            w.f32(0.5);
        }
        for _ in 0..3 {
            w.f32(0.1); // centroid
        }
        w.f32(-1.0); // negative radius: corrupt
        w.f32(1.0);
        let err = ShardedEmbeddingIndex::from_bytes(&w.finish(), 0).expect_err("must reject");
        assert!(err.contains("bounds"), "{err}");
    }

    #[test]
    fn checksum_pin_mismatch_is_rejected() {
        let (_, sharded) = both(5, 3, 2);
        let bytes = sharded.to_bytes(1);
        let err = ShardedEmbeddingIndex::from_bytes(&bytes, 2).expect_err("must reject");
        assert!(err.contains("weights"), "{err}");
    }

    #[test]
    fn hostile_shard_capacity_does_not_drive_allocation() {
        // a forged artifact declaring an absurd shard capacity but tiny
        // payload must not reserve capacity*dim floats — the checksum is
        // integrity, not authentication
        let mut w = BinWriter::new(SHARD_INDEX_KIND);
        w.u64(0); // pin
        w.len_of(2); // dim
        w.len_of(1 << 56); // hostile capacity
        w.len_of(1); // one shard
        w.len_of(1); // one row
        w.u64(9);
        w.f32(1.0);
        w.f32(0.0);
        let back = ShardedEmbeddingIndex::from_bytes(&w.finish(), 0).expect("loads cheaply");
        assert_eq!(back.len(), 1);
        assert_eq!(back.label(0), 9);
    }

    #[test]
    fn corrupt_shard_layouts_are_rejected() {
        // hand-build an artifact whose interior shard is not full
        let mut w = BinWriter::new(SHARD_INDEX_KIND);
        w.u64(0); // pin
        w.len_of(2); // dim
        w.len_of(4); // capacity
        w.len_of(2); // two shards
        for _ in 0..2 {
            w.len_of(1); // 1 row each — first shard must hold 4
            w.u64(0);
            w.f32(1.0);
            w.f32(0.0);
        }
        let err = ShardedEmbeddingIndex::from_bytes(&w.finish(), 0).expect_err("must reject");
        assert!(err.contains("capacity"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gnn4ip-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (_, sharded) = both(9, 3, 4);
        let path = dir.join("index.bin");
        sharded.save(&path, 42).expect("saves");
        let back = ShardedEmbeddingIndex::load(&path, 42).expect("loads");
        assert_eq!(back, sharded);
        assert!(ShardedEmbeddingIndex::load(&path, 43).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- int8 quantized storage ----------------------------------------

    fn int8_index(n: usize, dim: usize, cap: usize) -> ShardedEmbeddingIndex {
        let rows = seeded_rows(n, dim);
        let mut index = ShardedEmbeddingIndex::with_storage(dim, cap, ShardStorage::Int8);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 5);
        }
        index
    }

    #[test]
    fn int8_scan_is_bit_identical_to_its_exact_walk() {
        // the int8 shortlist-rescoring fast path must agree bit for bit
        // with the exact dequantize-every-row walk of the same index,
        // under every option combination
        for (n, cap) in [(23, 4), (40, 8), (9, 9)] {
            let index = int8_index(n, 6, cap);
            let q: Vec<f32> = (0..6).map(|j| 0.4 - j as f32 * 0.13).collect();
            for k in [1, 3, 7, n] {
                let reference = index
                    .query_opts(
                        &q,
                        k,
                        &QueryOptions {
                            prune: false,
                            int8_scan: false,
                            ..QueryOptions::default()
                        },
                    )
                    .0;
                for opts in option_grid() {
                    let (hits, _) = index.query_opts(&q, k, &opts);
                    assert_eq!(hits, reference, "n {n} cap {cap} k {k} opts {opts:?}");
                }
            }
        }
    }

    #[test]
    fn int8_rescoring_touches_few_rows_and_reports_itself() {
        let index = int8_index(256, 8, 32);
        let q: Vec<f32> = (0..8).map(|j| (j as f32 * 0.7).cos()).collect();
        let opts = QueryOptions {
            prune: false,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: true,
        };
        let (_, stats) = index.query_opts(&q, 5, &opts);
        assert!(stats.rows_rescored > 0, "shortlist pass must engage");
        assert!(
            stats.rows_rescored < stats.rows_scanned,
            "rescoring everything defeats the fast path: {stats:?}"
        );
        // the exact walk reports zero rescored rows
        let (_, exact) = index.query_opts(
            &q,
            5,
            &QueryOptions {
                int8_scan: false,
                ..opts
            },
        );
        assert_eq!(exact.rows_rescored, 0);
    }

    #[test]
    fn int8_sealed_storage_is_about_a_quarter_of_f32() {
        let (_, f32_index) = both(256, 16, 32);
        let q_index = int8_index(256, 16, 32);
        let f32_bytes = f32_index.sealed_row_bytes();
        let int8_bytes = q_index.sealed_row_bytes();
        assert!(f32_bytes > 0);
        assert!(
            (int8_bytes as f64) <= 0.30 * f32_bytes as f64,
            "int8 {int8_bytes} vs f32 {f32_bytes}"
        );
    }

    #[test]
    fn int8_non_finite_and_zero_rows_match_the_exact_walk() {
        let mut index = ShardedEmbeddingIndex::with_storage(2, 2, ShardStorage::Int8);
        let rows: [&[f32]; 6] = [
            &[f32::NAN, 1.0],
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[0.5, 0.5],
            &[f32::INFINITY, 0.1],
            &[0.3, -0.4],
        ];
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i);
        }
        for opts in option_grid() {
            let (hits, _) = index.query_opts(&[1.0, 0.1], 6, &opts);
            let reference = index
                .query_opts(
                    &[1.0, 0.1],
                    6,
                    &QueryOptions {
                        prune: false,
                        int8_scan: false,
                        ..QueryOptions::default()
                    },
                )
                .0;
            assert_eq!(hits, reference, "opts {opts:?}");
        }
    }

    #[test]
    fn int8_index_serializes_as_plain_f32_with_identical_scores() {
        let index = int8_index(19, 6, 4);
        let bytes = index.to_bytes(5);
        let back = ShardedEmbeddingIndex::from_bytes(&bytes, 5).expect("loads");
        assert_eq!(back.storage(), ShardStorage::F32);
        assert_eq!(back.len(), index.len());
        let q: Vec<f32> = (0..6).map(|j| 0.2 + j as f32 * 0.05).collect();
        // the reload stores the dequantized canonical rows, so every
        // query agrees bit for bit with the quantized original
        for k in [1, 4, 19] {
            assert_eq!(back.query(&q, k), index.query(&q, k), "k {k}");
        }
    }

    // --- rebalance ------------------------------------------------------

    /// Clustered rows inserted in round-robin (worst-case) arrival order:
    /// every shard holds a slice of every cluster, so bounds overlap and
    /// pruning is hopeless until a rebalance regroups them.
    fn scattered_clusters(dim: usize, clusters: usize, per: usize) -> Vec<(Vec<f32>, usize)> {
        let mut rows = Vec::new();
        for i in 0..per {
            for c in 0..clusters {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.03 * i as f32;
                rows.push((row, c));
            }
        }
        rows
    }

    #[test]
    fn rebalance_restores_pruning_on_scattered_arrival() {
        let dim = 8;
        let mut index = ShardedEmbeddingIndex::new(dim, 8);
        for (row, c) in scattered_clusters(dim, 8, 8) {
            index.insert(&row, c);
        }
        let mut q = vec![0.0f32; dim];
        q[3] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: true,
        };
        let before_hits = index.query(&q, 4);
        let (_, before) = index.query_opts(&q, 4, &opts);
        assert_eq!(before.sealed_pruned, 0, "round-robin arrival must scatter");
        let report = index.rebalance(&RebalanceOptions::default());
        assert_eq!(report.centroids, 8);
        assert!(report.moved > 0);
        let (after_hits, after) = index.query_opts(&q, 4, &opts);
        assert!(
            after.sealed_pruned >= 5,
            "rebalanced shards must prune: {after:?}"
        );
        // same labels and scores; only storage positions may differ
        let key = |hits: &[QueryHit]| -> Vec<(usize, u32)> {
            hits.iter().map(|h| (h.label, h.score.to_bits())).collect()
        };
        assert_eq!(key(&after_hits), key(&before_hits));
    }

    #[test]
    fn rebalance_is_deterministic_and_preserves_f32_rows() {
        let (_, mut a) = both(40, 5, 4);
        let mut b = a.clone();
        let ra = a.rebalance(&RebalanceOptions::default());
        let rb = b.rebalance(&RebalanceOptions {
            threads: 3,
            ..RebalanceOptions::default()
        });
        assert_eq!(ra, rb, "thread count must not change the outcome");
        assert_eq!(a, b);
        // the row multiset is preserved exactly
        let mut rows_before: Vec<Vec<u32>> = (0..40)
            .map(|i| {
                both(40, 5, 4)
                    .1
                    .normalized_row(i)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        let mut rows_after: Vec<Vec<u32>> = (0..40)
            .map(|i| a.normalized_row(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        rows_before.sort();
        rows_after.sort();
        assert_eq!(rows_before, rows_after);
    }

    #[test]
    fn rebalance_on_tiny_indexes_is_a_no_op() {
        let (_, mut index) = both(5, 3, 8); // tail only, nothing sealed
        let copy = index.clone();
        let report = index.rebalance(&RebalanceOptions::default());
        assert_eq!(report.moved, 0);
        assert_eq!(report.centroids, 0);
        assert_eq!(index, copy);
    }

    #[test]
    fn content_ids_are_stable_and_payload_sensitive() {
        let (_, a) = both(8, 3, 4);
        let (_, b) = both(8, 3, 4);
        assert_eq!(a.sealed[0].content_id, b.sealed[0].content_id);
        assert_ne!(
            a.sealed[0].content_id, a.sealed[1].content_id,
            "different payloads must get different ids"
        );
        // quantized and f32 storage of the same rows hash differently
        let q = int8_index(8, 3, 4);
        assert_ne!(a.sealed[0].content_id, q.sealed[0].content_id);
    }
}
