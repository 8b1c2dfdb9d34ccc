//! Property-based tests over the core data structures and invariants
//! declared in DESIGN.md §5.

use proptest::prelude::*;

use gnn4ip::data::{synth_design, vary_design, SynthSize, VariationConfig};
use gnn4ip::dfg::{graph_from_verilog, trim, Dfg, NodeKind, VOCAB_SIZE};
use gnn4ip::hdl::{elaborate, Evaluator};
use gnn4ip::nn::{cosine_of, GraphInput, Hw2Vec, Hw2VecConfig, Mode};
use gnn4ip::tensor::{normalized_adjacency, CsrMatrix, Matrix, Tape, Workspace};

// ----------------------------------------------------------------- tensor

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A B)^T == B^T A^T for random matrices.
    #[test]
    fn matmul_transpose_identity(
        rows in 1usize..6, inner in 1usize..6, cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_fn(r, c, |i, j| {
                (((i * 31 + j * 17) as u64 ^ s).wrapping_mul(2654435761) % 97) as f32 / 97.0 - 0.5
            })
        };
        let a = gen(rows, inner, seed);
        let b = gen(inner, cols, seed ^ 0xABCD);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    /// spmm (and its into-buffer form) against a dense matrix equals
    /// densified matmul, and the two sparse forms agree bit for bit.
    #[test]
    fn spmm_matches_dense(
        n in 2usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..20),
        seed in 0u64..1000,
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let s = CsrMatrix::from_triplets(n, n, &triples);
        let x = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j) as u64 ^ seed) as f32 % 5.0 - 2.0);
        let via_spmm = s.spmm(&x);
        prop_assert!(via_spmm.approx_eq(&s.to_dense().matmul(&x), 1e-3));
        let mut into = Matrix::filled(n, 3, f32::NAN); // must be fully overwritten
        s.spmm_into(&x, &mut into);
        prop_assert_eq!(into, via_spmm);
    }

    /// CSR transpose agrees with the dense transpose.
    #[test]
    fn csr_transpose_matches_dense(
        rows in 1usize..8, cols in 1usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..24),
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < rows && c < cols)
            .collect();
        let s = CsrMatrix::from_triplets(rows, cols, &triples);
        prop_assert!(s.transpose().to_dense().approx_eq(&s.to_dense().transpose(), 1e-5));
    }

    /// select_square agrees with gathering rows and columns of the dense
    /// form.
    #[test]
    fn csr_select_square_matches_dense(
        n in 1usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..24),
        keep_mask in 0usize..256,
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let s = CsrMatrix::from_triplets(n, n, &triples);
        let idx: Vec<usize> = (0..n).filter(|&i| keep_mask >> i & 1 == 1).collect();
        let sub = s.select_square(&idx).to_dense();
        let dense = s.to_dense();
        let expect = Matrix::from_fn(idx.len(), idx.len(), |r, c| dense.get(idx[r], idx[c]));
        prop_assert!(sub.approx_eq(&expect, 1e-5));
    }

    /// matmul_nt (the blocked similarity gemm) equals matmul against the
    /// explicit transpose.
    #[test]
    fn matmul_nt_matches_transpose(
        m in 1usize..70, n in 1usize..70, d in 1usize..20, seed in 0u64..1000,
    ) {
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_fn(r, c, |i, j| {
                (((i * 31 + j * 17) as u64 ^ s).wrapping_mul(2654435761) % 97) as f32 / 97.0 - 0.5
            })
        };
        let a = gen(m, d, seed);
        let b = gen(n, d, seed ^ 0xBEEF);
        prop_assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-4));
    }

    /// Normalized adjacency rows are finite, symmetric, with self-loops.
    #[test]
    fn normalized_adjacency_invariants(
        n in 1usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let a = normalized_adjacency(n, &edges).to_dense();
        prop_assert!(a.is_finite());
        prop_assert!(a.approx_eq(&a.transpose(), 1e-5));
        for i in 0..n {
            prop_assert!(a.get(i, i) > 0.0, "missing self loop at {i}");
        }
    }
}

// -------------------------------------------------------------------- dfg

/// Random rooted DAG for graph-invariant tests.
fn arb_dfg() -> impl Strategy<Value = Dfg> {
    (
        2usize..30,
        prop::collection::vec((0usize..30, 0usize..30), 0..60),
        0usize..45,
    )
        .prop_map(|(n, raw_edges, root_kind)| {
            let mut g = Dfg::new("prop");
            for i in 0..n {
                let kind = NodeKind::from_index((i + root_kind) % VOCAB_SIZE).expect("kind");
                g.add_node(kind, format!("n{i}"));
            }
            // edges always point to lower ids → acyclic
            for (a, b) in raw_edges {
                let (a, b) = (a % n, b % n);
                if a > b {
                    g.add_edge(a, b);
                }
            }
            g.add_root(n - 1);
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After trim, every node is reachable from a root, and trim is
    /// idempotent.
    #[test]
    fn trim_leaves_only_reachable_nodes(mut g in arb_dfg()) {
        trim(&mut g);
        let mask = g.reachable_from_roots();
        prop_assert!(mask.iter().all(|&m| m), "unreachable nodes survive trim");
        let snapshot = g.clone();
        let second = trim(&mut g);
        prop_assert_eq!(second.unreachable_removed, 0);
        prop_assert_eq!(second.passthrough_collapsed, 0);
        prop_assert_eq!(g, snapshot);
    }

    /// Kind histogram always sums to the node count.
    #[test]
    fn kind_histogram_sums_to_node_count(g in arb_dfg()) {
        prop_assert_eq!(g.kind_histogram().iter().sum::<usize>(), g.node_count());
    }
}

// ------------------------------------------------------------------ model

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Embeddings are permutation-invariant: relabeling node ids (keeping
    /// structure) does not change the graph embedding.
    #[test]
    fn embedding_is_permutation_invariant(g in arb_dfg(), seed in 0u64..50) {
        let model = Hw2Vec::new(Hw2VecConfig::default(), seed);
        // permuted copy: reverse node order
        let n = g.node_count();
        let mut p = Dfg::new("perm");
        for i in (0..n).rev() {
            let node = g.node(i);
            p.add_node(node.kind, node.label.clone());
        }
        let remap = |i: usize| n - 1 - i;
        for &(a, b) in g.edges() {
            p.add_edge(remap(a), remap(b));
        }
        for &r in g.roots() {
            p.add_root(remap(r));
        }
        let e1 = model.embed(&GraphInput::from_dfg(&g));
        let e2 = model.embed(&GraphInput::from_dfg(&p));
        let sim = cosine_of(&e1, &e2);
        prop_assert!(
            sim > 0.9999 || (e1.iter().all(|v| v.abs() < 1e-6)),
            "permutation changed embedding: cos {sim}"
        );
    }

    /// The tape-free inference pass matches the tape-backed eval-mode
    /// forward bit for bit on random graphs, for both conv kinds.
    #[test]
    fn forward_infer_matches_tape_forward(g in arb_dfg(), seed in 0u64..50, sage in 0usize..2) {
        let cfg = Hw2VecConfig {
            conv: if sage == 1 { gnn4ip::nn::ConvKind::Sage } else { gnn4ip::nn::ConvKind::Gcn },
            ..Hw2VecConfig::default()
        };
        let model = Hw2Vec::new(cfg, seed);
        let input = GraphInput::from_dfg(&g);
        let mut ws = Workspace::new();
        let fast = model.forward_infer(&input, &mut ws);
        let fast_again = model.forward_infer(&input, &mut ws);
        let tape = Tape::new();
        let vars = model.params().inject(&tape);
        let slow = model
            .forward(&tape, &vars, &input, &mut Mode::Eval)
            .value()
            .into_vec();
        prop_assert_eq!(&fast, &slow, "tape-free and tape forward diverge");
        prop_assert_eq!(&fast, &fast_again, "warm workspace changed the result");
    }

    /// Similarity is symmetric and bounded for random graph pairs.
    #[test]
    fn similarity_is_symmetric_and_bounded(a in arb_dfg(), b in arb_dfg()) {
        let model = Hw2Vec::new(Hw2VecConfig::default(), 9);
        let (ga, gb) = (GraphInput::from_dfg(&a), GraphInput::from_dfg(&b));
        let s1 = model.similarity(&ga, &gb);
        let s2 = model.similarity(&gb, &ga);
        prop_assert!((-1.001..=1.001).contains(&s1), "out of range: {s1}");
        prop_assert!((s1 - s2).abs() < 1e-5, "asymmetric: {s1} vs {s2}");
    }
}

// -------------------------------------------------------------------- hdl

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The front end never panics: arbitrary byte soup either parses or
    /// returns a ParseVerilogError.
    #[test]
    fn parser_never_panics_on_garbage(src in "[ -~\\n]{0,200}") {
        let _ = gnn4ip::hdl::parse(&src);
        let _ = gnn4ip::hdl::preprocess(&src, &Default::default());
    }

    /// Mutations of a valid module (random truncation + splice) never panic
    /// and never mis-parse into an empty success.
    #[test]
    fn parser_never_panics_on_mutated_verilog(
        cut in 0usize..200,
        splice in "[ -~]{0,16}",
        pos in 0usize..200,
    ) {
        let base = "module m(input [3:0] a, input b, output reg [3:0] y);\n  always @* begin\n    if (b) y = a + 4'd1; else y = {a[1:0], 2'b01};\n  end\nendmodule\n";
        let mut s: String = base.chars().take(cut.min(base.len())).collect();
        let at = pos.min(s.len());
        s.insert_str(at, &splice);
        let _ = gnn4ip::hdl::parse(&s);
    }

    /// Constant expressions evaluate without panicking for any operator mix
    /// the parser accepts.
    #[test]
    fn const_eval_never_panics(a in 0u64..1000, b in 0u64..1000, op in 0usize..8) {
        let ops = ["+", "-", "*", "/", "%", "<<", ">>", "&"];
        let src = format!(
            "module m(output [({a} {op} {b}) % 16 + 1:0] y);\n  assign y = 0;\nendmodule",
            op = ops[op]
        );
        let _ = gnn4ip::hdl::elaborate(&src, None);
    }
}

// ------------------------------------------------------------------- data

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every variation of every synthetic design is behaviour-preserving
    /// (checked against the combinational evaluation oracle on 4 stimuli).
    #[test]
    fn variation_preserves_semantics(family in 0u64..40, variant in 1u64..500) {
        let src = synth_design(family, SynthSize::Small);
        let varied = vary_design(&src, variant, &VariationConfig::default())
            .expect("variation");
        let base = Evaluator::new(&elaborate(&src, None).expect("flat base"))
            .expect("eval base");
        let var = Evaluator::new(&elaborate(&varied, None).expect("flat var"))
            .expect("eval var");
        let inputs: Vec<String> = base.module().inputs().iter().map(|s| s.to_string()).collect();
        for k in 0..4u64 {
            let stim: std::collections::HashMap<String, u64> = inputs
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), k.wrapping_mul(0x9E3779B9).rotate_left(i as u32 * 5)))
                .collect();
            prop_assert_eq!(
                base.eval_outputs(&stim).expect("base run"),
                var.eval_outputs(&stim).expect("var run"),
                "family {} variant {} diverges", family, variant
            );
        }
    }

    /// Varied sources still extract DFGs whose roots match the base design.
    #[test]
    fn variation_preserves_interface(family in 0u64..40, variant in 1u64..500) {
        let src = synth_design(family, SynthSize::Small);
        let varied = vary_design(&src, variant, &VariationConfig::default())
            .expect("variation");
        let g0 = graph_from_verilog(&src, None).expect("base graph");
        let g1 = graph_from_verilog(&varied, None).expect("varied graph");
        prop_assert_eq!(g0.roots().len(), g1.roots().len());
    }
}

// ------------------------------------------------------------------- eval

use gnn4ip::eval::{QueryHit, QueryOptions, RebalanceOptions, ShardStorage, ShardedEmbeddingIndex};

/// Deterministic pseudo-random embeddings; every 7th row gets a
/// non-finite component so the zero-row hardening stays under test.
fn index_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    if i % 7 == 6 && j == i % dim {
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(i / 7) % 3]
                    } else {
                        let x = ((i * 131 + j * 31) as u64 ^ seed).wrapping_mul(2654435761) % 193;
                        x as f32 / 193.0 - 0.5
                    }
                })
                .collect()
        })
        .collect()
}

/// Row normalization of the exhaustive reference: the float expressions
/// the index applies on insert (non-finite or zero-norm rows become zero
/// rows).
fn normalized_rows(rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
    rows.iter()
        .map(|raw| {
            let norm = raw.iter().map(|v| v * v).sum::<f32>().sqrt();
            if !norm.is_finite() || norm < 1e-12 || raw.iter().any(|v| !v.is_finite()) {
                vec![0.0; raw.len()]
            } else {
                raw.iter().map(|v| v / norm).collect()
            }
        })
        .collect()
}

/// Hit order of the exhaustive reference: score descending, insertion
/// index ascending.
fn by_rank(a: &QueryHit, b: &QueryHit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.index.cmp(&b.index))
}

/// Exhaustive reference query: score every row, sort, truncate to `k`.
fn exhaustive_query(rows: &[Vec<f32>], labels: &[usize], query: &[f32], k: usize) -> Vec<QueryHit> {
    let qnorm = if query.iter().any(|v| !v.is_finite()) {
        0.0
    } else {
        query.iter().map(|v| v * v).sum::<f32>().sqrt()
    };
    let mut hits: Vec<QueryHit> = normalized_rows(rows)
        .iter()
        .zip(labels)
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
    hits.sort_by(by_rank);
    hits.truncate(k);
    hits
}

/// Exhaustive reference precision@k over the full materialized Gram.
fn exhaustive_precision_at_k(rows: &[Vec<f32>], labels: &[usize], k: usize) -> f64 {
    let n = rows.len();
    if n < 2 {
        return 0.0;
    }
    let k = k.min(n - 1);
    let e = Matrix::from_vec(n, rows[0].len(), normalized_rows(rows).concat());
    let gram = e.matmul_nt(&e);
    let mut total = 0.0f64;
    for q in 0..n {
        let mut hits: Vec<QueryHit> = (0..n)
            .filter(|&j| j != q)
            .map(|j| QueryHit {
                index: j,
                label: labels[j],
                score: gram.get(q, j),
            })
            .collect();
        hits.sort_by(by_rank);
        let same = hits[..k].iter().filter(|h| h.label == labels[q]).count();
        total += same as f64 / k as f64;
    }
    total / n as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded query equals the exhaustive reference bit-for-bit for
    /// every shard capacity: same neighbor indices, labels, and score bit
    /// patterns.
    #[test]
    fn sharded_query_matches_exhaustive_bitwise(
        n in 1usize..40,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (row, &l) in rows.iter().zip(&labels) {
            sharded.insert(row, l);
        }
        let query: Vec<f32> = (0..dim)
            .map(|j| ((j as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0 - 0.5)
            .collect();
        let a = exhaustive_query(&rows, &labels, &query, k);
        let b = sharded.query(&query, k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(x.label, y.label);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // every pruning/threading combination produces the same bits
        for prune in [false, true] {
            for (threads, parallel_min_rows) in [(1, usize::MAX), (2, 0), (0, 0)] {
                let opts = QueryOptions { prune, threads, parallel_min_rows, int8_scan: true };
                let (c, _) = sharded.query_opts(&query, k, &opts);
                prop_assert_eq!(&b, &c, "opts {:?}", opts);
            }
        }
    }

    /// Bound-based shard pruning and fanned-out shard scans stay
    /// bit-identical to the exhaustive reference on *clustered* corpora —
    /// the data shape where pruning actually fires, so the rounding-slack
    /// safety margin is exercised, not just bypassed.
    #[test]
    fn pruned_and_parallel_query_matches_exhaustive_bitwise(
        clusters in 1usize..6,
        per_cluster in 1usize..12,
        dim in 2usize..8,
        cap in 1usize..12,
        k in 1usize..10,
        spread in 0usize..4,
        seed in 0u64..1000,
    ) {
        // tight clusters along distinct axes, inserted cluster-by-cluster
        // so shards align with clusters and bounds separate well
        let n = clusters * per_cluster;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = i / per_cluster;
                (0..dim)
                    .map(|j| {
                        let noise = (((i * 131 + j * 31) as u64 ^ seed)
                            .wrapping_mul(2654435761)
                            % 193) as f32
                            / 193.0
                            - 0.5;
                        let axis = if j == c % dim { 1.0 } else { 0.0 };
                        axis + noise * 0.05 * spread as f32
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i / per_cluster).collect();
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (row, &l) in rows.iter().zip(&labels) {
            sharded.insert(row, l);
        }
        // query into one cluster's direction: other clusters' shards are
        // prunable exactly when the bound math is doing its job
        let target = (seed as usize) % clusters;
        let mut query = vec![0.0f32; dim];
        query[target % dim] = 1.0;
        if dim > 1 {
            query[(target + 1) % dim] = 0.1;
        }
        let expect = exhaustive_query(&rows, &labels, &query, k);
        for (threads, parallel_min_rows) in [(1, usize::MAX), (3, 0)] {
            let opts = QueryOptions { prune: true, threads, parallel_min_rows, int8_scan: true };
            let (hits, stats) = sharded.query_opts(&query, k, &opts);
            prop_assert_eq!(&expect, &hits, "opts {:?} stats {:?}", opts, stats);
            prop_assert!(stats.sealed_pruned <= stats.sealed_shards);
        }
    }

    /// Sharded precision@k equals the exhaustive reference exactly (same
    /// f64 bits): the blocked shard×shard path selects the same neighbor
    /// sets as the materialized Gram.
    #[test]
    fn sharded_precision_matches_exhaustive_bitwise(
        n in 2usize..32,
        dim in 1usize..6,
        cap in 1usize..10,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (row, &l) in rows.iter().zip(&labels) {
            sharded.insert(row, l);
        }
        prop_assert_eq!(
            exhaustive_precision_at_k(&rows, &labels, k).to_bits(),
            sharded.precision_at_k(k).to_bits()
        );
    }

    /// The shard artifact round-trips to an identical index: same bytes
    /// back out, same query answers.
    #[test]
    fn shard_artifact_save_load_query_identity(
        n in 1usize..24,
        dim in 1usize..6,
        cap in 1usize..8,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            sharded.insert(row, i);
        }
        let bytes = sharded.to_bytes(seed);
        let back = ShardedEmbeddingIndex::from_bytes(&bytes, seed).expect("loads");
        prop_assert_eq!(&back, &sharded);
        prop_assert_eq!(back.to_bytes(seed), bytes); // save→load→save identity
        let query: Vec<f32> = (0..dim).map(|j| 1.0 - j as f32 * 0.25).collect();
        let k = (n / 2).max(1);
        prop_assert_eq!(sharded.query(&query, k), back.query(&query, k));
        // and a different pin is refused
        prop_assert!(ShardedEmbeddingIndex::from_bytes(&bytes, seed ^ 1).is_err());
    }

    /// On an int8-quantized index, every routed/pruned/parallel/int8
    /// option combination returns bit-identical hits to the exhaustive
    /// dequantize-every-row f32 scan — shortlist rescoring makes
    /// quantization invisible in results — and a deterministic rebalance
    /// preserves the (label, score) verdicts exactly.
    #[test]
    fn quantized_routed_queries_match_exhaustive_f32_bitwise(
        n in 1usize..40,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        rebalance_flag in 0u8..2,
        seed in 0u64..1000,
    ) {
        let rebalance = rebalance_flag == 1;
        let rows = index_rows(n, dim, seed);
        let mut index = ShardedEmbeddingIndex::with_storage(dim, cap, ShardStorage::Int8);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 4);
        }
        if rebalance {
            index.rebalance(&RebalanceOptions::default());
        }
        let query: Vec<f32> = (0..dim)
            .map(|j| ((j as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0 - 0.5)
            .collect();
        // reference: exhaustive exact f32 walk of the same stored rows
        let exhaustive = QueryOptions {
            prune: false,
            threads: 1,
            parallel_min_rows: usize::MAX,
            int8_scan: false,
        };
        let (expect, _) = index.query_opts(&query, k, &exhaustive);
        for prune in [false, true] {
            for int8_scan in [false, true] {
                for (threads, parallel_min_rows) in [(1, usize::MAX), (2, 0), (0, 0)] {
                    let opts = QueryOptions { prune, threads, parallel_min_rows, int8_scan };
                    let (hits, _) = index.query_opts(&query, k, &opts);
                    prop_assert_eq!(&expect, &hits, "opts {:?}", opts);
                }
            }
        }
        // rebalance never loses a (label, score) verdict pair
        if rebalance {
            let mut plain = ShardedEmbeddingIndex::with_storage(dim, cap, ShardStorage::Int8);
            for (i, row) in rows.iter().enumerate() {
                plain.insert(row, i % 4);
            }
            let (before, _) = plain.query_opts(&query, k, &exhaustive);
            let verdicts = |hits: &[gnn4ip::eval::QueryHit]| -> Vec<(usize, u32)> {
                hits.iter().map(|h| (h.label, h.score.to_bits())).collect()
            };
            // int8 re-calibration on reseal can move scores within a
            // quantization step; labels must survive exactly, and on f32
            // storage the full verdicts are bit-identical (checked below)
            prop_assert_eq!(before.len(), expect.len());
            let mut f32_index = ShardedEmbeddingIndex::new(dim, cap);
            for (i, row) in rows.iter().enumerate() {
                f32_index.insert(row, i % 4);
            }
            let a = f32_index.query(&query, k);
            f32_index.rebalance(&RebalanceOptions::default());
            let b = f32_index.query(&query, k);
            prop_assert_eq!(verdicts(&a), verdicts(&b));
        }
    }

    /// `query_many` answers every query in a batch bit-identically to a
    /// serial `query_opts` loop across storage modes, rebalance, and
    /// every pruning/threading combination — the blocked-gemm shard pass
    /// and shared bound walk must be an invisible optimization, never a
    /// semantic change. Per-query stats keep their accounting invariant
    /// (every sealed shard is probed or pruned); the shared walk may
    /// *distribute* probes differently than a serial walk would.
    #[test]
    fn batched_query_many_matches_serial_bitwise(
        n in 1usize..40,
        n_queries in 0usize..6,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        quantized_flag in 0u8..2,
        rebalance_flag in 0u8..2,
        seed in 0u64..1000,
    ) {
        let storage = if quantized_flag == 1 { ShardStorage::Int8 } else { ShardStorage::F32 };
        let rows = index_rows(n, dim, seed);
        let mut index = ShardedEmbeddingIndex::with_storage(dim, cap, storage);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 4);
        }
        if rebalance_flag == 1 {
            index.rebalance(&RebalanceOptions::default());
        }
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|q| {
                (0..dim)
                    .map(|j| {
                        (((q * 17 + j) as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0
                            - 0.5
                    })
                    .collect()
            })
            .collect();
        for prune in [false, true] {
            for int8_scan in [false, true] {
                for (threads, parallel_min_rows) in [(1, usize::MAX), (2, 0), (0, 0)] {
                    let opts = QueryOptions { prune, threads, parallel_min_rows, int8_scan };
                    let batched = index.query_many(&queries, k, &opts);
                    prop_assert_eq!(batched.len(), queries.len());
                    for (q, (hits, stats)) in queries.iter().zip(&batched) {
                        let (expect_hits, _) = index.query_opts(q, k, &opts);
                        prop_assert_eq!(&expect_hits, hits, "opts {:?}", opts);
                        prop_assert_eq!(stats.sealed_shards, index.num_sealed_shards());
                        if prune && k < n {
                            prop_assert_eq!(
                                stats.sealed_probed + stats.sealed_pruned,
                                stats.sealed_shards,
                                "opts {:?} stats {:?}", opts, stats
                            );
                        }
                    }
                }
            }
        }
    }

    /// A v2 monolithic artifact migrates to the append-only checkpoint
    /// layout and back byte-identically, and the loaded corpus answers
    /// queries exactly like the original — for f32 and quantized storage.
    #[test]
    fn monolithic_and_append_only_layouts_agree(
        n in 1usize..24,
        dim in 1usize..6,
        cap in 1usize..8,
        quantized_flag in 0u8..2,
        seed in 0u64..1000,
    ) {
        let quantized = quantized_flag == 1;
        let rows = index_rows(n, dim, seed);
        let storage = if quantized { ShardStorage::Int8 } else { ShardStorage::F32 };
        let mut index = ShardedEmbeddingIndex::with_storage(dim, cap, storage);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i);
        }
        let dir = std::env::temp_dir().join(format!(
            "g4ip-prop-migrate-{}-{n}-{dim}-{cap}-{quantized}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        index.checkpoint_dir(&dir, seed).expect("checkpoint");
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, seed).expect("load_dir");
        prop_assert_eq!(&loaded, &index);
        // append-only → monolithic: byte-identical to serializing the
        // original directly
        prop_assert_eq!(loaded.to_bytes(seed), index.to_bytes(seed));
        // monolithic v2 → append-only: the migrated corpus answers
        // queries bit-identically (storage degrades to f32 on the
        // monolithic hop, which serializes dequantized canonical rows)
        let mono = ShardedEmbeddingIndex::from_bytes(&index.to_bytes(seed), seed).expect("v2");
        let migrated_dir = dir.join("migrated");
        mono.checkpoint_dir(&migrated_dir, seed).expect("migrate");
        let migrated = ShardedEmbeddingIndex::load_dir(&migrated_dir, seed).expect("reload");
        let query: Vec<f32> = (0..dim).map(|j| 1.0 - j as f32 * 0.25).collect();
        let k = (n / 2).max(1);
        prop_assert_eq!(migrated.query(&query, k), index.query(&query, k));
        std::fs::remove_dir_all(&dir).ok();
    }
}
