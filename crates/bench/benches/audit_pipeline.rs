//! Audit-pipeline benchmarks: the corpus-scale retrieval path.
//!
//! Claims to keep honest (BASELINE.md records the medians):
//!
//! 1. **sharded query** — a top-10 query over a 1k-entry index split
//!    into fixed-capacity shards (per-shard top-k + heap merge) stays in
//!    the microsecond range.
//! 2. **blocked precision@k** — precision@5 over 512 entries walks
//!    shard×shard Gram blocks and never materializes the `n×n` Gram.
//! 3. **ingest scales linearly** — streaming N designs through
//!    parse → DFG → embed_batch → shard-insert must cost ~constant time
//!    per design as N grows (bounded batches, no quadratic rebuilds).
//! 4. **artifact latency** — persisting and reloading a 1k-entry index
//!    must stay in the low-millisecond range so warm starts are free.
//! 5. **bound pruning pays** — on a clustered 1k-entry corpus, the
//!    centroid/radius bounds must skip at least half the sealed shards
//!    (asserted here) and beat the exhaustive scan on latency.
//! 6. **parallel scan is gated honestly** — fanned-out per-shard scans
//!    vs the serial walk on a 64k-entry corpus; on a single-core
//!    container the two collapse to the same inline path.

use criterion::{criterion_group, criterion_main, Criterion};

use gnn4ip_core::{AuditConfig, AuditPipeline, AuditSource, Gnn4Ip};
use gnn4ip_data::{designs::synth_design, SynthSize};
use gnn4ip_eval::{QueryOptions, ShardedEmbeddingIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 16; // the detector's embedding width

fn random_embeddings(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect()
}

fn bench_query_sharded(c: &mut Criterion) {
    let entries = random_embeddings(1024, 11);
    let mut sharded = ShardedEmbeddingIndex::new(DIM, 256);
    for (i, e) in entries.iter().enumerate() {
        sharded.insert(e, i % 50);
    }
    let query: Vec<f32> = (0..DIM).map(|j| (j as f32 * 0.37).sin()).collect();
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_1024");
    group.bench_function("sharded_cap256", |b| {
        b.iter(|| std::hint::black_box(sharded.query(&query, 10)))
    });
    group.finish();
}

fn bench_precision_blocked(c: &mut Criterion) {
    let entries = random_embeddings(512, 13);
    let mut sharded = ShardedEmbeddingIndex::new(DIM, 128);
    for (i, e) in entries.iter().enumerate() {
        sharded.insert(e, i % 20);
    }
    let mut group = c.benchmark_group("audit_pipeline/precision_at_5_of_512");
    group.sample_size(20);
    let mut ws = gnn4ip_tensor::Workspace::new();
    group.bench_function("sharded_blocked", |b| {
        b.iter(|| std::hint::black_box(sharded.precision_at_k_ws(5, &mut ws)))
    });
    group.finish();
}

/// The clustered 1k-design scenario: 16 tight clusters of 64 embeddings,
/// inserted cluster-by-cluster into capacity-64 shards, so each sealed
/// shard covers one cluster and carries a tight centroid/radius bound.
fn clustered_index(n_clusters: usize, per_cluster: usize, seed: u64) -> ShardedEmbeddingIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = ShardedEmbeddingIndex::new(DIM, per_cluster);
    let centers: Vec<Vec<f32>> = (0..n_clusters)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect();
    for (c, center) in centers.iter().enumerate() {
        for _ in 0..per_cluster {
            let row: Vec<f32> = center
                .iter()
                .map(|&v| v + (rng.gen::<f32>() - 0.5) * 0.05)
                .collect();
            index.insert(&row, c);
        }
    }
    index
}

fn bench_query_pruned_vs_exhaustive(c: &mut Criterion) {
    let index = clustered_index(16, 64, 23);
    assert_eq!(index.num_sealed_shards(), 16);
    // query into cluster 5's neighborhood
    let query: Vec<f32> = index.normalized_row(5 * 64 + 7).to_vec();
    let serial = QueryOptions {
        prune: false,
        threads: 1,
        parallel_min_rows: usize::MAX,
        int8_scan: true,
    };
    let pruned = QueryOptions {
        prune: true,
        ..serial
    };
    let (exhaustive_hits, exhaustive_stats) = index.query_opts(&query, 10, &serial);
    let (pruned_hits, stats) = index.query_opts(&query, 10, &pruned);
    assert_eq!(
        exhaustive_hits, pruned_hits,
        "pruning must not change results"
    );
    println!(
        "audit_pipeline/query_pruned_1024: pruned {}/{} sealed shards \
         ({} of {} rows scanned)",
        stats.sealed_pruned, stats.sealed_shards, stats.rows_scanned, exhaustive_stats.rows_scanned
    );
    assert!(
        stats.sealed_pruned * 2 >= stats.sealed_shards,
        "clustered scenario must prune at least half the sealed shards, \
         got {}/{}",
        stats.sealed_pruned,
        stats.sealed_shards
    );
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_1024_clustered");
    group.bench_function("exhaustive", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &serial)))
    });
    group.bench_function("pruned", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &pruned)))
    });
    group.finish();
}

fn bench_query_parallel_vs_serial(c: &mut Criterion) {
    // 64 shards x 1k rows: big enough that threading could matter; the
    // options force the two paths regardless of the default row gate
    let entries = random_embeddings(65536, 29);
    let mut index = ShardedEmbeddingIndex::new(DIM, 1024);
    for (i, e) in entries.iter().enumerate() {
        index.insert(e, i % 100);
    }
    let query: Vec<f32> = (0..DIM).map(|j| (j as f32 * 0.53).cos()).collect();
    let serial = QueryOptions {
        prune: false,
        threads: 1,
        parallel_min_rows: usize::MAX,
        int8_scan: true,
    };
    let parallel = QueryOptions {
        prune: false,
        threads: 0,
        parallel_min_rows: 0,
        int8_scan: true,
    };
    let (a, _) = index.query_opts(&query, 10, &serial);
    let (b, stats) = index.query_opts(&query, 10, &parallel);
    assert_eq!(a, b, "threading must not change results");
    println!(
        "audit_pipeline/query_parallel_64k: parallel engaged: {} \
         (available cores: {})",
        stats.parallel,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_65536");
    group.sample_size(30);
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &serial)))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &parallel)))
    });
    group.finish();
}

fn corpus(n: usize) -> Vec<AuditSource> {
    (0..n)
        .map(|i| {
            AuditSource::new(
                format!("synth_{i}"),
                synth_design(i as u64, SynthSize::Small),
                None,
            )
        })
        .collect()
}

fn bench_ingest_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit_pipeline/ingest");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let sources = corpus(n);
        group.bench_function(format!("designs_{n}"), |b| {
            b.iter(|| {
                let mut p = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
                let report = p.ingest(sources.iter().cloned());
                assert_eq!(report.ingested, n);
                std::hint::black_box(p.index().len())
            })
        });
    }
    group.finish();
}

fn bench_artifact_io(c: &mut Criterion) {
    let mut p = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
    let entries = random_embeddings(1024, 17);
    // index synthetic embeddings directly at corpus scale: artifact cost
    // is about serialization, not the model
    let mut sharded = ShardedEmbeddingIndex::new(DIM, 256);
    for (i, e) in entries.iter().enumerate() {
        sharded.insert(e, i);
    }
    let report = p.ingest(corpus(8));
    assert_eq!(report.ingested, 8);
    let bytes = p.index_bytes();
    let mut group = c.benchmark_group("audit_pipeline/artifact");
    group.bench_function("shard_index_to_bytes_1024", |b| {
        b.iter(|| std::hint::black_box(sharded.to_bytes(42)))
    });
    let shard_bytes = sharded.to_bytes(42);
    group.bench_function("shard_index_from_bytes_1024", |b| {
        b.iter(|| std::hint::black_box(ShardedEmbeddingIndex::from_bytes(&shard_bytes, 42)))
    });
    let mut fresh = AuditPipeline::new(
        Gnn4Ip::from_bytes(&p.detector().to_bytes()).expect("loads"),
        AuditConfig::default(),
    );
    group.bench_function("pipeline_load_index_bytes", |b| {
        b.iter(|| std::hint::black_box(fresh.load_index_bytes(&bytes).expect("loads")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_query_sharded,
    bench_query_pruned_vs_exhaustive,
    bench_query_parallel_vs_serial,
    bench_precision_blocked,
    bench_ingest_scaling,
    bench_artifact_io
);
criterion_main!(benches);
