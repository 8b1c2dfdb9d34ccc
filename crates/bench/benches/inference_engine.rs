//! Inference-engine benchmarks: the batched/cached deployment path.
//!
//! Three claims to keep honest (BASELINE.md records the medians):
//!
//! 1. **cold vs. cached** — a repeat `check` of a design pair this detector
//!    has seen must be an order of magnitude faster than a cold one (the
//!    fingerprint lookup skips parse, flatten, DFG extraction, and the
//!    forward pass).
//! 2. **batch-size scaling** — `embed_many` over m distinct designs should
//!    scale sublinearly in wall-clock as workers fan out.
//! 3. **index query** — a top-k query against a corpus-scale
//!    `ShardedEmbeddingIndex` stays in the microsecond range.

use criterion::{criterion_group, criterion_main, Criterion};

use gnn4ip_core::Gnn4Ip;
use gnn4ip_data::{designs::synth_design, SynthSize};
use gnn4ip_eval::ShardedEmbeddingIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_check_cold_vs_cached(c: &mut Criterion) {
    let detector = Gnn4Ip::with_seed(7);
    let a = synth_design(3, SynthSize::Medium);
    let b = synth_design(5, SynthSize::Medium);
    let mut group = c.benchmark_group("inference_engine/check");
    group.sample_size(20);
    group.bench_function("cold", |bench| {
        bench.iter(|| {
            detector.clear_cache();
            std::hint::black_box(detector.check(&a, &b).expect("check"))
        })
    });
    detector.clear_cache();
    let _ = detector.check(&a, &b).expect("warm-up");
    group.bench_function("cached", |bench| {
        bench.iter(|| std::hint::black_box(detector.check(&a, &b).expect("check")))
    });
    group.finish();
}

fn bench_batch_scaling(c: &mut Criterion) {
    let detector = Gnn4Ip::with_seed(7);
    let designs: Vec<String> = (0..32)
        .map(|i| synth_design(i as u64, SynthSize::Small))
        .collect();
    let mut group = c.benchmark_group("inference_engine/embed_many");
    group.sample_size(10);
    for m in [1usize, 8, 32] {
        let batch: Vec<(&str, Option<&str>)> =
            designs[..m].iter().map(|s| (s.as_str(), None)).collect();
        group.bench_function(format!("batch_{m}"), |bench| {
            bench.iter(|| {
                detector.clear_cache();
                std::hint::black_box(detector.embed_many(&batch).expect("embed"))
            })
        });
    }
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(99);
    let dim = 16usize;
    let mut index = ShardedEmbeddingIndex::new(dim, 256);
    for i in 0..4096 {
        let e: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        index.insert(&e, i % 64);
    }
    let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut group = c.benchmark_group("inference_engine/index");
    group.bench_function("query_top10_of_4096", |bench| {
        bench.iter(|| std::hint::black_box(index.query(&query, 10)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_check_cold_vs_cached,
    bench_batch_scaling,
    bench_index
);
criterion_main!(benches);
