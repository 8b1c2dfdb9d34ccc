//! Training-engine benchmarks: one mini-batch epoch on one thread and on
//! all cores, plus checkpoint write/load latency.
//!
//! Claims to keep honest (BASELINE.md records the medians as pairs/sec):
//!
//! 1. **shared-tape mini-batches** — the engine injects parameters once
//!    per worker per micro-batch and runs one backward pass for the whole
//!    micro-batch, so one epoch costs far less than a tape per pair.
//! 2. **fan-out** — with `threads = 0` (all cores) the micro-batch
//!    additionally data-parallelizes across workers.
//! 3. **checkpointing** — serializing and restoring the full training
//!    state (model + Adam moments + report) must stay far below the cost
//!    of one epoch, so periodic checkpoints are effectively free.

use criterion::{criterion_group, criterion_main, Criterion};

use gnn4ip_data::{designs::synth_design, SynthSize};
use gnn4ip_dfg::graph_from_verilog;
use gnn4ip_nn::{
    EngineConfig, GraphInput, Hw2Vec, Hw2VecConfig, PairLabel, PairSample, TrainConfig, TrainEngine,
};

/// A small training set over medium synthetic designs: 8 graphs, all
/// 28 unordered pairs per epoch with deterministic mixed labels.
fn training_set() -> (Vec<GraphInput>, Vec<PairSample>) {
    let graphs: Vec<GraphInput> = (0..8)
        .map(|i| {
            let src = synth_design(i, SynthSize::Medium);
            GraphInput::from_dfg(&graph_from_verilog(&src, None).expect("graph"))
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..graphs.len() {
        for j in (i + 1)..graphs.len() {
            pairs.push(PairSample {
                a: i,
                b: j,
                // deterministic mixed labels: same family parity = similar
                label: if (i ^ j) % 2 == 0 {
                    PairLabel::Similar
                } else {
                    PairLabel::Different
                },
            });
        }
    }
    (graphs, pairs)
}

fn bench_steps_per_sec(c: &mut Criterion) {
    let (graphs, pairs) = training_set();
    let n_pairs = pairs.len();
    let mut group = c.benchmark_group("training_engine/epoch");
    group.sample_size(10);

    // mini-batches on shared tapes, single thread
    group.bench_function(format!("v2_minibatch_1thread_{n_pairs}_pairs"), |b| {
        b.iter(|| {
            let cfg = EngineConfig {
                train: TrainConfig {
                    epochs: 1,
                    batch_size: 16,
                    threads: 1,
                    ..TrainConfig::default()
                },
                ..EngineConfig::default()
            };
            let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 7), cfg);
            engine.run(&graphs, &pairs, None).expect("runs");
            std::hint::black_box(engine.into_model())
        })
    });

    // mini-batches fanned out over all cores
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    group.bench_function(
        format!("v2_minibatch_fanout_{cores}threads_{n_pairs}_pairs"),
        |b| {
            b.iter(|| {
                let cfg = EngineConfig {
                    train: TrainConfig {
                        epochs: 1,
                        batch_size: 16,
                        threads: 0,
                        ..TrainConfig::default()
                    },
                    ..EngineConfig::default()
                };
                let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 7), cfg);
                engine.run(&graphs, &pairs, None).expect("runs");
                std::hint::black_box(engine.into_model())
            })
        },
    );
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let (graphs, pairs) = training_set();
    // a trained engine with warm Adam moments — the realistic payload
    let cfg = EngineConfig {
        train: TrainConfig {
            epochs: 2,
            batch_size: 16,
            threads: 1,
            ..TrainConfig::default()
        },
        ..EngineConfig::default()
    };
    let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 7), cfg.clone());
    engine.run(&graphs, &pairs, None).expect("runs");

    let mut group = c.benchmark_group("training_engine/checkpoint");
    group.bench_function("serialize", |b| {
        b.iter(|| std::hint::black_box(engine.checkpoint_bytes()))
    });
    let bytes = engine.checkpoint_bytes();
    group.bench_function("deserialize", |b| {
        b.iter(|| {
            std::hint::black_box(
                TrainEngine::from_checkpoint_bytes(&bytes, cfg.clone()).expect("loads"),
            )
        })
    });

    let dir = std::env::temp_dir().join(format!("gnn4ip-bench-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ckpt.bin");
    group.bench_function("write_file", |b| {
        b.iter(|| engine.save_checkpoint(&path).expect("writes"))
    });
    group.bench_function("load_file", |b| {
        b.iter(|| std::hint::black_box(TrainEngine::resume(&path, cfg.clone()).expect("loads")))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_steps_per_sec, bench_checkpoint);
criterion_main!(benches);
