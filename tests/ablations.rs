//! Quality ablations over the architecture choices the paper fixes
//! (readout = max, pool ratio = 0.5, layers = 2): verify the pipeline
//! trains to useful accuracy under each alternative, so the defaults are a
//! choice rather than a requirement.
//!
//! These train several models, so every test is `#[ignore]`d: the plain
//! `cargo test -q` tier-1 gate stays fast, and `ci.sh` runs this suite in
//! its own stage via `cargo test -q --release -- --ignored`.

use gnn4ip::data::{Corpus, CorpusSpec};
use gnn4ip::nn::{Hw2VecConfig, Readout, TrainConfig};
use gnn4ip::run_experiment;

fn tiny_corpus() -> Corpus {
    let spec = CorpusSpec {
        n_designs: 5,
        instances_per_design: 3,
        ..CorpusSpec::rtl_small()
    };
    Corpus::build(&spec).expect("corpus")
}

fn quick_train() -> TrainConfig {
    TrainConfig {
        epochs: 10,
        batch_size: 16,
        lr: 0.01,
        ..TrainConfig::default()
    }
}

fn accuracy_with(config: Hw2VecConfig, corpus: &Corpus, seed: u64) -> f64 {
    run_experiment(corpus, config, &quick_train(), 60, seed)
        .expect("experiment")
        .test_accuracy
}

#[test]
#[ignore = "heavy: trains several model variants; ci.sh runs these via cargo test --release -- --ignored"]
fn readout_ablation_all_variants_learn() {
    let corpus = tiny_corpus();
    for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
        let acc = accuracy_with(
            Hw2VecConfig {
                readout,
                ..Hw2VecConfig::default()
            },
            &corpus,
            10,
        );
        assert!(
            acc >= 0.7,
            "readout {:?} failed to learn: {acc}",
            readout.tag()
        );
    }
}

#[test]
#[ignore = "heavy: trains several model variants; ci.sh runs these via cargo test --release -- --ignored"]
fn pool_ratio_ablation_all_ratios_learn() {
    let corpus = tiny_corpus();
    for ratio in [0.25f32, 0.5, 1.0] {
        let acc = accuracy_with(
            Hw2VecConfig {
                pool_ratio: ratio,
                ..Hw2VecConfig::default()
            },
            &corpus,
            11,
        );
        assert!(acc >= 0.7, "pool ratio {ratio} failed to learn: {acc}");
    }
}

#[test]
#[ignore = "heavy: trains several model variants; ci.sh runs these via cargo test --release -- --ignored"]
fn layer_depth_ablation() {
    let corpus = tiny_corpus();
    for layers in [1usize, 2, 3] {
        let acc = accuracy_with(
            Hw2VecConfig {
                layers,
                ..Hw2VecConfig::default()
            },
            &corpus,
            12,
        );
        assert!(acc >= 0.65, "{layers}-layer model failed to learn: {acc}");
    }
}

#[test]
#[ignore = "heavy: trains several model variants; ci.sh runs these via cargo test --release -- --ignored"]
fn conv_kind_ablation_sage_learns_too() {
    let corpus = tiny_corpus();
    for conv in [gnn4ip::nn::ConvKind::Gcn, gnn4ip::nn::ConvKind::Sage] {
        let acc = accuracy_with(
            Hw2VecConfig {
                conv,
                ..Hw2VecConfig::default()
            },
            &corpus,
            14,
        );
        assert!(acc >= 0.7, "{conv:?} failed to learn: {acc}");
    }
}

#[test]
#[ignore = "heavy: trains several model variants; ci.sh runs these via cargo test --release -- --ignored"]
fn sgd_also_learns() {
    // the paper's literal "batch gradient descent"
    let corpus = tiny_corpus();
    let cfg = TrainConfig {
        optimizer: gnn4ip::nn::OptimizerKind::Sgd,
        epochs: 40,
        lr: 0.05,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let out = run_experiment(&corpus, Hw2VecConfig::default(), &cfg, 60, 13).expect("experiment");
    assert!(
        out.test_accuracy >= 0.6,
        "plain SGD failed to learn: {}",
        out.test_accuracy
    );
}
