//! Detector training shared by every workload's set-up: a fixed training
//! corpus, a fixed seed and a fixed thread count, so every run on every
//! host audits with the same weights.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gnn4ip_core::{run_training_pipeline, AuditConfig, AuditPipeline, Gnn4Ip};
use gnn4ip_data::{Corpus, Level};
use gnn4ip_eval::QueryOptions;
use gnn4ip_nn::{EngineConfig, Hw2VecConfig, TrainConfig};

use crate::gen::training_corpus;
use crate::report::process_cpu_s;

/// Worker threads for training, ingest, audit and query fan-out. Fixed
/// rather than "one per core": the training engine fingerprints the
/// resolved count, so a host-dependent count would train a different
/// model and change the verdicts being checked.
pub const THREADS: usize = 2;

/// Training seed (pair sampling, shuffling, initial weights).
pub const TRAIN_SEED: u64 = 7;

/// A trained detector with the figures its training reported.
#[derive(Debug)]
pub struct Trained {
    pub detector: Gnn4Ip,
    /// Held-out pair accuracy at the tuned δ.
    pub accuracy: f64,
    /// Training throughput of each training run behind this detector.
    pub pair_rates: Vec<TrainRate>,
    pub corpus: Corpus,
    pub engine: EngineConfig,
}

/// Training pairs processed per second of one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainRate {
    /// Per wall second of the training loop, as the engine reports it.
    pub wall: f64,
    /// Per CPU second of the whole `run_training_pipeline` call (training,
    /// δ tuning, test scoring and artifact writes).
    pub cpu: f64,
}

impl Trained {
    /// Median wall-clock training throughput over the training runs.
    pub fn pairs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.pair_rates.iter().map(|r| r.wall).collect();
        crate::stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Median CPU-time training throughput over the training runs.
    pub fn pairs_per_cpu_s(&self) -> f64 {
        let rates: Vec<f64> = self.pair_rates.iter().map(|r| r.cpu).collect();
        crate::stats::median(&rates).unwrap_or(f64::NAN)
    }
}

/// Hyper-parameters per abstraction level.
fn recipe(level: Level) -> (usize, usize, usize, usize) {
    // (families, instances per family, epochs, max different pairs)
    match level {
        Level::Rtl => (60, 4, 6, 800),
        Level::Netlist => (30, 4, 6, 400),
    }
}

pub fn model_config() -> Hw2VecConfig {
    Hw2VecConfig {
        hidden: 32,
        ..Hw2VecConfig::default()
    }
}

pub fn engine_config(level: Level) -> EngineConfig {
    let (_, _, epochs, _) = recipe(level);
    EngineConfig {
        train: TrainConfig {
            epochs,
            seed: TRAIN_SEED,
            threads: THREADS,
            ..TrainConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Builds the training corpus and trains through `run_training_pipeline`
/// into `dir` (emptied first: a leftover checkpoint would be resumed).
/// `checkpoint_every > 0` also writes and reloads training checkpoints.
pub fn train(level: Level, dir: &Path, checkpoint_every: usize) -> Result<Trained, String> {
    let (families, instances, _, _) = recipe(level);
    let corpus = training_corpus(level, families, instances);
    train_on(corpus, level, dir, checkpoint_every)
}

pub fn train_on(
    corpus: Corpus,
    level: Level,
    dir: &Path,
    checkpoint_every: usize,
) -> Result<Trained, String> {
    let (_, _, _, max_different) = recipe(level);
    let _ = std::fs::remove_dir_all(dir);
    let engine = EngineConfig {
        checkpoint_every,
        ..engine_config(level)
    };
    let cpu = process_cpu_s();
    let (outcome, _) = run_training_pipeline(
        &corpus,
        model_config(),
        engine.clone(),
        max_different,
        TRAIN_SEED,
        dir,
    )?;
    let cpu = process_cpu_s() - cpu;
    // without early stopping every non-test pair trains in every epoch
    let trained_pairs =
        (outcome.n_pairs - outcome.test_scores.len()) * outcome.train_report.epochs.len();
    Ok(Trained {
        detector: outcome.detector,
        accuracy: outcome.test_accuracy,
        pair_rates: vec![TrainRate {
            wall: 1e3 / outcome.train_ms_per_sample,
            cpu: trained_pairs as f64 / cpu,
        }],
        corpus,
        engine,
    })
}

/// The audit configuration every workload uses, with fixed thread counts.
pub fn audit_config() -> AuditConfig {
    AuditConfig {
        threads: THREADS,
        query: QueryOptions {
            threads: THREADS,
            ..QueryOptions::default()
        },
        ..AuditConfig::default()
    }
}

/// A fresh pipeline around a copy of the trained detector (empty cache).
pub fn pipeline(trained: &Trained, config: AuditConfig) -> AuditPipeline {
    let detector = Gnn4Ip::from_bytes(&trained.detector.to_bytes()).expect("detector round-trips");
    AuditPipeline::new(detector, config)
}

/// Set-up repetitions: the last result plus the median wall and CPU
/// seconds of one repetition.
pub struct Repeated<T> {
    pub last: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` `reps` times: set-up is repeated so its time is a median, not
/// one sample.
pub fn repeat_timed<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Repeated<T>, String> {
    let (mut wall, mut cpu) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (t, c) = (Instant::now(), process_cpu_s());
        last = Some(f()?);
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(process_cpu_s() - c);
    }
    Ok(Repeated {
        last: last.expect("at least one repetition"),
        wall_s: crate::stats::median(&wall).expect("at least one repetition"),
        cpu_s: crate::stats::median(&cpu).expect("at least one repetition"),
    })
}

/// Scratch directory for artifacts, inside the build directory of the
/// checkout, unique per process; removed by [`WorkDir`]'s drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> Result<Self, String> {
        let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
        let dir = Path::new(&base)
            .join("perfbench-work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
