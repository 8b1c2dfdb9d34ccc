//! The siamese pair trainer: mini-batch data-parallel training with
//! gradient accumulation, an LR schedule, early stopping, and
//! checkpoint/resume.
//!
//! Each worker records its share of a mini-batch on **one shared tape**:
//! parameters are injected once per worker per micro-batch, pair losses
//! are summed into a single root, and one backward pass yields the summed
//! gradients — the same mean gradient a tape per pair would give, without
//! the per-pair parameter clones and backward bookkeeping. With
//! `threads > 1` the micro-batch additionally fans out across workers
//! (per-thread tapes, summed gradients).
//!
//! Every per-epoch decision (shuffle order, dropout masks) is a pure
//! function of `(seed, epoch, batch, worker)`, so a run resumed from a
//! checkpoint continues **bit-exactly** where the original left off —
//! same loss trajectory, same final weights — as long as the engine
//! config (including `threads`) is unchanged. Checkpoints carry the
//! model, the full optimizer state (Adam moments included), the report
//! so far, and the early-stopping bookkeeping.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gnn4ip_tensor::{
    fnv1a64, read_adam, read_artifact, read_sgd, write_adam, write_artifact, write_sgd, Adam,
    BinReader, BinWriter, Matrix, Optimizer, ParamStore, Sgd, Tape, Var, OPT_TAG_ADAM, OPT_TAG_SGD,
};

use crate::graph_input::GraphInput;
use crate::loss::cosine_embedding_loss;
use crate::model::{Hw2Vec, Mode};
use crate::trainer::{
    clip_global_norm, validation_loss, EpochStats, OptimizerKind, PairSample, TrainConfig,
    TrainReport,
};
use gnn4ip_tensor::fan_out;

/// Kind tag of the binary checkpoint artifact.
pub const CHECKPOINT_KIND: &str = "gnn4ip-checkpoint";

/// Learning-rate schedule applied on top of the base LR each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LrSchedule {
    /// Fixed learning rate (the paper's setting).
    #[default]
    Constant,
    /// Multiply the LR by `factor` every `every` epochs.
    StepDecay {
        /// Epochs between decays.
        every: usize,
        /// Multiplicative decay per step (e.g. 0.5).
        factor: f32,
    },
    /// Cosine annealing from the base LR down to `min_lr` over the
    /// configured epoch budget.
    CosineAnneal {
        /// Final learning rate at the last epoch.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` out of `total_epochs`.
    pub fn lr_at(self, base: f32, epoch: usize, total_epochs: usize) -> f32 {
        match self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                base * factor.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::CosineAnneal { min_lr } => {
                if total_epochs <= 1 {
                    base
                } else {
                    let t = epoch as f32 / (total_epochs - 1) as f32;
                    min_lr + 0.5 * (base - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
                }
            }
        }
    }

    fn tag(self) -> u8 {
        match self {
            LrSchedule::Constant => 0,
            LrSchedule::StepDecay { .. } => 1,
            LrSchedule::CosineAnneal { .. } => 2,
        }
    }
}

/// Configuration of the training engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Core hyper-parameters (batch size, LR, epochs, seed, threads, …).
    pub train: TrainConfig,
    /// Micro-batches accumulated per optimizer step (1 = step every
    /// micro-batch). The effective batch is `batch_size * accum_steps`
    /// without the memory cost of a larger tape.
    pub accum_steps: usize,
    /// Per-epoch learning-rate schedule.
    pub schedule: LrSchedule,
    /// Early-stopping patience in epochs (0 disables). Requires
    /// validation pairs; the best-seen parameters are restored when
    /// training ends.
    pub patience: usize,
    /// Write a checkpoint every N epochs (0 disables).
    pub checkpoint_every: usize,
    /// Where periodic checkpoints go (required when `checkpoint_every >
    /// 0`).
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            accum_steps: 1,
            schedule: LrSchedule::Constant,
            patience: 0,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }
}

/// `threads == 0` means one worker per available core; every trajectory
/// decision (chunking, per-worker dropout seeds, f32 summation order)
/// depends on the **resolved** count, so both the epoch loop and the
/// config fingerprint go through this.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

impl EngineConfig {
    /// Fingerprint of every field that affects the training trajectory.
    /// Stored in checkpoints so a resume with a drifted config (different
    /// seed, batch size, thread count, …) is rejected instead of silently
    /// diverging. The thread count is fingerprinted **resolved**: a
    /// `threads = 0` checkpoint carried to a machine with a different
    /// core count is a real divergence and must be rejected.
    fn fingerprint(&self) -> u64 {
        let mut w = BinWriter::new("engine-config");
        w.len_of(self.train.batch_size);
        w.f32(self.train.lr);
        w.len_of(self.train.epochs);
        w.f32(self.train.margin);
        w.u64(self.train.seed);
        w.u8(match self.train.optimizer {
            OptimizerKind::Sgd => OPT_TAG_SGD,
            OptimizerKind::Adam => OPT_TAG_ADAM,
        });
        w.len_of(resolve_threads(self.train.threads));
        w.f32(self.train.grad_clip);
        w.len_of(self.accum_steps);
        w.u8(self.schedule.tag());
        match self.schedule {
            LrSchedule::Constant => {}
            LrSchedule::StepDecay { every, factor } => {
                w.len_of(every);
                w.f32(factor);
            }
            LrSchedule::CosineAnneal { min_lr } => w.f32(min_lr),
        }
        w.len_of(self.patience);
        fnv1a64(&w.finish())
    }
}

/// Concrete optimizer state — kept as an enum (not `dyn Optimizer`) so
/// checkpoints can serialize it.
#[derive(Debug, Clone)]
enum EngineOpt {
    Sgd(Sgd),
    Adam(Adam),
}

impl EngineOpt {
    fn new(kind: OptimizerKind, lr: f32) -> Self {
        match kind {
            OptimizerKind::Sgd => EngineOpt::Sgd(Sgd::new(lr)),
            OptimizerKind::Adam => EngineOpt::Adam(Adam::new(lr)),
        }
    }

    fn as_optimizer(&mut self) -> &mut dyn Optimizer {
        match self {
            EngineOpt::Sgd(s) => s,
            EngineOpt::Adam(a) => a,
        }
    }

    fn write(&self, w: &mut BinWriter) {
        match self {
            EngineOpt::Sgd(s) => write_sgd(w, s),
            EngineOpt::Adam(a) => write_adam(w, a),
        }
    }

    fn read(r: &mut BinReader<'_>) -> Result<Self, String> {
        match r.u8()? {
            OPT_TAG_SGD => Ok(EngineOpt::Sgd(read_sgd(r)?)),
            OPT_TAG_ADAM => Ok(EngineOpt::Adam(read_adam(r)?)),
            other => Err(format!("unknown optimizer tag {other}")),
        }
    }
}

/// Early-stopping bookkeeping: the best validation loss seen and the
/// parameters that produced it.
#[derive(Debug, Clone)]
struct BestState {
    val_loss: f32,
    since: usize,
    params: ParamStore,
}

/// The trainer: owns the model and optimizer across epochs so
/// training can pause at a checkpoint and resume bit-exactly.
///
/// # Examples
///
/// ```
/// use gnn4ip_nn::{EngineConfig, Hw2Vec, Hw2VecConfig, TrainConfig, TrainEngine};
/// # use gnn4ip_nn::{GraphInput, PairLabel, PairSample};
/// # use gnn4ip_dfg::{Dfg, NodeKind};
/// # let mut g = Dfg::new("g");
/// # let y = g.add_node(NodeKind::Output, "y");
/// # let a = g.add_node(NodeKind::Input, "a");
/// # g.add_edge(y, a);
/// # g.add_root(y);
/// # let graphs = vec![GraphInput::from_dfg(&g)];
/// # let pairs = [PairSample { a: 0, b: 0, label: PairLabel::Similar }];
/// let cfg = EngineConfig {
///     train: TrainConfig { epochs: 2, batch_size: 4, ..TrainConfig::default() },
///     ..EngineConfig::default()
/// };
/// let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 1), cfg);
/// let report = engine.run(&graphs, &pairs, None)?;
/// assert_eq!(report.epochs.len(), 2);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrainEngine {
    model: Hw2Vec,
    opt: EngineOpt,
    cfg: EngineConfig,
    next_epoch: usize,
    report: TrainReport,
    best: Option<BestState>,
    /// Early stopping fired — persisted in checkpoints so a resume never
    /// trains past the stop point.
    stopped: bool,
}

impl TrainEngine {
    /// Creates an engine around a freshly initialized (or pre-trained)
    /// model.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configs: zero batch size, zero accumulation
    /// steps, or periodic checkpointing without a path.
    pub fn new(model: Hw2Vec, cfg: EngineConfig) -> Self {
        assert!(cfg.train.batch_size > 0, "batch size must be positive");
        assert!(cfg.accum_steps > 0, "accum_steps must be positive");
        assert!(
            cfg.checkpoint_every == 0 || cfg.checkpoint_path.is_some(),
            "checkpoint_every > 0 requires a checkpoint_path"
        );
        let opt = EngineOpt::new(cfg.train.optimizer, cfg.train.lr);
        Self {
            model,
            opt,
            cfg,
            next_epoch: 0,
            report: TrainReport::default(),
            best: None,
            stopped: false,
        }
    }

    /// The model in its current training state.
    pub fn model(&self) -> &Hw2Vec {
        &self.model
    }

    /// Consumes the engine, yielding the trained model.
    pub fn into_model(self) -> Hw2Vec {
        self.model
    }

    /// The loss trajectory accumulated so far.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The next epoch `run` will execute (equals epochs completed).
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// Runs training from the current epoch to the configured budget
    /// (or until early stopping fires), checkpointing periodically when
    /// configured. Returns the full loss trajectory.
    ///
    /// When `patience > 0`, `val_pairs` must be supplied; the best-seen
    /// parameters are restored into the model when training ends.
    ///
    /// # Errors
    ///
    /// Returns checkpoint I/O failures as text.
    ///
    /// # Panics
    ///
    /// Panics if `train_pairs` is empty, a pair indexes outside
    /// `graphs`, or `patience > 0` without validation pairs.
    pub fn run(
        &mut self,
        graphs: &[GraphInput],
        train_pairs: &[PairSample],
        val_pairs: Option<&[PairSample]>,
    ) -> Result<&TrainReport, String> {
        assert!(!train_pairs.is_empty(), "no training pairs");
        for p in train_pairs.iter().chain(val_pairs.unwrap_or_default()) {
            assert!(
                p.a < graphs.len() && p.b < graphs.len(),
                "pair out of range"
            );
        }
        assert!(
            self.cfg.patience == 0 || val_pairs.is_some(),
            "early stopping requires validation pairs"
        );
        let total_epochs = self.cfg.train.epochs;
        while !self.stopped && self.next_epoch < total_epochs {
            let epoch = self.next_epoch;
            let mean_loss = self.run_epoch(graphs, train_pairs, epoch);
            let val =
                val_pairs.map(|vp| validation_loss(&self.model, graphs, vp, self.cfg.train.margin));
            self.report.epochs.push(EpochStats {
                epoch,
                mean_loss,
                val_loss: val,
            });
            self.next_epoch = epoch + 1;

            if self.cfg.patience > 0 {
                // g4check: allow(unwrap-in-lib): TrainEngine::new rejects patience > 0 without a validation split, so val is always computed on this path
                let val = val.expect("validated above");
                match &mut self.best {
                    Some(b) if val >= b.val_loss => {
                        b.since += 1;
                        if b.since >= self.cfg.patience {
                            self.stopped = true;
                        }
                    }
                    Some(b) => {
                        b.val_loss = val;
                        b.since = 0;
                        b.params = self.model.params().clone();
                    }
                    None => {
                        self.best = Some(BestState {
                            val_loss: val,
                            since: 0,
                            params: self.model.params().clone(),
                        });
                    }
                }
            }

            // checkpoint AFTER the stop decision, so the stopped flag is
            // part of the persisted state and a resume never trains past
            // the stop point
            if self.cfg.checkpoint_every > 0
                && (self.stopped || self.next_epoch.is_multiple_of(self.cfg.checkpoint_every))
            {
                let path = self
                    .cfg
                    .checkpoint_path
                    .clone()
                    // g4check: allow(unwrap-in-lib): TrainEngine::new rejects checkpoint_every > 0 without a checkpoint_path
                    .expect("checked in TrainEngine::new");
                self.save_checkpoint(&path)?;
            }
        }
        if let Some(b) = &self.best {
            *self.model.params_mut() = b.params.clone();
        }
        Ok(&self.report)
    }

    /// One full pass over the training pairs: shuffle with the
    /// epoch-derived RNG, walk micro-batches, step the optimizer every
    /// `accum_steps` micro-batches. Returns the mean pair loss.
    fn run_epoch(&mut self, graphs: &[GraphInput], pairs: &[PairSample], epoch: usize) -> f32 {
        let cfg = &self.cfg.train;
        let lr = self
            .cfg
            .schedule
            .lr_at(cfg.lr, epoch, self.cfg.train.epochs);
        self.opt.as_optimizer().set_lr(lr);
        let threads = resolve_threads(cfg.threads);
        // Shuffle order is a pure function of (seed, epoch) — this is what
        // makes an epoch re-runnable after resume without serializing RNG
        // state.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, epoch));
        order.shuffle(&mut rng);

        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        let micro: Vec<&[usize]> = order.chunks(cfg.batch_size).collect();
        for (group_no, group) in micro.chunks(self.cfg.accum_steps).enumerate() {
            let mut sums: Option<Vec<Matrix>> = None;
            let mut count = 0usize;
            for (k, mb) in group.iter().enumerate() {
                let batch_no = group_no * self.cfg.accum_steps + k;
                let (batch_sums, loss_sum) = microbatch_gradients(
                    &self.model,
                    graphs,
                    pairs,
                    mb,
                    cfg,
                    epoch,
                    batch_no,
                    threads,
                );
                epoch_loss += loss_sum as f64;
                count += mb.len();
                seen += mb.len();
                match &mut sums {
                    None => sums = Some(batch_sums),
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(&batch_sums) {
                            a.add_assign(b);
                        }
                    }
                }
            }
            // g4check: allow(unwrap-in-lib): chunks() on the non-empty batch yields at least one group, so the accumulator was seeded
            let mut grads = sums.expect("non-empty group");
            let inv = 1.0 / count.max(1) as f32;
            for g in &mut grads {
                g.map_assign(|v| v * inv);
            }
            clip_global_norm(&mut grads, cfg.grad_clip);
            self.opt
                .as_optimizer()
                .step(self.model.params_mut(), &grads);
        }
        (epoch_loss / seen.max(1) as f64) as f32
    }

    /// Serializes the full training state (model, optimizer, report,
    /// early-stopping bookkeeping, config fingerprint).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(CHECKPOINT_KIND);
        w.u64(self.cfg.fingerprint());
        w.u8(self.stopped as u8);
        w.len_of(self.next_epoch);
        w.bytes(&self.model.to_bytes());
        self.opt.write(&mut w);
        w.len_of(self.report.epochs.len());
        for e in &self.report.epochs {
            w.len_of(e.epoch);
            w.f32(e.mean_loss);
            match e.val_loss {
                Some(v) => {
                    w.u8(1);
                    w.f32(v);
                }
                None => {
                    w.u8(0);
                    w.f32(0.0);
                }
            }
        }
        match &self.best {
            Some(b) => {
                w.u8(1);
                w.f32(b.val_loss);
                w.len_of(b.since);
                w.len_of(b.params.len());
                for (_, m) in b.params.iter() {
                    w.matrix(m);
                }
            }
            None => w.u8(0),
        }
        w.finish()
    }

    /// Writes a checkpoint artifact to `path` (atomic: temp + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as text.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), String> {
        write_artifact(path, &self.checkpoint_bytes())
    }

    /// Restores an engine from checkpoint bytes. `cfg` must match the
    /// config the checkpoint was written under (verified by fingerprint)
    /// — resuming under a drifted config would silently diverge from the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns format, checksum, or config-mismatch errors as text.
    pub fn from_checkpoint_bytes(bytes: &[u8], cfg: EngineConfig) -> Result<Self, String> {
        let mut r = BinReader::open(bytes, CHECKPOINT_KIND)?;
        let fp = r.u64()?;
        if fp != cfg.fingerprint() {
            return Err("checkpoint was written under a different engine config; \
                 resuming would diverge from the original run"
                .to_string());
        }
        let stopped = r.u8()? == 1;
        let next_epoch = r.len_of()?;
        let model = Hw2Vec::from_bytes(r.bytes()?)?;
        let opt = EngineOpt::read(&mut r)?;
        let n_epochs = r.count_of(17)?; // epoch u64 + loss f32 + flag u8 + val f32
        let mut report = TrainReport::default();
        for _ in 0..n_epochs {
            let epoch = r.len_of()?;
            let mean_loss = r.f32()?;
            let has_val = r.u8()? == 1;
            let val = r.f32()?;
            report.epochs.push(EpochStats {
                epoch,
                mean_loss,
                val_loss: has_val.then_some(val),
            });
        }
        let best = if r.u8()? == 1 {
            let val_loss = r.f32()?;
            let since = r.len_of()?;
            let n = r.len_of()?;
            let mut params = model.params().clone();
            if n != params.len() {
                return Err(format!(
                    "checkpoint best-params count {n} does not match model ({})",
                    params.len()
                ));
            }
            for slot in params.values_mut() {
                let m = r.matrix()?;
                if m.shape() != slot.shape() {
                    return Err("checkpoint best-params shape mismatch".to_string());
                }
                *slot = m;
            }
            Some(BestState {
                val_loss,
                since,
                params,
            })
        } else {
            None
        };
        r.done()?;
        Ok(Self {
            model,
            opt,
            cfg,
            next_epoch,
            report,
            best,
            stopped,
        })
    }

    /// Loads a checkpoint artifact written by
    /// [`save_checkpoint`](TrainEngine::save_checkpoint) and resumes
    /// under the same config.
    ///
    /// # Errors
    ///
    /// Returns I/O, format, or config-mismatch errors as text.
    pub fn resume(path: &Path, cfg: EngineConfig) -> Result<Self, String> {
        Self::from_checkpoint_bytes(&read_artifact(path)?, cfg)
    }
}

/// Per-epoch shuffle seed: decorrelated from the per-sample dropout
/// seeds used inside `microbatch_gradients`.
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ (epoch as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Summed (not mean) gradients and summed loss of one micro-batch.
///
/// Each worker records its share of the batch on one shared tape:
/// parameters are injected once, pair losses are summed into a single
/// root, and one backward traversal produces the worker's gradient sums.
///
/// Within a worker's chunk, each distinct graph is **forwarded once** and
/// its embedding `Var` shared by every pair that references it — the tape
/// accumulates each pair's gradient contribution through the shared
/// forward subgraph, which is exactly the sum the per-pair formulation
/// computes. (The one semantic difference: a graph draws one dropout mask
/// per micro-batch instead of one per pair occurrence — still an unbiased
/// dropout sample, and the standard batched-training behavior.)
#[allow(clippy::too_many_arguments)]
fn microbatch_gradients(
    model: &Hw2Vec,
    graphs: &[GraphInput],
    pairs: &[PairSample],
    batch: &[usize],
    cfg: &TrainConfig,
    epoch: usize,
    batch_no: usize,
    threads: usize,
) -> (Vec<Matrix>, f32) {
    let results: Vec<(Vec<Matrix>, f32)> = fan_out(batch, threads, |tid, chunk| {
        let tape = Tape::new();
        let vars = model.params().inject(&tape);
        // per-worker seed stream: `tid` is dense in 0..worker_count(..)
        // (fan_out's contract), so streams never alias within one batch
        let mut rng = StdRng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((epoch as u64) << 32)
                .wrapping_add((batch_no as u64) << 16)
                .wrapping_add(tid as u64),
        );
        // graph index → embedding var, in first-occurrence order (keeps
        // dropout draws deterministic)
        let mut embeds: std::collections::HashMap<usize, Var<'_>> =
            std::collections::HashMap::new();
        let mut total: Option<Var<'_>> = None;
        for &pi in chunk {
            let pair = pairs[pi];
            let mut embed_of = |gi: usize| match embeds.get(&gi) {
                Some(v) => *v,
                None => {
                    let v = model.forward(&tape, &vars, &graphs[gi], &mut Mode::Train(&mut rng));
                    embeds.insert(gi, v);
                    v
                }
            };
            let ha = embed_of(pair.a);
            let hb = embed_of(pair.b);
            let loss = cosine_embedding_loss(ha.cosine(hb), pair.label, cfg.margin);
            total = Some(match total.take() {
                Some(t) => t.add(loss),
                None => loss,
            });
        }
        // g4check: allow(unwrap-in-lib): fan_out chunks are non-empty by construction, so the loop above ran and seeded total
        let total = total.expect("fan_out never passes an empty chunk");
        let loss_sum = total.item();
        let grads = tape.backward(total);
        let sums: Vec<Matrix> = vars.iter().map(|v| grads.wrt_or_zero(*v)).collect();
        (sums, loss_sum)
    });
    let mut iter = results.into_iter();
    // g4check: allow(unwrap-in-lib): fan_out on a non-empty pair list returns at least one chunk result
    let (mut sums, mut loss) = iter.next().expect("at least one chunk");
    for (s, l) in iter {
        for (a, b) in sums.iter_mut().zip(&s) {
            a.add_assign(b);
        }
        loss += l;
    }
    (sums, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hw2VecConfig;
    use crate::trainer::tests::toy_dataset;
    use crate::trainer::{score_pairs, tune_delta};
    use crate::PairLabel;
    use gnn4ip_tensor::GradAccum;

    fn quick_cfg(epochs: usize) -> EngineConfig {
        EngineConfig {
            train: TrainConfig {
                epochs,
                batch_size: 8,
                lr: 0.01,
                threads: 1,
                ..TrainConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_reduces_loss_and_separates_families() {
        let (graphs, pairs) = toy_dataset();
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 61), quick_cfg(20));
        let report = engine.run(&graphs, &pairs, None).expect("runs").clone();
        let first = report.epochs.first().expect("epochs").mean_loss;
        let last = report.final_loss();
        assert!(last < first * 0.8, "loss did not drop: {first} -> {last}");
        let scores = score_pairs(engine.model(), &graphs, &pairs);
        let labels: Vec<PairLabel> = pairs.iter().map(|p| p.label).collect();
        let (_, acc) = tune_delta(&scores, &labels);
        assert!(acc >= 0.9, "tuned accuracy {acc}");
    }

    #[test]
    fn engine_is_deterministic_for_fixed_seed() {
        let (graphs, pairs) = toy_dataset();
        let run = || {
            let mut e = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 62), quick_cfg(3));
            e.run(&graphs, &pairs, None).expect("runs");
            e.into_model().embed(&graphs[0])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gradient_accumulation_matches_larger_batch() {
        // accum_steps * batch_size pairs per optimizer step must equal one
        // optimizer step over a batch of that full size (same grads up to
        // f32 summation order). Dropout off: mask draws are keyed by
        // micro-batch number, so the groupings would sample different masks.
        let (graphs, pairs) = toy_dataset();
        let model_cfg = Hw2VecConfig {
            dropout: 0.0,
            ..Hw2VecConfig::default()
        };
        let base = quick_cfg(3);
        let mut small = TrainEngine::new(
            Hw2Vec::new(model_cfg.clone(), 63),
            EngineConfig {
                train: TrainConfig {
                    batch_size: 4,
                    ..base.train.clone()
                },
                accum_steps: 2,
                ..base.clone()
            },
        );
        let mut big = TrainEngine::new(
            Hw2Vec::new(model_cfg, 63),
            EngineConfig {
                train: TrainConfig {
                    batch_size: 8,
                    ..base.train.clone()
                },
                accum_steps: 1,
                ..base
            },
        );
        let rs = small.run(&graphs, &pairs, None).expect("runs").clone();
        let rb = big.run(&graphs, &pairs, None).expect("runs").clone();
        for (a, b) in rs.epochs.iter().zip(&rb.epochs) {
            assert!(
                (a.mean_loss - b.mean_loss).abs() < 1e-3,
                "epoch {}: accumulated {} vs large-batch {}",
                a.epoch,
                a.mean_loss,
                b.mean_loss
            );
        }
    }

    #[test]
    fn lr_schedules_shape_the_rate() {
        assert_eq!(LrSchedule::Constant.lr_at(0.1, 7, 10), 0.1);
        let step = LrSchedule::StepDecay {
            every: 2,
            factor: 0.5,
        };
        assert_eq!(step.lr_at(0.1, 0, 10), 0.1);
        assert_eq!(step.lr_at(0.1, 1, 10), 0.1);
        assert!((step.lr_at(0.1, 2, 10) - 0.05).abs() < 1e-9);
        assert!((step.lr_at(0.1, 4, 10) - 0.025).abs() < 1e-9);
        let cos = LrSchedule::CosineAnneal { min_lr: 0.01 };
        assert!((cos.lr_at(0.1, 0, 10) - 0.1).abs() < 1e-6);
        assert!((cos.lr_at(0.1, 9, 10) - 0.01).abs() < 1e-6);
        let mid = cos.lr_at(0.1, 4, 10);
        assert!(mid < 0.1 && mid > 0.01, "mid lr {mid}");
    }

    #[test]
    fn early_stopping_restores_best_params() {
        let (graphs, pairs) = toy_dataset();
        let (train_p, val_p) = pairs.split_at(pairs.len() - 8);
        let mut cfg = quick_cfg(60);
        cfg.train.lr = 0.05;
        cfg.patience = 2;
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 64), cfg.clone());
        let report = engine
            .run(&graphs, train_p, Some(val_p))
            .expect("runs")
            .clone();
        assert!(report.epochs.len() < 60, "never stopped early");
        let final_val = validation_loss(engine.model(), &graphs, val_p, cfg.train.margin);
        let best_seen = report
            .epochs
            .iter()
            .filter_map(|e| e.val_loss)
            .fold(f32::INFINITY, f32::min);
        assert!(
            (final_val - best_seen).abs() < 1e-4,
            "restored {final_val} vs best {best_seen}"
        );
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let (graphs, pairs) = toy_dataset();
        let cfg = quick_cfg(6);

        // uninterrupted reference
        let mut full = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 65), cfg.clone());
        let full_report = full.run(&graphs, &pairs, None).expect("runs").clone();

        // train 3 epochs, checkpoint to bytes, resume, finish
        let mut half_cfg = cfg.clone();
        half_cfg.train.epochs = 3;
        let mut half = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 65), half_cfg);
        half.run(&graphs, &pairs, None).expect("runs");
        let mut ckpt = half.clone();
        ckpt.cfg = cfg.clone(); // widen the epoch budget back to 6
        let bytes = ckpt.checkpoint_bytes();
        let mut resumed = TrainEngine::from_checkpoint_bytes(&bytes, cfg).expect("resumes");
        assert_eq!(resumed.next_epoch(), 3);
        let resumed_report = resumed.run(&graphs, &pairs, None).expect("runs").clone();

        // the first post-checkpoint epoch (and all later ones) match the
        // uninterrupted trajectory bit for bit
        assert_eq!(full_report.epochs.len(), resumed_report.epochs.len());
        for (a, b) in full_report.epochs.iter().zip(&resumed_report.epochs) {
            assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "epoch {} diverged: {} vs {}",
                a.epoch,
                a.mean_loss,
                b.mean_loss
            );
        }
        let e_full = full.into_model().embed(&graphs[0]);
        let e_res = resumed.into_model().embed(&graphs[0]);
        assert_eq!(e_full, e_res, "final weights diverged");
    }

    #[test]
    fn resume_after_early_stop_does_not_train_further() {
        let (graphs, pairs) = toy_dataset();
        let (train_p, val_p) = pairs.split_at(pairs.len() - 8);
        let dir = std::env::temp_dir().join(format!("gnn4ip-earlystop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let mut cfg = quick_cfg(60);
        cfg.train.lr = 0.05;
        cfg.patience = 2;
        cfg.checkpoint_every = 1;
        cfg.checkpoint_path = Some(path.clone());
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 71), cfg.clone());
        let report = engine
            .run(&graphs, train_p, Some(val_p))
            .expect("runs")
            .clone();
        assert!(report.epochs.len() < 60, "never stopped early");
        let weights_after = engine.model().to_bytes();

        // the checkpoint carries the stop: a resumed engine must not run
        // any additional epochs, and must restore the same best weights
        let mut resumed = TrainEngine::resume(&path, cfg).expect("loads");
        let resumed_report = resumed
            .run(&graphs, train_p, Some(val_p))
            .expect("runs")
            .clone();
        assert_eq!(
            resumed_report.epochs.len(),
            report.epochs.len(),
            "resume trained past the early stop"
        );
        assert_eq!(resumed.model().to_bytes(), weights_after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_config_drift() {
        let (graphs, pairs) = toy_dataset();
        let cfg = quick_cfg(4);
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 66), cfg.clone());
        engine.run(&graphs, &pairs, None).expect("runs");
        let bytes = engine.checkpoint_bytes();
        let mut drifted = cfg;
        drifted.train.seed ^= 1;
        let err = TrainEngine::from_checkpoint_bytes(&bytes, drifted).expect_err("must reject");
        assert!(err.contains("different engine config"), "{err}");
    }

    #[test]
    fn periodic_checkpoints_land_on_disk() {
        let (graphs, pairs) = toy_dataset();
        let dir = std::env::temp_dir().join(format!("gnn4ip-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let mut cfg = quick_cfg(4);
        cfg.checkpoint_every = 2;
        cfg.checkpoint_path = Some(path.clone());
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 67), cfg.clone());
        engine.run(&graphs, &pairs, None).expect("runs");
        let resumed = TrainEngine::resume(&path, cfg).expect("loads");
        assert_eq!(resumed.next_epoch(), 4);
        assert_eq!(resumed.report().epochs.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reference gradients: one tape per pair, averaged over `pairs` — the
    /// formulation the shared-tape micro-batch must reproduce. Eval mode,
    /// so only meaningful for dropout-free models.
    fn per_pair_tape_gradients(
        model: &Hw2Vec,
        graphs: &[GraphInput],
        pairs: &[PairSample],
        margin: f32,
    ) -> Vec<Matrix> {
        let mut acc = GradAccum::zeros_like(model.params());
        for pair in pairs {
            let tape = Tape::new();
            let vars = model.params().inject(&tape);
            let ha = model.forward(&tape, &vars, &graphs[pair.a], &mut Mode::Eval);
            let hb = model.forward(&tape, &vars, &graphs[pair.b], &mut Mode::Eval);
            let loss = cosine_embedding_loss(ha.cosine(hb), pair.label, margin);
            acc.absorb(&tape.backward(loss), &vars);
        }
        acc.means()
    }

    #[test]
    fn shared_tape_gradients_match_v1_per_pair_tapes() {
        // one full-batch SGD step of the engine must land where the same
        // step on per-pair-tape gradients lands (dropout off: the two draw
        // masks differently by construction)
        let (graphs, pairs) = toy_dataset();
        let cfg0 = Hw2VecConfig {
            dropout: 0.0,
            ..Hw2VecConfig::default()
        };
        let mut reference = Hw2Vec::new(cfg0, 68);
        let tc = TrainConfig {
            epochs: 1,
            batch_size: pairs.len(),
            optimizer: OptimizerKind::Sgd,
            lr: 0.01,
            threads: 1,
            grad_clip: 0.0,
            ..TrainConfig::default()
        };
        let mut engine = TrainEngine::new(
            reference.clone(),
            EngineConfig {
                train: tc.clone(),
                ..EngineConfig::default()
            },
        );
        let grads = per_pair_tape_gradients(&reference, &graphs, &pairs, tc.margin);
        Sgd::new(tc.lr).step(reference.params_mut(), &grads);
        engine.run(&graphs, &pairs, None).expect("runs");
        let (e1, e2) = (
            reference.embed(&graphs[0]),
            engine.model().embed(&graphs[0]),
        );
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-5, "{e1:?} vs {e2:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no training pairs")]
    fn empty_pairs_panics() {
        let (graphs, _) = toy_dataset();
        let mut engine = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), 69), quick_cfg(1));
        let _ = engine.run(&graphs, &[], None);
    }
}
