//! `scan_rtl` and `netlist_obf`: a measured corpus ingest, then rounds
//! of audits through `AuditSnapshot::audit_many` (the path `gnn4ip audit`
//! uses), one batch per call, and single-design writes.

use std::time::Instant;

use gnn4ip_core::{AuditPipeline, AuditSource};
use gnn4ip_data::{Level, SynthSize};

use crate::check::{self, Judgement, Quality};
use crate::gen::{self, stream, Named, Suspect};
use crate::report::{peak_rss_mb, process_cpu_s};
use crate::setup::{self, Trained};
use crate::stats::{median, percentile, sorted};
use crate::{Ctx, Outcome};

/// Sizes of one batch workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub level: Level,
    /// Designs ingested in the measured write phase.
    pub corpus: usize,
    /// Disguised variants audited per pass.
    pub suspects: usize,
    /// Variants whose verdicts are checked against the serial path.
    pub checked: usize,
    /// Single-design writes available; each round writes
    /// `writes_per_round` of them until they run out.
    pub writes: usize,
    pub writes_per_round: usize,
}

pub const SCAN: Shape = Shape {
    level: Level::Rtl,
    corpus: 50_000,
    suspects: 3_000,
    checked: 200,
    writes: 800,
    writes_per_round: 40,
};

pub const NETLIST: Shape = Shape {
    level: Level::Netlist,
    corpus: 600,
    suspects: 1_200,
    checked: 100,
    writes: 400,
    writes_per_round: 20,
};

/// Rounds run even when `--seconds` is short.
const MIN_ROUNDS: usize = 4;
/// Name prefix of designs written during the run.
const WRITE_PREFIX: &str = "w";

pub struct Inputs {
    pub trained: Trained,
    pub corpus: Vec<Named>,
    pub suspects: Vec<Suspect>,
    pub writes: Vec<Named>,
}

pub fn setup(ctx: &Ctx, shape: Shape) -> Result<Inputs, String> {
    let trained = setup::train(shape.level, &ctx.work.0.join("detector"), 0)?;
    let (corpus, writes) = match shape.level {
        Level::Rtl => (
            gen::rtl_corpus(
                ctx.seed,
                stream::CORPUS,
                "d",
                shape.corpus,
                SynthSize::Small,
            ),
            gen::rtl_corpus(
                ctx.seed,
                stream::WRITES,
                WRITE_PREFIX,
                shape.writes,
                SynthSize::Small,
            ),
        ),
        Level::Netlist => {
            let mut all =
                gen::netlist_corpus(ctx.seed, shape.corpus + shape.writes, gen::NETLIST_GATES);
            let mut writes = all.split_off(shape.corpus);
            for (i, w) in writes.iter_mut().enumerate() {
                w.name = format!("{WRITE_PREFIX}{i}");
            }
            (all, writes)
        }
    };
    let suspects = gen::suspects(ctx.seed, &corpus, shape.suspects, shape.level);
    Ok(Inputs {
        trained,
        corpus,
        suspects,
        writes,
    })
}

pub fn sources(designs: &[Named]) -> impl Iterator<Item = AuditSource> + '_ {
    designs
        .iter()
        .map(|d| AuditSource::new(d.name.clone(), d.source.clone(), None))
}

pub fn suspect_sources(suspects: &[Suspect]) -> Vec<AuditSource> {
    suspects
        .iter()
        .map(|s| AuditSource::new(s.name.clone(), s.source.clone(), None))
        .collect()
}

pub fn run(ctx: &Ctx, shape: Shape, inputs: Inputs, out: &mut Outcome) -> Result<(), String> {
    let Inputs {
        mut trained,
        corpus,
        suspects,
        writes,
    } = inputs;

    // netlist_obf measures training itself: the paper's train-time column
    // and the checkpoint write/reload path, which must reproduce the
    // set-up detector bit for bit
    if shape.level == Level::Netlist {
        let again = setup::train_on(
            trained.corpus.clone(),
            shape.level,
            &ctx.work.0.join("retrain"),
            1,
        )?;
        let (a, b) = (
            again.detector.model().weights_checksum(),
            trained.detector.model().weights_checksum(),
        );
        out.count(
            1,
            u64::from(a != b),
            "checkpointed retraining diverged from set-up",
        );
        out.details.num(
            "train_checkpointed_pairs_per_cpu_s",
            again.pairs_per_cpu_s(),
        );
        trained.pair_rates.extend(again.pair_rates);
    }

    let mut pipeline = setup::pipeline(&trained, setup::audit_config());
    let mut ingest = IngestRates::default();
    ingest.time(&mut pipeline, &corpus, out);

    let checked = &suspects[..shape.checked.min(suspects.len())];
    let refs = check::reference(&pipeline, checked)?;
    let batch = suspect_sources(&suspects);

    // Rounds of [one pass over every suspect in `audit_many` calls of one
    // batch each, then single-design writes, then (small corpora only) a
    // throwaway corpus ingest], repeated for `--seconds`:
    // interleaving spreads both kinds of measurement over the whole run.
    let run = Instant::now();
    let mut quality = Quality::default();
    let mut pass_rates = Vec::new();
    let mut cpu_rates = Vec::new();
    let mut call_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut displaced = 0u64;
    let mut pending_writes = writes.iter();
    let per_call = setup::audit_config().batch_size;
    while pass_rates.len() < MIN_ROUNDS || run.elapsed().as_secs_f64() < ctx.seconds {
        // the pipeline's writes since the last round become visible here
        let snapshot = pipeline.snapshot();
        let pass = Instant::now();
        let cpu = process_cpu_s();
        let mut failed = 0u64;
        for (c, calls) in batch.chunks(per_call).enumerate() {
            let t = Instant::now();
            let (verdicts, _) = snapshot.audit_many(calls);
            call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (j, v) in verdicts.iter().enumerate() {
                let i = c * per_call + j;
                let Some(v) = v else {
                    failed += 1;
                    continue;
                };
                if pass_rates.is_empty() {
                    quality.add(
                        v.best().map(|m| m.name.as_str()),
                        v.piracy,
                        &suspects[i].origin,
                    );
                }
                match refs.get(i).map(|r| check::judge(r, v, WRITE_PREFIX)) {
                    Some(Judgement::Mismatch) => failed += 1,
                    Some(Judgement::Displaced) => displaced += 1,
                    _ => {}
                }
            }
        }
        pass_rates.push(batch.len() as f64 / pass.elapsed().as_secs_f64());
        cpu_rates.push(batch.len() as f64 / (process_cpu_s() - cpu));
        out.count(
            batch.len() as u64,
            failed,
            "audit_many verdicts missing or unlike the serial path",
        );

        for w in pending_writes.by_ref().take(shape.writes_per_round) {
            let t = Instant::now();
            let r = pipeline.ingest(std::iter::once(AuditSource::new(
                w.name.clone(),
                w.source.clone(),
                None,
            )));
            write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.count(
                1,
                u64::from(r.ingested != 1),
                "single-design ingest rejected",
            );
        }
        ingest.round(
            || setup::pipeline(&trained, setup::audit_config()),
            &corpus,
            out,
        );
    }

    let calls = sorted(&call_ms);
    let wr = sorted(&write_ms);
    let m = &mut out.metrics;
    m.set("audits_per_cpu_s", median(&cpu_rates).unwrap_or(f64::NAN));
    m.set("ingest_designs_per_cpu_s", ingest.per_cpu_s());
    m.set("train_pairs_per_cpu_s", trained.pairs_per_cpu_s());
    m.set("detector_accuracy", trained.accuracy);
    m.set("flag_rate", quality.flag_rate());
    m.set("recall_at_1", quality.recall());
    m.set("peak_rss_mb", peak_rss_mb());

    let d = &mut out.details;
    d.num("corpus_designs", corpus.len() as f64);
    d.num("suspects", suspects.len() as f64);
    d.num("checked_against_serial", refs.len() as f64);
    d.num("rounds", pass_rates.len() as f64);
    d.num("displaced_by_writes", displaced as f64);
    // wall-clock figures: recorded, not gated (see LAYERS.md)
    d.num("audits_per_s", median(&pass_rates).unwrap_or(f64::NAN));
    d.num(
        "audit_call_p50_ms",
        percentile(&calls, 50.0).unwrap_or(f64::NAN),
    );
    d.num("write_p50_ms", percentile(&wr, 50.0).unwrap_or(f64::NAN));
    d.num("ingest_designs_per_s", ingest.per_s());
    d.num("ingest_samples", ingest.samples() as f64);
    d.num("train_pairs_per_s", trained.pairs_per_s());
    d.num("suspects_per_audit_call", per_call as f64);
    d.num("audit_call_samples", calls.len() as f64);
    d.num(
        "audit_call_p90_ms",
        percentile(&calls, 90.0).unwrap_or(f64::NAN),
    );
    d.num("write_latency_samples", wr.len() as f64);
    Ok(())
}

/// Throughput samples of whole-corpus ingests: each sample is one
/// `AuditPipeline::ingest` call of the whole corpus, timed in wall and in
/// process CPU time. Rates are medians over the samples.
#[derive(Default)]
pub struct IngestRates {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl IngestRates {
    /// Ingests `corpus` into `target` in one call and records its rates.
    pub fn time(&mut self, target: &mut AuditPipeline, corpus: &[Named], out: &mut Outcome) {
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let r = target.ingest(sources(corpus));
        let (wall, cpu) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
        out.count(
            corpus.len() as u64,
            r.rejected.len() as u64,
            "corpus ingest rejected designs",
        );
        self.cpu.push(r.ingested as f64 / cpu);
        self.wall.push(r.ingested as f64 / wall);
    }

    /// Designs per CPU second of this process.
    pub fn per_cpu_s(&self) -> f64 {
        median(&self.cpu).unwrap_or(f64::NAN)
    }

    /// Designs per wall second.
    pub fn per_s(&self) -> f64 {
        median(&self.wall).unwrap_or(f64::NAN)
    }

    /// Called once per measured round: re-ingests a small corpus into a
    /// throwaway pipeline from `fresh`, for one more sample.
    pub fn round(
        &mut self,
        fresh: impl FnOnce() -> AuditPipeline,
        corpus: &[Named],
        out: &mut Outcome,
    ) {
        if corpus.len() < SMALL_CORPUS {
            self.time(&mut fresh(), corpus, out);
        }
    }

    pub fn samples(&self) -> usize {
        self.cpu.len()
    }
}

/// Corpora below this many designs take about a second to ingest, too
/// short for one timing to be steady on a shared host: they are ingested
/// again into a throwaway pipeline once per measured round, so the
/// samples spread over the whole run and the median drops a stretch of
/// host interference.
const SMALL_CORPUS: usize = 10_000;
