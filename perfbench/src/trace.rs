//! The traced run: the same inputs pushed through the stage functions
//! of `hdl`, `dfg`, `nn`, `eval` and `core` one by one, on one thread,
//! with a span around each call. Layer shares are therefore CPU-time
//! shares. Spans are kept in memory and written out at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use gnn4ip_core::{AuditConfig, AuditPipeline};
use gnn4ip_dfg::{extract, trim};
use gnn4ip_eval::{QueryOptions, QueryStats, ShardedEmbeddingIndex};
use gnn4ip_hdl::{flatten, lex, parse, preprocess, IncludeMap};
use gnn4ip_nn::{GraphInput, TrainEngine};

use crate::batch::{sources, suspect_sources};
use crate::check::{self, Expected};
use crate::gen::{Named, RequestStream, Suspect};
use crate::serve::{session, Pace, WINDOW};
use crate::setup::{self, Trained};
use crate::stats::{median, percentile, sorted};
use crate::{Ctx, Outcome};

/// Suspects pushed through the traced stage path.
const TRACED: usize = 400;
/// Requests of the traced service session.
const SERVICE_REQUESTS: usize = 1_000;
/// Repetitions of each persistence operation (median reported).
const PERSIST_REPS: usize = 3;

/// One timed call. Spans of one suspect share `request`; `parent` is the
/// span that caused it (`None` for the root).
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    fn begin(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` as a child span of `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Total duration of all spans named `name`, in microseconds.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .sum()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        f.flush()
    }
}

/// Dense multiply-accumulates of one hw2vec forward pass, computed from
/// the graph's shape: the first GCN layer gathers one-hot rows and
/// propagates (`nnz·H`), each later layer adds a dense `n·H·H` transform
/// plus propagation, and the pooling scorer costs `n·H + nnz`.
fn embed_macs(g: &GraphInput, hidden: usize, layers: usize) -> f64 {
    let (n, z, h) = (g.node_count() as f64, g.adj.nnz() as f64, hidden as f64);
    layers as f64 * z * h + (layers as f64 - 1.0) * n * h * h + n * h + z
}

/// What the traced stage path produced per suspect.
struct Traced {
    wall_s: f64,
    embeddings: Vec<Vec<f32>>,
    nodes: f64,
    removed: f64,
    before: f64,
    macs: f64,
    stats: Vec<QueryStats>,
}

fn traced_pass(
    tracer: &mut Tracer,
    pipeline: &AuditPipeline,
    suspects: &[Suspect],
    refs: &[Expected],
    out: &mut Outcome,
) -> Result<Traced, String> {
    let snapshot = pipeline.snapshot();
    let model = pipeline.detector().model();
    let (hidden, layers) = (model.config().hidden, model.config().layers);
    let config = pipeline.config().clone();
    let includes = IncludeMap::new();
    let mut t = Traced {
        wall_s: 0.0,
        embeddings: Vec::new(),
        nodes: 0.0,
        removed: 0.0,
        before: 0.0,
        macs: 0.0,
        stats: Vec::new(),
    };
    let start = Instant::now();
    for (c, chunk) in suspects.chunks(config.batch_size).enumerate() {
        let root = tracer.begin("core.audit_batch", c, None);
        let mut graphs = Vec::with_capacity(chunk.len());
        for (j, s) in chunk.iter().enumerate() {
            let req = c * config.batch_size + j;
            let id = tracer.begin("core.audit", req, Some(root));
            let err = |e: gnn4ip_hdl::ParseVerilogError| format!("{}: {e}", s.name);
            let pre = tracer
                .span("hdl.preprocess", req, id, || {
                    preprocess(&s.source, &includes)
                })
                .map_err(err)?;
            tracer.span("hdl.lex", req, id, || lex(&pre)).map_err(err)?;
            let unit = tracer
                .span("hdl.parse", req, id, || parse(&pre))
                .map_err(err)?;
            let top = unit
                .top_module()
                .ok_or("suspect has no module")?
                .name
                .clone();
            let flat = tracer
                .span("hdl.flatten", req, id, || flatten(&unit, &top))
                .map_err(err)?;
            let mut g = tracer.span("dfg.extract", req, id, || extract(&flat));
            let before = g.node_count();
            tracer.span("dfg.trim", req, id, || trim(&mut g));
            t.before += before as f64;
            t.removed += (before - g.node_count()) as f64;
            t.nodes += g.node_count() as f64;
            let gi = tracer.span("nn.graph_input", req, id, || GraphInput::from_dfg(&g));
            t.macs += embed_macs(&gi, hidden, layers);
            graphs.push(gi);
            tracer.end(id);
        }
        let embeddings = tracer.span("nn.embed", c, root, || model.embed_batch(&graphs));
        let results = tracer.span("eval.query", c, root, || {
            snapshot
                .index()
                .query_many(&embeddings, config.top_k, &config.query)
        });
        tracer.end(root);
        for (j, (hits, stats)) in results.into_iter().enumerate() {
            let i = c * config.batch_size + j;
            t.stats.push(stats);
            if let Some(r) = refs.get(i) {
                let best = hits
                    .first()
                    .map(|h| (snapshot.try_name_of(h.label).unwrap_or("?"), h.score));
                let same = hits.len() == r.matches
                    && match (best, &r.best) {
                        (Some((n, s)), Some((rn, rs))) => n == rn && s.to_bits() == rs.to_bits(),
                        (None, None) => true,
                        _ => false,
                    };
                out.count(
                    1,
                    u64::from(!same),
                    "traced stage path disagrees with the serial path",
                );
            }
        }
        t.embeddings.extend(embeddings);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    Ok(t)
}

fn median_ms(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(PERSIST_REPS);
    for _ in 0..PERSIST_REPS {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times).expect("repetitions ran"))
}

pub fn run(
    ctx: &Ctx,
    trained: &Trained,
    corpus: &[Named],
    suspects: &[Suspect],
    out: &mut Outcome,
) -> Result<(), String> {
    let config = AuditConfig {
        threads: 1,
        query: QueryOptions {
            threads: 1,
            ..setup::audit_config().query
        },
        ..setup::audit_config()
    };
    let mut pipeline = setup::pipeline(trained, config.clone());
    let t = Instant::now();
    let ingested = pipeline.ingest(sources(corpus)).ingested;
    let ingest_us = t.elapsed().as_secs_f64() * 1e6 / ingested.max(1) as f64;
    out.count(
        corpus.len() as u64,
        (corpus.len() - ingested) as u64,
        "corpus ingest rejected designs",
    );

    let suspects = &suspects[..TRACED.min(suspects.len())];
    let refs = check::reference(&pipeline, suspects)?;
    let mut tracer = Tracer::new();
    let traced = traced_pass(&mut tracer, &pipeline, suspects, &refs, out)?;
    let n = suspects.len() as f64;

    // the same suspects through the untraced single-thread audit_many
    let snapshot = pipeline.snapshot();
    let batch = suspect_sources(suspects);
    let t = Instant::now();
    let (verdicts, _) = snapshot.audit_many(&batch);
    let untraced_s = t.elapsed().as_secs_f64();
    let bad = verdicts
        .iter()
        .zip(&refs)
        .filter(|(v, r)| !v.as_ref().is_some_and(|v| check::same(r, v)))
        .count();
    out.count(
        verdicts.len() as u64,
        bad as u64,
        "untraced audit_many disagrees with the serial path",
    );

    // eval.insert: the traced embeddings into a fresh index, repeated to
    // a few thousand rows so the per-row time is not timer noise
    let dim = pipeline.index().dim();
    let mut index = ShardedEmbeddingIndex::with_storage(dim, config.shard_capacity, config.storage);
    let rounds = 10_000usize.div_ceil(traced.embeddings.len().max(1));
    let t = Instant::now();
    for r in 0..rounds {
        for (i, e) in traced.embeddings.iter().enumerate() {
            index.insert(e, r * traced.embeddings.len() + i);
        }
    }
    let insert_us = t.elapsed().as_secs_f64() * 1e6 / index.len().max(1) as f64;

    // persistence of the whole corpus index
    let path = ctx.work.0.join("audit-index.bin");
    let save_ms = median_ms(|| pipeline.save_index(&path).map_err(|e| e.to_string()))?;
    let mut reload = setup::pipeline(trained, config.clone());
    let load_ms = median_ms(|| {
        reload
            .load_index(&path)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    out.count(
        1,
        u64::from(reload.len() != pipeline.len()),
        "reloaded index lost designs",
    );

    // training checkpoint write/reload
    let engine = TrainEngine::new(trained.detector.model().clone(), trained.engine.clone());
    let ckpt = ctx.work.0.join("checkpoint.bin");
    let write_ms = median_ms(|| engine.save_checkpoint(&ckpt))?;
    let read_ms = median_ms(|| TrainEngine::resume(&ckpt, trained.engine.clone()).map(|_| ()))?;

    // a short closed-loop service session over the traced suspects
    let mut requests = RequestStream::new(ctx.seed, suspects.len());
    let svc = session(
        &mut pipeline,
        &mut requests,
        suspects,
        &refs,
        ctx.seed,
        Pace::Closed(WINDOW),
        Duration::from_secs(60),
        SERVICE_REQUESTS,
    )?;
    out.attempted += svc.sent;
    out.failed += svc.failed;
    out.errors.extend(svc.errors.iter().cloned());
    let client_p50_us = percentile(&sorted(&svc.audit_ms), 50.0).unwrap_or(f64::NAN) * 1e3;

    let rows: f64 = traced.stats.iter().map(|s| s.rows_scanned as f64).sum();
    let rescored: f64 = traced.stats.iter().map(|s| s.rows_rescored as f64).sum();
    let shards: f64 = traced.stats.iter().map(|s| s.sealed_shards as f64).sum();
    let pruned: f64 = traced.stats.iter().map(|s| s.sealed_pruned as f64).sum();
    let m = &mut out.metrics;
    m.set("hdl.preprocess.us", tracer.total_us("hdl.preprocess") / n);
    m.set("hdl.lex.us", tracer.total_us("hdl.lex") / n);
    m.set(
        "hdl.parse.us",
        (tracer.total_us("hdl.parse") - tracer.total_us("hdl.lex")) / n,
    );
    m.set("hdl.flatten.us", tracer.total_us("hdl.flatten") / n);
    m.set("dfg.extract.us", tracer.total_us("dfg.extract") / n);
    m.set("dfg.trim.us", tracer.total_us("dfg.trim") / n);
    m.set("dfg.nodes", traced.nodes / n);
    m.set(
        "dfg.trim.removed_ratio",
        traced.removed / traced.before.max(1.0),
    );
    m.set("nn.graph_input.us", tracer.total_us("nn.graph_input") / n);
    m.set("nn.embed.us", tracer.total_us("nn.embed") / n);
    m.set("tensor.embed.macs", traced.macs / n);
    m.set("eval.query.us", tracer.total_us("eval.query") / n);
    m.set("eval.query.rows_scanned", rows / n);
    m.set("eval.query.prune_ratio", pruned / shards.max(1.0));
    m.set("eval.query.rescore_ratio", rescored / rows.max(1.0));
    m.set("eval.query.bytes_scanned", rows * dim as f64 * 4.0 / n);
    m.set("tensor.query.flops", 2.0 * rows * dim as f64 / n);
    m.set("eval.insert.us", insert_us);
    m.set("core.ingest.us", ingest_us);
    m.set("core.persist.save_ms", save_ms);
    m.set("core.persist.load_ms", load_ms);
    m.set(
        "core.service.queue_high_water",
        svc.report.queue_high_water as f64,
    );
    m.set(
        "core.service.internal_p50_us",
        svc.report.latency.p50_us as f64,
    );
    m.set(
        "core.service.internal_p99_us",
        svc.report.latency.p99_us as f64,
    );
    m.set(
        "core.service.client_overhead_us",
        client_p50_us - svc.report.latency.p50_us as f64,
    );
    m.set("nn.train.us_per_pair", 1e6 / trained.pairs_per_cpu_s());
    m.set("nn.checkpoint.write_ms", write_ms);
    m.set("nn.checkpoint.load_ms", read_ms);
    m.set("trace.traced_audits_per_s", n / traced.wall_s);
    m.set("trace.untraced_audits_per_s", n / untraced_s);
    m.set(
        "trace.overhead_ratio",
        (n / untraced_s) / (n / traced.wall_s),
    );

    let spans = trace_path(ctx);
    tracer
        .write(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let d = &mut out.details;
    d.num("traced_suspects", n);
    d.num("spans", tracer.spans.len() as f64);
    d.text("spans_file", &spans.display().to_string());
    d.num("service.requests", svc.sent as f64);
    d.num("service.client_p50_us", client_p50_us);
    Ok(())
}

/// Where the span log of a traced run goes: beside the build output.
fn trace_path(ctx: &Ctx) -> std::path::PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    Path::new(&base)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", ctx.workload, ctx.seed))
}
