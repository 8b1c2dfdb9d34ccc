//! `serve_rtl`: the audit service over an in-process socket pair.
//!
//! One client connection, driven by two client threads (a writer and a
//! reader). Phase A is a closed loop with a fixed in-flight window and
//! gives throughput; phase B is an open loop at a fixed rate, timed from
//! each request's due time, and gives latency.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gnn4ip_core::{run_service, AuditPipeline, ServiceConfig, ServiceReport};
use gnn4ip_data::{Level, SynthSize};

use crate::batch::IngestRates;
use crate::check::{self, Expected, Judgement, Quality};
use crate::gen::{self, stream, Named, Request, RequestStream, Suspect};
use crate::report::{peak_rss_mb, process_cpu_s};
use crate::setup::{self, Trained};
use crate::stats::{beyond, median, percentile, sorted, window_rates, windowed_percentile};
use crate::{Ctx, Outcome};

/// Small RTL designs in the served corpus.
const CORPUS_SMALL: usize = 3000;
/// Medium RTL designs in the corpus; the audited suspects disguise them.
const CORPUS_MEDIUM: usize = 1800;
/// Suspect pool: one disguised variant of each Medium design (recall is
/// a mean over source designs, so its run-to-run spread shrinks with
/// their number).
const POOL: usize = 1800;
/// Name prefix of the designs the request stream INGESTs (`gen::trickle_name`).
const TRICKLE_PREFIX: &str = "trickle";
/// Requests in flight in the closed loop.
pub const WINDOW: usize = 32;
/// Open-loop request rate, well below the closed-loop knee.
const OPEN_RATE: f64 = 400.0;
/// Share of the run spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.5;
/// Closed/open round pairs per run.
const ROUNDS: usize = 6;
/// Closed-loop throughput is the median over windows of this length.
const RATE_WINDOW_S: f64 = 0.25;
/// p99 lateness of the open-loop generator beyond which a round's
/// latencies are not counted: a thread that only sleeps and wakes ran
/// late because the host starved the benchmark.
const LATE_LIMIT_MS: f64 = 2.0;
/// Open-loop tail latency is the median of the p99s of consecutive
/// chunks of this many audits (each chunk has ten samples beyond p99).
const TAIL_CHUNK: usize = 1000;

pub struct Inputs {
    pub trained: Trained,
    pub corpus: Vec<Named>,
    pub pool: Vec<Suspect>,
}

pub fn setup(ctx: &Ctx) -> Result<Inputs, String> {
    let trained = setup::train(Level::Rtl, &ctx.work.0.join("detector"), 0)?;
    let mut corpus = gen::rtl_corpus(
        ctx.seed,
        stream::CORPUS,
        "s",
        CORPUS_SMALL,
        SynthSize::Small,
    );
    let sources = gen::rtl_corpus(
        ctx.seed,
        stream::SOURCES,
        "m",
        CORPUS_MEDIUM,
        SynthSize::Medium,
    );
    let pool = gen::suspects(ctx.seed, &sources, POOL, Level::Rtl);
    corpus.extend(sources);
    // interleave the sizes so every timed ingest chunk sees the same mix
    gen::shuffle(&mut corpus, ctx.seed);
    Ok(Inputs {
        trained,
        corpus,
        pool,
    })
}

/// How the writer paces requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// At most this many requests awaiting a response.
    Closed(usize),
    /// One request every `1/rate` seconds, regardless of responses.
    Open(f64),
}

/// What one service session measured, from the client's side.
#[derive(Debug, Default)]
pub struct Session {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Verdicts whose best match was a design ingested during the run
    /// that outranked the reference (legitimate, not a failure).
    pub displaced: u64,
    pub audit_ms: Vec<f64>,
    /// When each audit response arrived, seconds into the session.
    pub audit_done_s: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// How late the writer sent each request against its schedule (open
    /// loop only).
    pub late_ms: Vec<f64>,
    pub wall_s: f64,
    pub quality: Quality,
    pub report: ServiceReport,
    pub errors: Vec<String>,
}

/// Per-request bookkeeping handed from the writer to the reader.
struct Sent {
    req: Option<Request>,
    start: Instant,
}

/// Runs one `run_service` session on `pipeline` until `duration` has
/// passed (or `limit` requests were sent), then sends `SHUTDOWN`.
#[allow(clippy::too_many_arguments)]
pub fn session(
    pipeline: &mut AuditPipeline,
    requests: &mut RequestStream,
    pool: &[Suspect],
    refs: &[Expected],
    seed: u64,
    pace: Pace,
    duration: Duration,
    limit: usize,
) -> Result<Session, String> {
    let (client, server) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
    let server_in = server
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    let client_in = client
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(WINDOW.max(1) * 2);
    if let Pace::Closed(window) = pace {
        for _ in 0..window {
            credit_tx
                .send(())
                .map_err(|_| "credit channel closed".to_string())?;
        }
    }
    let config = ServiceConfig {
        workers: setup::THREADS,
        ..ServiceConfig::default()
    };

    std::thread::scope(|scope| {
        let service = scope.spawn(move || {
            let out = run_service(pipeline, &config, BufReader::new(server_in), &server);
            // closing the server end ends the reader's stream
            let _ = server.shutdown(std::net::Shutdown::Both);
            out
        });

        let writer = scope.spawn(move || -> Result<(u64, Vec<f64>), String> {
            let mut client = client;
            let t0 = Instant::now();
            let mut late = Vec::new();
            let mut sent = 0u64;
            let mut buf = String::new();
            while t0.elapsed() < duration && (sent as usize) < limit {
                let start = match pace {
                    Pace::Closed(_) => {
                        if credit_rx.recv().is_err() {
                            break;
                        }
                        Instant::now()
                    }
                    Pace::Open(rate) => {
                        let due = t0 + Duration::from_secs_f64(sent as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        late.push(due.elapsed().as_secs_f64() * 1e3);
                        due
                    }
                };
                let req = requests.next().expect("the request stream is endless");
                buf.clear();
                gen::render(&mut buf, req, seed, pool);
                if sent_tx
                    .send(Sent {
                        req: Some(req),
                        start,
                    })
                    .is_err()
                {
                    break;
                }
                client
                    .write_all(buf.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                sent += 1;
            }
            let _ = sent_tx.send(Sent {
                req: None,
                start: Instant::now(),
            });
            client
                .write_all(b"SHUTDOWN\n")
                .map_err(|e| format!("send: {e}"))?;
            Ok((sent, late))
        });

        let reader = scope.spawn(move || {
            let t0 = Instant::now();
            let mut s = Session::default();
            let mut lines = BufReader::new(client_in).lines();
            let mut last_response = t0;
            while let Ok(item) = sent_rx.recv() {
                let Some(Ok(line)) = lines.next() else {
                    // the service hung up: this and every later request
                    // is missing its response
                    s.failed += 1 + sent_rx.try_iter().filter(|x| x.req.is_some()).count() as u64;
                    s.errors
                        .push("service closed the connection early".to_string());
                    break;
                };
                let ms = item.start.elapsed().as_secs_f64() * 1e3;
                last_response = Instant::now();
                let _ = credit_tx.try_send(());
                let ok = match item.req {
                    None => {
                        if line != "OK bye" {
                            s.errors.push(format!("shutdown answered {line:?}"));
                        }
                        break;
                    }
                    Some(Request::Audit(i)) => {
                        s.audit_ms.push(ms);
                        s.audit_done_s.push(t0.elapsed().as_secs_f64());
                        let parsed = check::parse_line(&line);
                        s.quality.add(
                            parsed.map(|p| p.0),
                            parsed.is_some_and(|p| p.1),
                            &pool[i].origin,
                        );
                        match check::judge_line(&refs[i], &pool[i].name, &line, TRICKLE_PREFIX) {
                            Judgement::Same => true,
                            Judgement::Displaced => {
                                s.displaced += 1;
                                true
                            }
                            Judgement::Mismatch => {
                                s.errors.push(format!(
                                    "expected {:?}, got {line:?}",
                                    refs[i].line(&pool[i].name)
                                ));
                                false
                            }
                        }
                    }
                    Some(Request::Ingest(_)) => {
                        s.write_ms.push(ms);
                        line.starts_with("OK ingested=") && line.ends_with(" rejected=0")
                    }
                    Some(Request::Publish) => {
                        s.write_ms.push(ms);
                        line.starts_with("OK epoch=")
                    }
                };
                if ok {
                    s.ok += 1;
                } else {
                    s.failed += 1;
                    if s.errors.len() < 5 && !line.starts_with("VERDICT") {
                        s.errors.push(format!("request answered {line:?}"));
                    }
                }
            }
            s.wall_s = last_response.duration_since(t0).as_secs_f64();
            s
        });

        let (sent, late) = writer.join().map_err(|_| "writer panicked".to_string())??;
        let mut s = reader.join().map_err(|_| "reader panicked".to_string())?;
        s.report = service
            .join()
            .map_err(|_| "service panicked".to_string())?
            .map_err(|e| format!("service: {e}"))?;
        s.sent = sent;
        s.late_ms = late;
        if s.ok + s.failed != sent {
            s.failed = sent - s.ok.min(sent);
            s.errors
                .push(format!("{} of {sent} requests answered", s.ok));
        }
        s.errors.truncate(5);
        Ok(s)
    })
}

pub fn run(ctx: &Ctx, inputs: Inputs, out: &mut Outcome) -> Result<(), String> {
    let Inputs {
        trained,
        corpus,
        pool,
    } = inputs;
    let mut pipeline = setup::pipeline(&trained, setup::audit_config());
    let mut ingest = IngestRates::default();
    ingest.time(&mut pipeline, &corpus, out);
    let _ = pipeline.publish();
    let refs = check::reference(&pipeline, &pool)?;
    let mut requests = RequestStream::new(ctx.seed, pool.len());

    // Rounds of [closed loop, open loop, (small corpora only) a throwaway
    // corpus ingest]: interleaving spreads every phase over the whole run,
    // so a stretch of host interference lands on a minority of each
    // phase's samples, which the medians drop.
    let closed = Duration::from_secs_f64(ctx.seconds * CLOSED_SHARE / ROUNDS as f64);
    let open = Duration::from_secs_f64(ctx.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64);
    let mut a = Vec::with_capacity(ROUNDS);
    let mut b = Vec::with_capacity(ROUNDS);
    let mut cpu_rates = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let cpu = process_cpu_s();
        a.push(session(
            &mut pipeline,
            &mut requests,
            &pool,
            &refs,
            ctx.seed,
            Pace::Closed(WINDOW),
            closed,
            usize::MAX,
        )?);
        let closed_cpu = process_cpu_s() - cpu;
        cpu_rates.extend(a.last().map(|s| s.audit_ms.len() as f64 / closed_cpu));
        b.push(session(
            &mut pipeline,
            &mut requests,
            &pool,
            &refs,
            ctx.seed,
            Pace::Open(OPEN_RATE),
            open,
            usize::MAX,
        )?);
        ingest.round(
            || setup::pipeline(&trained, setup::audit_config()),
            &corpus,
            out,
        );
    }
    // A round whose open-loop generator fell behind its schedule measured
    // the host starving the benchmark, not the service: requests are
    // timed from their due time, so the generator's own delay lands in
    // their latency. Latencies come from the rounds whose generator kept
    // within the limit (or, when none did, the least-late round).
    let rates: Vec<f64> = a
        .iter()
        .flat_map(|s| window_rates(&s.audit_done_s, RATE_WINDOW_S))
        .collect();
    let late = sorted(
        &b.iter()
            .flat_map(|s| s.late_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let round_late: Vec<f64> = b
        .iter()
        .map(|s| percentile(&sorted(&s.late_ms), 99.0).unwrap_or(0.0))
        .collect();
    let used: Vec<&Session> = b
        .iter()
        .zip(usable(&round_late))
        .filter(|(_, k)| *k)
        .map(|(s, _)| s)
        .collect();
    let open_audits: Vec<f64> = used
        .iter()
        .flat_map(|s| s.audit_ms.iter().copied())
        .collect();
    let audit = sorted(&open_audits);
    let writes = sorted(
        &used
            .iter()
            .flat_map(|s| s.write_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let mut quality = Quality::default();
    for s in a.iter().chain(&b) {
        quality.audits += s.quality.audits;
        quality.flagged += s.quality.flagged;
        quality.top1 += s.quality.top1;
    }

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
    d.num("open_rate_per_s", OPEN_RATE);
    d.num("closed_window", WINDOW as f64);
    d.num("rounds", ROUNDS as f64);
    for (phase, sessions) in [("closed", &a), ("open", &b)] {
        let sum = |f: fn(&Session) -> f64| sessions.iter().map(f).sum::<f64>();
        d.num(format!("{phase}.sent"), sum(|s| s.sent as f64));
        d.num(format!("{phase}.succeeded"), sum(|s| s.ok as f64));
        d.num(format!("{phase}.failed"), sum(|s| s.failed as f64));
        d.num(
            format!("{phase}.displaced_by_ingest"),
            sum(|s| s.displaced as f64),
        );
        d.num(format!("{phase}.audits"), sum(|s| s.audit_ms.len() as f64));
        d.num(format!("{phase}.writes"), sum(|s| s.write_ms.len() as f64));
        d.num(format!("{phase}.wall_s"), sum(|s| s.wall_s));
        let high = sessions
            .iter()
            .map(|s| s.report.queue_high_water)
            .max()
            .unwrap_or(0);
        d.num(format!("{phase}.service_queue_high_water"), high as f64);
    }
    // wall-clock figures: recorded, not gated (see LAYERS.md)
    d.num("audits_per_s", median(&rates).unwrap_or(f64::NAN));
    d.num("audit_p50_ms", percentile(&audit, 50.0).unwrap_or(f64::NAN));
    d.num(
        "write_p50_ms",
        percentile(&writes, 50.0).unwrap_or(f64::NAN),
    );
    d.num("ingest_designs_per_s", ingest.per_s());
    d.num("ingest_samples", ingest.samples() as f64);
    d.num("train_pairs_per_s", trained.pairs_per_s());
    d.num("audit_latency_samples", audit.len() as f64);
    d.num(
        "audit_p99_ms",
        windowed_percentile(&open_audits, TAIL_CHUNK, 99.0).unwrap_or(f64::NAN),
    );
    d.num("audit_samples_beyond_p99", beyond(&audit, 99.0) as f64);
    d.num("audit_p99_chunks", (audit.len() / TAIL_CHUNK).max(1) as f64);
    d.num("closed.throughput_windows", rates.len() as f64);
    d.num("write_latency_samples", writes.len() as f64);
    d.num(
        "generator_late_p99_ms",
        percentile(&late, 99.0).unwrap_or(0.0),
    );
    d.num("generator_late_max_ms", late.last().copied().unwrap_or(0.0));
    d.num("generator_late_limit_ms", LATE_LIMIT_MS);
    d.num(
        "rounds_within_limit",
        round_late.iter().filter(|&&l| l <= LATE_LIMIT_MS).count() as f64,
    );
    d.num("rounds_used", used.len() as f64);
    for (i, (s, late)) in b.iter().zip(&round_late).enumerate() {
        let lat = sorted(&s.audit_ms);
        d.num(format!("open.round{i}.late_p99_ms"), *late);
        d.num(
            format!("open.round{i}.audit_p50_ms"),
            percentile(&lat, 50.0).unwrap_or(f64::NAN),
        );
        d.num(
            format!("open.round{i}.audit_p99_ms"),
            percentile(&lat, 99.0).unwrap_or(f64::NAN),
        );
    }

    for s in a.iter().chain(&b) {
        out.attempted += s.sent;
        out.failed += s.failed;
        out.errors.extend(s.errors.iter().cloned());
    }
    Ok(())
}

/// Which rounds count, given each round's generator p99 lateness:
/// those within [`LATE_LIMIT_MS`], or the least-late round when none is.
fn usable(late: &[f64]) -> Vec<bool> {
    let least = late.iter().copied().fold(f64::INFINITY, f64::min);
    let cut = LATE_LIMIT_MS.max(least);
    late.iter().map(|&l| l <= cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usable_keeps_rounds_within_the_limit_or_the_least_late() {
        assert_eq!(usable(&[0.2, 5.0, 1.9]), vec![true, false, true]);
        assert_eq!(usable(&[4.0, 3.0, 6.0]), vec![false, true, false]);
    }
}
