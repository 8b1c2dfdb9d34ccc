//! `gnn4ip` — command-line IP-piracy detector and audit service.
//!
//! Corpus workflow (the audit service surface):
//!
//! ```text
//! gnn4ip ingest PATH... --index corpus.g4a [--model detector.bin] [--check]
//! gnn4ip audit PATH... --index corpus.g4a [--model detector.bin]
//! gnn4ip serve [--index corpus.g4a] [--socket PATH] [--workers N]
//!              [--queue-capacity N] [--max-batch N] [--max-body-bytes N]
//!              [--model detector.bin]
//! gnn4ip inspect FILE...
//! gnn4ip gc CHECKPOINT_DIR [--dry-run]
//! ```
//!
//! `PATH` arguments accept files and directories; directories are walked
//! recursively for `.v` sources. `ingest --check` validates every input
//! and exits nonzero on any rejection without writing the index. `serve`
//! speaks the line protocol documented in `gnn4ip_core::run_service`
//! over stdin/stdout, or over a Unix socket with `--socket`. `inspect`
//! prints the `G4IP` envelope of any artifact (kind, version, checksum)
//! plus kind-specific headers (shard count, pinned weights).
//!
//! Pairwise workflow (the original demo driver):
//!
//! ```text
//! gnn4ip train --out detector.bin [--netlist] [--designs N] [--instances K] [--epochs E]
//! gnn4ip check A.v B.v [--model detector.bin] [--top1 NAME] [--top2 NAME]
//! gnn4ip scan SUSPECT.v LIB1.v [LIB2.v ...] [--model detector.bin]
//! gnn4ip embed A.v [--model detector.bin] [--top NAME]
//! gnn4ip dfg A.v [--top NAME] [--dot OUT.dot]
//! ```
//!
//! `--model` takes a binary `gnn4ip-detector` artifact, as written by
//! `train`. Without it, an untrained (structure-only) detector is used —
//! fine for demos, not for real screening.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn4ip::core::AUDIT_INDEX_KIND;
use gnn4ip::data::{Corpus, CorpusSpec, Level, SynthSize};
use gnn4ip::dfg::graph_with_report;
use gnn4ip::eval::SHARD_INDEX_KIND;
use gnn4ip::nn::{Hw2VecConfig, TrainConfig};
use gnn4ip::tensor::{describe_artifact, BinReader, FORMAT_VERSION};
use gnn4ip::{
    run_experiment, run_service, AuditConfig, AuditPipeline, AuditSource, Gnn4Ip, ServiceConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Flags that take no value; every other `--flag` consumes the argument
/// after it.
const SWITCHES: &[&str] = &["--netlist", "--check", "--dry-run"];

fn is_value_flag(arg: &str) -> bool {
    arg.starts_with("--") && !SWITCHES.contains(&arg)
}

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = is_value_flag(a);
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn load_detector(args: &[String]) -> Result<Gnn4Ip, String> {
    match flag_value(args, "--model") {
        Some(path) => Gnn4Ip::load(path).map_err(|e| format!("cannot load model '{path}': {e}")),
        None => {
            eprintln!("note: no --model given; using an untrained detector");
            Ok(Gnn4Ip::with_seed(42))
        }
    }
}

/// Parses an optional numeric flag, with a default.
fn flag_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}")),
        None => Ok(default),
    }
}

/// Expands files and directories into a sorted, deduplicated list of
/// Verilog sources; directories are walked recursively for `.v` files.
fn discover_verilog(inputs: &[&str]) -> Result<Vec<PathBuf>, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|ext| ext == "v") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for input in inputs {
        let path = Path::new(input);
        let meta = std::fs::metadata(path).map_err(|e| format!("{input}: {e}"))?;
        if meta.is_dir() {
            walk(path, &mut files)?;
        } else {
            files.push(path.to_path_buf());
        }
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        return Err("no Verilog (.v) files found in the given paths".to_string());
    }
    Ok(files)
}

/// Reads each discovered file into an [`AuditSource`] named by its path.
fn read_sources(files: &[PathBuf]) -> Result<Vec<AuditSource>, String> {
    files
        .iter()
        .map(|path| {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(AuditSource::new(path.display().to_string(), source, None))
        })
        .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    // a value flag with nothing after it would otherwise read as absent
    if let Some(flag) = rest.last().filter(|a| is_value_flag(a)) {
        return Err(format!("{flag} needs a value"));
    }
    match cmd {
        "train" => train_detector(rest),
        "check" => check(rest),
        "scan" => scan(rest),
        "embed" => embed(rest),
        "dfg" => dfg(rest),
        "ingest" => ingest(rest),
        "audit" => audit(rest),
        "serve" => serve(rest),
        "inspect" => inspect(rest),
        "gc" => gc(rest),
        _ => {
            println!(
                "gnn4ip — hardware IP piracy detection (GNN4IP, DAC 2021 reproduction)\n\n\
                 corpus workflow:\n  \
                 gnn4ip ingest PATH... --index corpus.g4a [--model detector.bin] [--check]\n  \
                 gnn4ip audit PATH... --index corpus.g4a [--model detector.bin]\n  \
                 gnn4ip serve [--index corpus.g4a] [--socket PATH] [--workers N]\n  \
                 \x20            [--queue-capacity N] [--max-batch N] [--max-body-bytes N]\n  \
                 \x20            [--model detector.bin]\n  \
                 gnn4ip inspect FILE...\n  \
                 gnn4ip gc CHECKPOINT_DIR [--dry-run]\n\n\
                 pairwise workflow:\n  \
                 gnn4ip train --out detector.bin [--netlist] [--designs N] [--instances K] [--epochs E]\n  \
                 gnn4ip check A.v B.v [--model detector.bin] [--top1 NAME] [--top2 NAME]\n  \
                 gnn4ip scan SUSPECT.v LIB1.v [LIB2.v ...] [--model detector.bin]\n  \
                 gnn4ip embed A.v [--model detector.bin] [--top NAME]\n  \
                 gnn4ip dfg A.v [--top NAME] [--dot OUT.dot]\n\n\
                 PATH arguments accept files and directories (recursive .v discovery)."
            );
            Ok(())
        }
    }
}

fn ingest(args: &[String]) -> Result<(), String> {
    let inputs = positional(args);
    if inputs.is_empty() {
        return Err("ingest needs Verilog files or directories to ingest".to_string());
    }
    let check_only = args.iter().any(|a| a == "--check");
    let index_path = flag_value(args, "--index");
    let Some(out_path) = index_path.or(check_only.then_some("")) else {
        return Err(
            "ingest needs --index OUT.g4a (or --check to validate without writing)".to_string(),
        );
    };
    let detector = load_detector(args)?;
    let mut pipeline = AuditPipeline::new(detector, AuditConfig::default());
    if let Some(path) = index_path.filter(|p| Path::new(p).exists()) {
        let restored = pipeline
            .load_index(path)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("appending to existing index ({restored} designs)");
    }
    let files = discover_verilog(&inputs)?;
    eprintln!("discovered {} Verilog file(s)", files.len());
    let report = pipeline.ingest(read_sources(&files)?);
    for (name, err) in &report.rejected {
        eprintln!("rejected {name}: {err}");
    }
    println!(
        "ingested={} rejected={} corpus={}",
        report.ingested,
        report.rejected.len(),
        pipeline.len()
    );
    if check_only {
        return if report.rejected.is_empty() {
            println!("validation OK (nothing written)");
            Ok(())
        } else {
            Err(format!(
                "{} of {} design(s) failed validation (nothing written)",
                report.rejected.len(),
                files.len()
            ))
        };
    }
    pipeline
        .save_index(out_path)
        .map_err(|e| format!("{out_path}: {e}"))?;
    println!("index written to {out_path}");
    Ok(())
}

fn audit(args: &[String]) -> Result<(), String> {
    let inputs = positional(args);
    if inputs.is_empty() {
        return Err("audit needs suspect Verilog files or directories".to_string());
    }
    let index_path =
        flag_value(args, "--index").ok_or("audit needs --index CORPUS.g4a".to_string())?;
    let detector = load_detector(args)?;
    let mut pipeline = AuditPipeline::new(detector, AuditConfig::default());
    let corpus = pipeline
        .load_index(index_path)
        .map_err(|e| format!("{index_path}: {e}"))?;
    eprintln!("corpus: {corpus} design(s)");
    let suspects = read_sources(&discover_verilog(&inputs)?)?;
    let (verdicts, report) = pipeline.audit_many(&suspects);
    let mut parse_errors = report.rejected.iter();
    for (suspect, verdict) in suspects.iter().zip(&verdicts) {
        match verdict {
            Some(v) => {
                let best = v
                    .best()
                    .map(|m| format!("{}:{:+.4}", m.name, m.score))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{}  {}  best={best} matches={}",
                    if v.piracy { "PIRACY" } else { "ok    " },
                    suspect.name,
                    v.matches.len()
                );
            }
            None => {
                let detail = parse_errors
                    .next()
                    .map(|(_, err)| err.as_str())
                    .unwrap_or("rejected");
                println!("ERR     {}  {detail}", suspect.name);
            }
        }
    }
    println!(
        "audited={} flagged={} rejected={}",
        report.audited,
        report.flagged,
        report.rejected.len()
    );
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let detector = load_detector(args)?;
    let mut pipeline = AuditPipeline::new(detector, AuditConfig::default());
    if let Some(path) = flag_value(args, "--index") {
        let corpus = pipeline
            .load_index(path)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("corpus: {corpus} design(s)");
    }
    let config = ServiceConfig {
        workers: flag_usize(args, "--workers", 2)?,
        queue_capacity: flag_usize(args, "--queue-capacity", 64)?,
        max_batch: flag_usize(args, "--max-batch", 32)?,
        max_body_bytes: flag_usize(args, "--max-body-bytes", 1 << 20)?,
    };
    match flag_value(args, "--socket") {
        Some(path) => serve_socket(&mut pipeline, &config, path),
        None => {
            let report = run_service(
                &mut pipeline,
                &config,
                std::io::stdin().lock(),
                std::io::stdout(),
            )
            .map_err(|e| e.to_string())?;
            eprintln!(
                "served {} request(s): {} audit(s), {} flagged, {} ingested; \
                 p50={}us p99={}us queue_high_water={}",
                report.requests,
                report.audits,
                report.flagged,
                report.ingested,
                report.latency.p50_us,
                report.latency.p99_us,
                report.queue_high_water
            );
            Ok(())
        }
    }
}

#[cfg(unix)]
fn serve_socket(
    pipeline: &mut AuditPipeline,
    config: &ServiceConfig,
    path: &str,
) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    // a stale socket file from a previous run would make bind fail
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("listening on {path} (one session at a time; Ctrl-C stops the server)");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let report = run_service(pipeline, config, reader, stream).map_err(|e| e.to_string())?;
        eprintln!(
            "session closed: {} request(s), {} audit(s), p99={}us",
            report.requests, report.audits, report.latency.p99_us
        );
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(
    _pipeline: &mut AuditPipeline,
    _config: &ServiceConfig,
    _path: &str,
) -> Result<(), String> {
    Err("--socket requires a Unix platform; use stdin/stdout mode".to_string())
}

/// `gnn4ip gc CHECKPOINT_DIR [--dry-run]` — sweep orphaned shard files.
fn gc(args: &[String]) -> Result<(), String> {
    let dirs = positional(args);
    let [dir] = dirs.as_slice() else {
        return Err("gc needs exactly one checkpoint directory".to_string());
    };
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let report = gnn4ip::eval::gc_checkpoint_dir(dir, dry_run).map_err(|e| e.to_string())?;
    for name in &report.orphans {
        println!(
            "{} {name}",
            if dry_run { "would remove" } else { "removed" }
        );
    }
    println!(
        "{}: {} live shard file(s), {} orphan(s), {} byte(s){}",
        dir,
        report.live,
        report.orphans.len(),
        report.orphan_bytes,
        if dry_run {
            " reclaimable (dry run)"
        } else {
            " reclaimed"
        },
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    if files.is_empty() {
        return Err("inspect needs at least one artifact file".to_string());
    }
    let mut failures = 0usize;
    for path in &files {
        if let Err(e) = inspect_one(path) {
            eprintln!("{path}: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        Err(format!("{failures} artifact(s) failed inspection"))
    } else {
        Ok(())
    }
}

fn inspect_one(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let info = describe_artifact(&bytes)?;
    println!("{path}:");
    println!("  kind        {}", info.kind);
    println!("  version     v{}", info.version);
    println!("  checksum    {:#018x}", info.checksum);
    println!("  payload     {} bytes", info.payload_bytes);
    println!(
        "  registered  {}",
        if info.registered() {
            "yes"
        } else {
            "no — not a (kind, version) any writer in this workspace produces"
        }
    );
    match info.kind.as_str() {
        k if k == SHARD_INDEX_KIND => print_shard_header(&bytes)?,
        k if k == AUDIT_INDEX_KIND => print_audit_header(&bytes)?,
        _ => {}
    }
    Ok(())
}

/// Peeks the shard-index payload header: pinned weights checksum,
/// embedding dim, rows per shard, shard count.
fn print_shard_header(bytes: &[u8]) -> Result<(), String> {
    let mut r = BinReader::open_versioned(bytes, SHARD_INDEX_KIND, FORMAT_VERSION)?;
    let pin = r.u64()?;
    let dim = r.len_of()?;
    let capacity = r.len_of()?;
    let shards = r.count_of(8)?;
    println!("  weights     {pin:#018x}");
    println!("  dim         {dim}");
    println!("  shards      {shards} ({capacity} rows/shard capacity)");
    Ok(())
}

/// Peeks the audit-index payload header — designs and the nested
/// shard-index artifact it wraps.
fn print_audit_header(bytes: &[u8]) -> Result<(), String> {
    let mut r = BinReader::open_versioned(bytes, AUDIT_INDEX_KIND, FORMAT_VERSION)?;
    let pin = r.u64()?;
    let designs = r.count_of(4)?; // every name carries a 4-byte length prefix
    for _ in 0..designs {
        r.str()?;
    }
    let nested = r.bytes()?;
    let inner = describe_artifact(nested)?;
    println!("  weights     {pin:#018x}");
    println!("  designs     {designs}");
    println!(
        "  nested      {} v{} ({} bytes)",
        inner.kind, inner.version, inner.payload_bytes
    );
    print_shard_header(nested)
}

fn train_detector(args: &[String]) -> Result<(), String> {
    let out_path = flag_value(args, "--out").unwrap_or("detector.bin");
    let netlist = args.iter().any(|a| a == "--netlist");
    let parse_n = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}")),
            None => Ok(default),
        }
    };
    let spec = CorpusSpec {
        level: if netlist { Level::Netlist } else { Level::Rtl },
        n_designs: parse_n("--designs", if netlist { 8 } else { 20 })?,
        instances_per_design: parse_n("--instances", 5)?,
        size: SynthSize::Medium,
        netlist_gates: 250,
        seed: 7,
        verify: false,
    };
    eprintln!(
        "building {} corpus: {} designs x {} instances ...",
        spec.level, spec.n_designs, spec.instances_per_design
    );
    let corpus = Corpus::build(&spec).map_err(|e| e.to_string())?;
    eprintln!(
        "{} graphs (mean {:.0} nodes); training ...",
        corpus.graphs.len(),
        corpus.mean_nodes()
    );
    let train_cfg = TrainConfig {
        epochs: parse_n("--epochs", 15)?,
        lr: 0.005,
        ..TrainConfig::default()
    };
    let outcome = run_experiment(&corpus, Hw2VecConfig::default(), &train_cfg, 1000, 42)?;
    eprintln!(
        "held-out accuracy {:.1}% at delta {:+.3}",
        100.0 * outcome.test_accuracy,
        outcome.delta
    );
    outcome
        .detector
        .save(out_path)
        .map_err(|e| format!("cannot write '{out_path}': {e}"))?;
    println!("detector written to {out_path}");
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    let [a, b] = files.as_slice() else {
        return Err("check needs exactly two Verilog files".to_string());
    };
    let src_a = std::fs::read_to_string(a).map_err(|e| format!("{a}: {e}"))?;
    let src_b = std::fs::read_to_string(b).map_err(|e| format!("{b}: {e}"))?;
    let detector = load_detector(args)?;
    let verdict = detector
        .check_with_tops(
            &src_a,
            flag_value(args, "--top1"),
            &src_b,
            flag_value(args, "--top2"),
        )
        .map_err(|e| e.to_string())?;
    println!(
        "similarity {:+.4} (delta {:+.3}) -> {}",
        verdict.score,
        verdict.delta,
        if verdict.piracy {
            "PIRACY"
        } else {
            "no piracy"
        }
    );
    Ok(())
}

/// Screens one suspect against a library of files: an audit over an
/// in-memory pipeline holding just those files, reporting every match.
fn scan(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    if files.len() < 2 {
        return Err("scan needs a suspect file plus at least one library file".to_string());
    }
    let detector = load_detector(args)?;
    let library: Vec<PathBuf> = files[1..].iter().map(PathBuf::from).collect();
    let config = AuditConfig {
        top_k: library.len(),
        ..AuditConfig::default()
    };
    let mut pipeline = AuditPipeline::new(detector, config);
    let report = pipeline.ingest(read_sources(&library)?);
    if let Some((path, err)) = report.rejected.first() {
        return Err(format!("{path}: {err}"));
    }
    let suspect = std::fs::read_to_string(files[0]).map_err(|e| format!("{}: {e}", files[0]))?;
    let verdict = pipeline.audit(&suspect, None).map_err(|e| e.to_string())?;
    for hit in verdict.matches {
        println!(
            "{:+.4}  {}  {}",
            hit.score,
            if hit.piracy { "PIRACY" } else { "ok    " },
            hit.name
        );
    }
    Ok(())
}

fn embed(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    let [path] = files.as_slice() else {
        return Err("embed needs exactly one Verilog file".to_string());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let detector = load_detector(args)?;
    let emb = detector
        .hw2vec(&src, flag_value(args, "--top"))
        .map_err(|e| e.to_string())?;
    let cells: Vec<String> = emb.iter().map(|v| format!("{v:.6}")).collect();
    println!("{}", cells.join(","));
    Ok(())
}

fn dfg(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    let [path] = files.as_slice() else {
        return Err("dfg needs exactly one Verilog file".to_string());
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (g, report) =
        graph_with_report(&src, flag_value(args, "--top")).map_err(|e| e.to_string())?;
    println!(
        "{}: {} nodes, {} edges, {} roots (trim removed {} unreachable, collapsed {})",
        g.name(),
        report.nodes,
        report.edges,
        report.roots,
        report.trim.unreachable_removed,
        report.trim.passthrough_collapsed
    );
    if let Some(dot_path) = flag_value(args, "--dot") {
        std::fs::write(dot_path, g.to_dot())
            .map_err(|e| format!("cannot write '{dot_path}': {e}"))?;
        println!("DOT written to {dot_path}");
    }
    Ok(())
}
