//! IP-audit scenario: screen a portfolio of incoming designs against a
//! library of owned IP (the deployment the paper's introduction motivates —
//! "the manual review of hardware design is not feasible in practice").
//!
//! **Train once, then load.** The first run trains a detector with the
//! checkpointing v2 engine, embeds the owned IP cores, and persists the
//! binary artifacts (detector + embedding library of the owned cores)
//! under `target/artifacts/ip_audit/`; every later run loads them in
//! milliseconds and reproduces the same scores bit for bit — no
//! retraining, no re-embedding. Delete the directory to retrain.
//!
//! Run with: `cargo run --release --example ip_audit`

use std::path::Path;

use gnn4ip::data::{named_rtl_designs, vary_design, Corpus, CorpusSpec, VariationConfig};
use gnn4ip::eval::ShardedEmbeddingIndex;
use gnn4ip::nn::{EngineConfig, Hw2VecConfig, TrainConfig};
use gnn4ip::{run_training_pipeline, Gnn4Ip};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let artifact_dir = Path::new("target/artifacts/ip_audit");
    let detector_path = artifact_dir.join("detector.bin");
    let library_path = artifact_dir.join("library.bin");

    let detector = if detector_path.exists() {
        let t0 = std::time::Instant::now();
        let mut d = Gnn4Ip::load(&detector_path)?;
        let n = d.load_library(&library_path)?;
        println!(
            "Loaded trained detector + {n}-entry embedding library from {} in {:.1} ms \
             (delete the directory to retrain).\n",
            artifact_dir.display(),
            t0.elapsed().as_secs_f64() * 1e3
        );
        d
    } else {
        println!("No saved artifacts; training the audit detector once ...");
        // a broader corpus than the quickstart's: 16 designs, medium size, so
        // the embedding space discriminates out-of-distribution cores too
        let spec = CorpusSpec {
            n_designs: 16,
            instances_per_design: 4,
            size: gnn4ip::data::SynthSize::Medium,
            ..CorpusSpec::rtl_small()
        };
        let corpus = Corpus::build(&spec)?;
        let engine = EngineConfig {
            train: TrainConfig {
                epochs: 30,
                batch_size: 32,
                lr: 0.005,
                ..TrainConfig::default()
            },
            schedule: gnn4ip::nn::LrSchedule::CosineAnneal { min_lr: 5e-4 },
            // checkpoint mid-training: a killed run resumes instead of
            // starting over
            checkpoint_every: 5,
            ..EngineConfig::default()
        };
        let (outcome, artifacts) = run_training_pipeline(
            &corpus,
            Hw2VecConfig::default(),
            engine,
            400,
            7,
            artifact_dir,
        )?;
        println!(
            "  trained: accuracy {:.1}%, delta {:+.3}; artifacts saved to {}\n",
            100.0 * outcome.test_accuracy,
            outcome.delta,
            artifacts.detector.parent().expect("dir").display()
        );
        // the pipeline cached the training corpus; this audit screens
        // against the owned cores only, so persist a library of those
        let d = outcome.detector;
        d.clear_cache();
        d
    };

    // The IP library we own: named cores embedded once, in one batch —
    // a warm start serves all of them from the loaded library artifact.
    let library: Vec<_> = named_rtl_designs()
        .into_iter()
        .filter(|d| ["fpa", "aes", "crc8", "hamming", "barrel"].contains(&d.name.as_str()))
        .collect();
    let owned: Vec<(&str, Option<&str>)> = library
        .iter()
        .map(|d| (d.source.as_str(), Some(d.top.as_str())))
        .collect();
    let embeddings = detector.embed_many(&owned)?;
    let owned_stats = detector.cache_stats();
    if owned_stats.misses > 0 {
        // first run: the cache just embedded the owned cores — persist
        // them so later runs never re-embed
        detector.save_library(&library_path)?;
    }
    let mut index = ShardedEmbeddingIndex::new(embeddings[0].len(), 256);
    for (label, e) in embeddings.iter().enumerate() {
        index.insert(e, label);
    }
    println!(
        "IP library indexed: {:?} ({} embeddings, one batched pass)\n",
        library.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
        index.len()
    );

    // Incoming portfolio: two disguised copies + two clean designs.
    let fpa = library.iter().find(|d| d.name == "fpa").expect("fpa");
    let crc = library.iter().find(|d| d.name == "crc8").expect("crc8");
    let disguised_fpa = vary_design(&fpa.source, 1234, &VariationConfig::default())?;
    let disguised_crc = vary_design(&crc.source, 4321, &VariationConfig::default())?;
    // clean designs: real cores we do NOT own (never registered)
    let seven_seg = named_rtl_designs()
        .into_iter()
        .find(|d| d.name == "seven_seg")
        .expect("seven_seg");
    let uart = named_rtl_designs()
        .into_iter()
        .find(|d| d.name == "rs232")
        .expect("rs232");
    let incoming = [
        ("vendor_fp_unit.v", disguised_fpa.as_str(), Some("fpa")),
        ("vendor_checksum.v", disguised_crc.as_str(), Some("crc8")),
        (
            "display_decoder.v",
            seven_seg.source.as_str(),
            Some("seven_seg"),
        ),
        ("uart_core.v", uart.source.as_str(), Some("rs232")),
    ];

    println!(
        "{:<22} {:<12} {:>8}   verdict",
        "incoming file", "best match", "score"
    );
    println!("{}", "-".repeat(58));
    for (fname, src, top) in incoming {
        let suspect = detector.hw2vec(src, top)?;
        let best = index.query(&suspect, 1)[0];
        println!(
            "{fname:<22} {:<12} {:>+8.4}   {}",
            library[best.label].name,
            best.score,
            if best.score > detector.delta() {
                "FLAG: possible piracy"
            } else {
                "clear"
            }
        );
    }

    // A vendor resubmits the same checksum file (new comments only): the
    // content-addressed cache answers without re-parsing or re-embedding.
    let before = detector.cache_stats();
    let resubmitted = format!("// resubmission, rev B\n{disguised_crc}");
    let again = detector.hw2vec(&resubmitted, Some("crc8"))?;
    let best = index.query(&again, 1)[0];
    let after = detector.cache_stats();
    println!(
        "\nResubmitted vendor_checksum.v: best match {} ({:+.4}), served from cache \
         ({} -> {} hits, {} designs embedded total, hit rate {:.0}%).",
        library[best.label].name,
        best.score,
        before.hits,
        after.hits,
        after.entries,
        100.0 * after.hit_rate()
    );
    println!(
        "Disguised copies surface their originals as best match with near-1 scores; \
         unowned designs score visibly lower (delta = {:+.3}).",
        detector.delta()
    );
    Ok(())
}
