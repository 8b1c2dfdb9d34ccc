//! Obfuscation-resilience scenario (the Table III experiment in miniature).
//!
//! A foundry-side adversary steals the `c880`-class ALU netlist, obfuscates
//! it (gate decomposition, buffer chains, dummy key-guarded logic, wire
//! renaming), and presents it as original work. We train a detector on a
//! netlist corpus and show it still recognizes the original IP inside every
//! obfuscated instance, while clearing genuinely different benchmarks.
//!
//! Run with: `cargo run --release --example obfuscated_netlist`

use gnn4ip::data::{iscas, obfuscate_netlist, Corpus, CorpusSpec, ObfuscationConfig};
use gnn4ip::eval::ScoreTable;
use gnn4ip::nn::{Hw2VecConfig, TrainConfig};
use gnn4ip::run_experiment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Training on a gate-level netlist corpus ...");
    let corpus = Corpus::build(&CorpusSpec::netlist_small())?;
    let outcome = run_experiment(
        &corpus,
        Hw2VecConfig::default(),
        &TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 0.01,
            ..TrainConfig::default()
        },
        120,
        7,
    )?;
    println!(
        "  netlist test accuracy {:.1}% (delta {:+.3})",
        100.0 * outcome.test_accuracy,
        outcome.delta
    );
    let detector = outcome.detector;

    // The stolen IP and its obfuscated variants.
    let original = iscas::c880();
    let mut table = ScoreTable::new("c880 vs its obfuscated instances");
    let mut scores = Vec::new();
    for variant in 1..=6u64 {
        let stolen = obfuscate_netlist(&original, variant, &ObfuscationConfig::default())?;
        let v = detector.check_with_tops(&original, Some("c880"), &stolen, Some("c880"))?;
        println!(
            "  obfuscated variant {variant}: score {:+.4} -> {}",
            v.score,
            if v.piracy {
                "PIRACY detected"
            } else {
                "missed!"
            }
        );
        scores.push(v.score);
    }
    table.push("c880 / obfuscated c880", scores);

    // Different benchmarks must score low.
    let mut diff_scores = Vec::new();
    for (name, other) in [
        ("c432", iscas::c432()),
        ("c499", iscas::c499()),
        ("c1908", iscas::c1908()),
    ] {
        let v = detector.check_with_tops(&original, Some("c880"), &other, Some(name))?;
        println!("  c880 vs {name}: score {:+.4}", v.score);
        diff_scores.push(v.score);
    }
    table.push("c880 / different benchmarks", diff_scores);

    println!("\n{}", table.render());
    println!(
        "Obfuscation does not change behaviour, so the DFG embedding stays \
         close to the original — the paper's §IV-E claim."
    );
    Ok(())
}
