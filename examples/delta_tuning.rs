//! δ-tuning walkthrough: the ROC view of the decision boundary.
//!
//! §IV-D: "the decision boundary is controlled by a hyper-parameter δ. We
//! have tuned the δ to achieve maximum accuracy, but the user can adjust it
//! to decide how much similarity is considered piracy." This example trains
//! a detector, prints the ROC curve of the held-out scores, the AUC, and a
//! small table of candidate δ settings with their precision/recall
//! trade-offs.
//!
//! Run with: `cargo run --release --example delta_tuning`

use gnn4ip::data::{Corpus, CorpusSpec};
use gnn4ip::eval::{auc, roc_curve, ConfusionMatrix};
use gnn4ip::nn::{Hw2VecConfig, TrainConfig};
use gnn4ip::run_experiment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Training a detector ...");
    let corpus = Corpus::build(&CorpusSpec::rtl_small())?;
    let outcome = run_experiment(
        &corpus,
        Hw2VecConfig::default(),
        &TrainConfig {
            epochs: 15,
            batch_size: 16,
            lr: 0.01,
            ..TrainConfig::default()
        },
        200,
        3,
    )?;
    let scores: Vec<f32> = outcome.test_scores.iter().map(|(s, _)| *s).collect();
    let labels: Vec<bool> = outcome.test_scores.iter().map(|(_, l)| *l).collect();

    println!(
        "\nheld-out AUC: {:.4}  (accuracy-optimal delta: {:+.3})",
        auc(&scores, &labels),
        outcome.delta
    );

    // Down-sampled ROC curve
    let curve = roc_curve(&scores, &labels);
    println!("\nROC curve (sampled):");
    println!("  threshold     TPR     FPR");
    let step = (curve.len() / 12).max(1);
    for p in curve.iter().step_by(step) {
        println!("  {:+9.3}  {:6.3}  {:6.3}", p.threshold, p.tpr, p.fpr);
    }

    // What different delta policies buy you
    println!("\ndelta policies:");
    println!(
        "  {:<28} {:>7} {:>10} {:>8}",
        "policy", "delta", "precision", "recall"
    );
    for (policy, delta) in [
        ("strict (few false alarms)", 0.95f32),
        ("accuracy-optimal (tuned)", outcome.delta),
        ("lenient (catch everything)", 0.2),
    ] {
        let cm = ConfusionMatrix::from_scores(&scores, &labels, delta);
        println!(
            "  {policy:<28} {delta:>+7.3} {:>9.1}% {:>7.1}%",
            100.0 * cm.precision(),
            100.0 * cm.recall()
        );
    }
    println!(
        "\nHigher delta -> fewer false alarms but more missed piracy; the \
         tuned value maximizes accuracy on the training split."
    );
    Ok(())
}
