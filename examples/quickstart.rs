//! Quickstart: the paper's Fig. 1 motivating example.
//!
//! Two full-adder codings — behavioral RTL and a gate-level netlist — have
//! visibly different source code and different data-flow graphs, yet are the
//! same design. We extract both DFGs, train a tiny detector on a small
//! corpus, and ask it whether the adder pair is piracy.
//!
//! Run with: `cargo run --release --example quickstart`

use gnn4ip::data::{Corpus, CorpusSpec};
use gnn4ip::dfg::graph_from_verilog;
use gnn4ip::nn::{Hw2VecConfig, TrainConfig};
use gnn4ip::{run_experiment, Gnn4Ip};

const ADDER_RTL: &str = "
module ADDER(input Num1, input Num2, input Cin,
             output reg Sum, output reg Cout);
  always @(Num1, Num2, Cin) begin
    Sum <= ((Num1 ^ Num2) ^ Cin);
    Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));
  end
endmodule";

const ADDER_GATES: &str = "
module ADDER(Num1, Num2, Cin, Sum, Cout);
  input Num1, Num2, Cin;
  output Sum, Cout;
  wire t1, t2, t3;
  xor (t1, Num1, Num2);
  and (t2, Num1, Num2);
  and (t3, t1, Cin);
  xor (Sum, t1, Cin);
  or (Cout, t3, t2);
endmodule";

const UNRELATED: &str = "
module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= q + 8'd1;
  end
endmodule";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. DFG extraction (Fig. 2 pipeline) — same design, different topology.
    let g_rtl = graph_from_verilog(ADDER_RTL, None)?;
    let g_gates = graph_from_verilog(ADDER_GATES, None)?;
    println!("Fig. 1 adders as data-flow graphs:");
    println!(
        "  RTL coding:   {:>3} nodes, {:>3} edges, roots {:?}",
        g_rtl.node_count(),
        g_rtl.edge_count(),
        g_rtl.roots().len()
    );
    println!(
        "  gate coding:  {:>3} nodes, {:>3} edges, roots {:?}",
        g_gates.node_count(),
        g_gates.edge_count(),
        g_gates.roots().len()
    );

    // 2. Train a small detector so embeddings are meaningful.
    println!("\nTraining a detector on a small generated corpus ...");
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
        150,
        42,
    )?;
    println!(
        "  test accuracy {:.1}% at tuned delta {:+.3}",
        100.0 * outcome.test_accuracy,
        outcome.delta
    );
    let detector: Gnn4Ip = outcome.detector;

    // 3. Ask Algorithm 1 about the adder pair and an unrelated pair.
    let same = detector.check(ADDER_RTL, ADDER_GATES)?;
    let diff = detector.check(ADDER_RTL, UNRELATED)?;
    println!(
        "\ngnn4ip(adder_rtl, adder_gates): score {:+.4} -> {}",
        same.score,
        if same.piracy { "PIRACY" } else { "no piracy" }
    );
    println!(
        "gnn4ip(adder_rtl, counter):     score {:+.4} -> {}",
        diff.score,
        if diff.piracy { "PIRACY" } else { "no piracy" }
    );
    println!(
        "\nThe two adder codings score {}, the unrelated pair scores lower — \
         similarity survives the coding change, as Fig. 1 argues.",
        if same.score > diff.score {
            "higher"
        } else {
            "UNEXPECTEDLY lower"
        }
    );
    Ok(())
}
