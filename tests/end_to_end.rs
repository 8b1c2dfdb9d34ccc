//! Cross-crate integration tests: Verilog source → DFG → embedding →
//! verdict, exercising the public facade exactly as a downstream user would.

use gnn4ip::data::{
    named_rtl_designs, obfuscate_netlist, vary_design, ObfuscationConfig, VariationConfig,
};
use gnn4ip::dfg::graph_from_verilog;
use gnn4ip::nn::GraphInput;
use gnn4ip::Gnn4Ip;

#[test]
fn every_named_design_flows_through_the_full_stack() {
    let detector = Gnn4Ip::with_seed(1);
    for design in named_rtl_designs() {
        let emb = detector
            .hw2vec(&design.source, Some(&design.top))
            .unwrap_or_else(|e| panic!("{}: {e}", design.name));
        assert_eq!(emb.len(), 16, "{}", design.name);
        assert!(
            emb.iter().all(|v| v.is_finite()),
            "{} produced non-finite embedding",
            design.name
        );
    }
}

#[test]
fn self_similarity_is_one_for_all_named_designs() {
    let detector = Gnn4Ip::with_seed(2);
    for design in named_rtl_designs().into_iter().take(8) {
        let v = detector
            .check_with_tops(
                &design.source,
                Some(&design.top),
                &design.source,
                Some(&design.top),
            )
            .expect("check");
        assert!(
            v.score > 0.999,
            "{} self-similarity {}",
            design.name,
            v.score
        );
    }
}

#[test]
fn variation_keeps_untrained_similarity_high() {
    // Even an untrained model embeds a design and its recoded variant more
    // similarly than chance because the graphs share structure.
    let detector = Gnn4Ip::with_seed(3);
    let design = named_rtl_designs()
        .into_iter()
        .find(|d| d.name == "crc8")
        .expect("crc8 exists");
    let variant = vary_design(&design.source, 5, &VariationConfig::default()).expect("vary");
    let v = detector
        .check_with_tops(&design.source, Some("crc8"), &variant, Some("crc8"))
        .expect("check");
    assert!(v.score > 0.5, "varied crc8 score {}", v.score);
}

#[test]
fn obfuscated_netlist_embeds_close_to_original() {
    let detector = Gnn4Ip::with_seed(4);
    let original = gnn4ip::data::iscas::c432();
    let obf = obfuscate_netlist(&original, 3, &ObfuscationConfig::default()).expect("obf");
    let v = detector
        .check_with_tops(&original, Some("c432"), &obf, Some("c432"))
        .expect("check");
    assert!(v.score > 0.5, "obfuscated c432 score {}", v.score);
}

#[test]
fn detector_roundtrips_through_serialization() {
    let detector = Gnn4Ip::with_seed(5);
    let bytes = detector.to_bytes();
    let restored = Gnn4Ip::from_bytes(&bytes).expect("loads");
    let g = graph_from_verilog(
        "module m(input a, input b, output y); assign y = a ^ b; endmodule",
        None,
    )
    .expect("graph");
    let gi = GraphInput::from_dfg(&g);
    assert_eq!(detector.embed(&gi), restored.embed(&gi));
}

#[test]
fn fig1_adders_extract_distinct_graphs_with_same_interface() {
    let rtl = "module ADDER(input Num1, input Num2, input Cin,
                            output reg Sum, output reg Cout);
                 always @(Num1, Num2, Cin) begin
                   Sum <= ((Num1 ^ Num2) ^ Cin);
                   Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));
                 end
               endmodule";
    let gates = "module ADDER(Num1, Num2, Cin, Sum, Cout);
                   input Num1, Num2, Cin;
                   output Sum, Cout;
                   wire t1, t2, t3;
                   xor (t1, Num1, Num2);
                   and (t2, Num1, Num2);
                   and (t3, t1, Cin);
                   xor (Sum, t1, Cin);
                   or (Cout, t3, t2);
                 endmodule";
    let g1 = graph_from_verilog(rtl, None).expect("rtl");
    let g2 = graph_from_verilog(gates, None).expect("gates");
    assert_eq!(g1.roots().len(), 2);
    assert_eq!(g2.roots().len(), 2);
    assert_ne!(g1.node_count(), g2.node_count(), "different topologies");
}

#[test]
fn facade_reexports_are_usable() {
    // spot-check every facade module with one symbol each
    let _ = gnn4ip::hdl::parse("module m(); endmodule").expect("hdl");
    let _ = gnn4ip::dfg::VOCAB_SIZE;
    let _ = gnn4ip::tensor::Matrix::eye(2);
    let _ = gnn4ip::nn::Hw2VecConfig::default();
    let _ = gnn4ip::data::CorpusSpec::rtl_small();
    let _ = gnn4ip::eval::ConfusionMatrix::new();
    let _ = gnn4ip::core::Gnn4Ip::with_seed(0);
}
