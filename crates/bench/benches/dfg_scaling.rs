//! DFG-extraction scalability (§I-B).
//!
//! The paper motivates graph *learning* over classical graph-similarity
//! algorithms partly on scalability: "existing algorithms suffer from high
//! complexity and are not scalable to large designs". This bench measures
//! how the Fig. 2 pipeline scales with design size (multiplier netlists
//! from 4x4 up to 16x16, i.e. tens to thousands of gates).
//!
//! A multiplier has few pass-through nodes (24 at 12x12), so it hides how
//! trim scales with the number of collapses. The `dfg/phases` trim rows
//! therefore also time an obfuscated multiplier (buffer chains, double
//! inverters, dummy logic) and bare buffer chains of 500 to 8,000 gates;
//! trim time should grow about linearly along the chains. The front-end
//! rows time preprocess, lex and parse separately on the obfuscated
//! multiplier, and the whole front end on one Medium synthetic RTL design.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use gnn4ip_data::iscas::c6288_sized;
use gnn4ip_data::{obfuscate_netlist, synth_design, ObfuscationConfig, SynthSize};
use gnn4ip_dfg::{graph_from_verilog, Dfg};

/// `y = buf(buf(…buf(a)…))` as a chain of `len` buffer gates.
fn buffer_chain(len: usize) -> String {
    let mut src = String::from("module chain(input a, output y);\n  buf (w0, a);\n");
    for i in 1..len - 1 {
        src.push_str(&format!("  buf (w{i}, w{});\n", i - 1));
    }
    src.push_str(&format!("  buf (y, w{});\nendmodule\n", len - 2));
    src
}

/// Untrimmed DFG of `src`.
fn extracted(src: &str, top: &str) -> Dfg {
    gnn4ip_dfg::extract(&gnn4ip_hdl::elaborate(src, Some(top)).expect("elaborates"))
}

fn bench_extraction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfg/pipeline_vs_design_size");
    group.sample_size(10);
    for width in [4usize, 8, 12, 16] {
        let src = c6288_sized(width);
        let nodes = graph_from_verilog(&src, Some("c6288"))
            .expect("extracts")
            .node_count();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{width}x{width}_mult_{nodes}_nodes")),
            &src,
            |b, src| {
                b.iter(|| {
                    std::hint::black_box(graph_from_verilog(src, Some("c6288")).expect("extracts"))
                })
            },
        );
    }
    group.finish();
}

fn bench_pipeline_phases(c: &mut Criterion) {
    let src = c6288_sized(12);
    let obfuscated = obfuscate_netlist(&src, 1, &ObfuscationConfig::default()).expect("obf");
    let mut group = c.benchmark_group("dfg/phases");
    group.sample_size(10);
    let pre = gnn4ip_hdl::preprocess(&obfuscated, &Default::default()).expect("pre");
    group.bench_function("preprocess/c6288_12x12_obfuscated", |b| {
        b.iter(|| gnn4ip_hdl::preprocess(std::hint::black_box(&obfuscated), &Default::default()))
    });
    group.bench_function("lex/c6288_12x12_obfuscated", |b| {
        b.iter(|| gnn4ip_hdl::lex(std::hint::black_box(&pre)))
    });
    // `parse` lexes its input, so this row includes the lex row
    group.bench_function("parse/c6288_12x12_obfuscated", |b| {
        b.iter(|| gnn4ip_hdl::parse(std::hint::black_box(&pre)))
    });
    let medium = synth_design(1, SynthSize::Medium);
    group.bench_function("preprocess+parse/synth_medium_rtl", |b| {
        b.iter(|| {
            let pre = gnn4ip_hdl::preprocess(std::hint::black_box(&medium), &Default::default());
            gnn4ip_hdl::parse(&pre.expect("pre"))
        })
    });
    let flat = gnn4ip_hdl::elaborate(&src, Some("c6288")).expect("flat");
    group.bench_function("extract", |b| {
        b.iter(|| std::hint::black_box(gnn4ip_dfg::extract(&flat)))
    });
    let mut trim_rows = vec![
        ("trim".to_string(), gnn4ip_dfg::extract(&flat)),
        (
            "trim/c6288_12x12_obfuscated".to_string(),
            extracted(&obfuscated, "c6288"),
        ),
    ];
    for len in [500usize, 1000, 2000, 4000, 8000] {
        trim_rows.push((
            format!("trim/buffer_chain_{len}"),
            extracted(&buffer_chain(len), "chain"),
        ));
    }
    for (name, g) in &trim_rows {
        group.bench_function(name.as_str(), |b| {
            b.iter_batched(
                || g.clone(),
                |mut g| gnn4ip_dfg::trim(&mut g),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extraction_scaling, bench_pipeline_phases);
criterion_main!(benches);
