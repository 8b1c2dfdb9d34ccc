//! # gnn4ip
//!
//! A Rust reproduction of **GNN4IP: Graph Neural Network for Hardware
//! Intellectual Property Piracy Detection** (Yasaei, Yu, Kasaeyan Naeini,
//! Al Faruque — DAC 2021, arXiv:2107.09130).
//!
//! GNN4IP detects IP piracy by *modeling circuits* instead of watermarking
//! them: a hardware design (RTL or gate-level netlist) becomes a data-flow
//! graph, a graph neural network (hw2vec) embeds the graph, and the cosine
//! similarity of two embeddings — against a decision boundary δ — decides
//! whether two designs are the same IP.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`hdl`] | `gnn4ip-hdl` | Verilog front end (preprocess, parse, flatten, evaluate) |
//! | [`dfg`] | `gnn4ip-dfg` | data-flow-graph extraction pipeline (Fig. 2) |
//! | [`tensor`] | `gnn4ip-tensor` | matrices, autograd, optimizers |
//! | [`nn`] | `gnn4ip-nn` | GCN + SAGPool + readout model, loss, trainer (Fig. 3) |
//! | [`data`] | `gnn4ip-data` | design generators, variation/obfuscation, corpora |
//! | [`eval`] | `gnn4ip-eval` | confusion matrices, PCA, t-SNE, score tables |
//! | [`core`] | `gnn4ip-core` | the [`Gnn4Ip`] detector and experiment harness |
//!
//! # Quickstart
//!
//! ```
//! use gnn4ip::Gnn4Ip;
//!
//! let detector = Gnn4Ip::with_seed(42);
//! let design = "module inv(input a, output y); assign y = ~a; endmodule";
//! let verdict = detector.check(design, design)?;
//! assert!(verdict.piracy); // identical sources are maximally similar
//! # Ok::<(), gnn4ip::hdl::ParseVerilogError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios (training a detector, checking
//! obfuscated netlists, reproducing the paper's similarity tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gnn4ip_core::{
    corpus_inputs, run_audit_scenarios, run_experiment, run_service, run_training_pipeline,
    to_pair_samples, AuditConfig, AuditError, AuditMatch, AuditPipeline, AuditSnapshot,
    AuditSource, AuditVerdict, BatchReport, BoundedQueue, ExperimentOutcome, Gnn4Ip, IngestReport,
    LatencySummary, PipelineArtifacts, Publication, PublicationSlot, ScenarioReport, ScenarioSpec,
    ServiceConfig, ServiceReport, Verdict,
};

/// Verilog front end (re-export of `gnn4ip-hdl`).
pub mod hdl {
    pub use gnn4ip_hdl::*;
}

/// Data-flow-graph extraction (re-export of `gnn4ip-dfg`).
pub mod dfg {
    pub use gnn4ip_dfg::*;
}

/// Linear algebra and autograd (re-export of `gnn4ip-tensor`).
pub mod tensor {
    pub use gnn4ip_tensor::*;
}

/// The hw2vec model and trainer (re-export of `gnn4ip-nn`).
pub mod nn {
    pub use gnn4ip_nn::*;
}

/// Dataset generators and corpora (re-export of `gnn4ip-data`).
pub mod data {
    pub use gnn4ip_data::*;
}

/// Evaluation and visualization utilities (re-export of `gnn4ip-eval`).
pub mod eval {
    pub use gnn4ip_eval::*;
}

/// Detector API and experiment harness (re-export of `gnn4ip-core`).
pub mod core {
    pub use gnn4ip_core::*;
}
