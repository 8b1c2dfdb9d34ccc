//! The end-to-end DFG generation pipeline of the paper's Fig. 2:
//! preprocess → parse → data-flow analysis → merge → trim.

use gnn4ip_hdl::ParseVerilogError;

use crate::extract::extract;
use crate::graph::Dfg;
use crate::trim::{trim, TrimStats};

/// Summary of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineReport {
    /// Nodes in the final (trimmed) graph.
    pub nodes: usize,
    /// Edges in the final graph.
    pub edges: usize,
    /// Output roots.
    pub roots: usize,
    /// What trimming removed.
    pub trim: TrimStats,
}

/// Runs the full Fig. 2 pipeline on Verilog source text.
///
/// `top` selects the root module; `None` auto-detects (the module nothing
/// else instantiates). Works for both RTL and gate-level netlists — the
/// paper's two abstraction levels.
///
/// # Errors
///
/// Propagates preprocessing, parse, and elaboration errors from
/// [`gnn4ip_hdl`], and rejects a design without outputs, whose trimmed
/// graph is empty.
///
/// # Examples
///
/// ```
/// use gnn4ip_dfg::graph_from_verilog;
///
/// let g = graph_from_verilog(
///     "module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// assert_eq!(g.roots().len(), 1);
/// assert_eq!(g.node_count(), 3); // y -> ~ -> a
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn graph_from_verilog(source: &str, top: Option<&str>) -> Result<Dfg, ParseVerilogError> {
    Ok(graph_with_report(source, top)?.0)
}

/// Like [`graph_from_verilog`] but also returns pipeline statistics.
///
/// # Errors
///
/// Same conditions as [`graph_from_verilog`].
pub fn graph_with_report(
    source: &str,
    top: Option<&str>,
) -> Result<(Dfg, PipelineReport), ParseVerilogError> {
    let flat = gnn4ip_hdl::elaborate(source, top)?;
    let mut g = extract(&flat);
    let trim_stats = trim(&mut g);
    if g.node_count() == 0 {
        // trim keeps every output root, so only an output-free design
        // ends up here; its empty graph has nothing to embed or compare
        return Err(ParseVerilogError::msg(format!(
            "design '{}' has no outputs: its data-flow graph is empty",
            g.name()
        )));
    }
    let report = PipelineReport {
        nodes: g.node_count(),
        edges: g.edge_count(),
        roots: g.roots().len(),
        trim: trim_stats,
    };
    Ok((g, report))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn both_fig1_adders_produce_rooted_dfgs() {
        let (g1, r1) = graph_with_report(ADDER_RTL, None).expect("rtl");
        let (g2, r2) = graph_with_report(ADDER_GATES, None).expect("gates");
        assert_eq!(r1.roots, 2);
        assert_eq!(r2.roots, 2);
        // same behaviour, different topology (the paper's motivating point)
        assert_ne!(g1.node_count(), g2.node_count());
        // every non-root reaches a root
        for g in [&g1, &g2] {
            let mask = g.reachable_from_roots();
            assert!(mask.iter().all(|&m| m), "trim left unreachable nodes");
        }
    }

    #[test]
    fn hierarchical_design_goes_through_pipeline() {
        let src = "
            module ha(input a, input b, output s, output c);
              xor (s, a, b);
              and (c, a, b);
            endmodule
            module fa(input x, input y, input cin, output sum, output cout);
              wire s1, c1, c2;
              ha h1(.a(x), .b(y), .s(s1), .c(c1));
              ha h2(.a(s1), .b(cin), .s(sum), .c(c2));
              or (cout, c1, c2);
            endmodule";
        let g = graph_from_verilog(src, Some("fa")).expect("pipeline");
        assert_eq!(g.roots().len(), 2);
        assert!(g.node_count() >= 10);
    }

    #[test]
    fn parse_error_propagates() {
        assert!(graph_from_verilog("module broken(", None).is_err());
    }

    #[test]
    fn design_without_outputs_is_an_error() {
        let err = graph_from_verilog(
            "module m(input a, input b); wire t; assign t = a & b; endmodule",
            None,
        )
        .expect_err("no outputs");
        assert!(err.to_string().contains("no outputs"), "{err}");
    }

    #[test]
    fn report_counts_match_graph() {
        let (g, r) = graph_with_report(ADDER_GATES, None).expect("ok");
        assert_eq!(r.nodes, g.node_count());
        assert_eq!(r.edges, g.edge_count());
    }
}
