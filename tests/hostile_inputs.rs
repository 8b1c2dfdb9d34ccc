//! Hostile-input regression tests: small request bodies whose pipeline
//! cost once grew quadratically must finish within a time budget, and
//! expressions too deep to walk safely must be typed errors, not stack
//! overflows that abort the process.
//!
//! The budget is generous enough for an unoptimized test build on a slow
//! host. A quadratic trim blows through it by orders of magnitude: a
//! 20,000-buffer chain takes minutes there.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use gnn4ip::dfg::graph_with_report;
use gnn4ip::hdl::MAX_EXPR_DEPTH;
use gnn4ip::{run_service, AuditConfig, AuditPipeline, Gnn4Ip, ServiceConfig};

const BUDGET: Duration = Duration::from_secs(60);
const WIDTH: usize = 20_000;

/// Runs the Fig. 2 pipeline on `source` on its own thread and returns
/// `(nodes, collapsed)`, failing the test if it overruns [`BUDGET`].
fn pipeline_within_budget(source: String) -> (usize, usize) {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let _done = done_tx; // disconnects the channel on return or panic
        graph_with_report(&source, None).map(|(_, r)| (r.nodes, r.trim.passthrough_collapsed))
    });
    if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(BUDGET) {
        panic!("pipeline did not finish within {BUDGET:?}");
    }
    worker
        .join()
        .expect("pipeline thread panicked")
        .expect("pipeline accepts the design")
}

/// `y = buf(buf(…buf(a)…))` as a chain of `WIDTH` buffer gates.
#[test]
fn long_buffer_chain_trims_within_budget() {
    let mut src = String::from("module chain(input a, output y);\n  buf (w0, a);\n");
    for i in 1..WIDTH {
        src.push_str(&format!("  buf (w{i}, w{});\n", i - 1));
    }
    src.push_str(&format!("  buf (y, w{});\nendmodule\n", WIDTH - 1));
    let (nodes, collapsed) = pipeline_within_budget(src);
    // every gate collapses; the wires between them remain
    assert_eq!(collapsed, WIDTH + 1);
    assert_eq!(nodes, WIDTH + 2);
}

/// `y = {{a}, {a}, …}`: `WIDTH` single-operand concats fanning into one
/// concat, which itself collapses once they all forward to `a`.
#[test]
fn wide_passthrough_fan_in_trims_within_budget() {
    let parts = vec!["{a}"; WIDTH].join(", ");
    let src = format!("module fan(input a, output y);\n  assign y = {{{parts}}};\nendmodule\n");
    let (nodes, collapsed) = pipeline_within_budget(src);
    assert_eq!(collapsed, WIDTH + 1);
    assert_eq!(nodes, 2, "y -> a");
}

const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";

/// `module m(input a, output y); assign y = <expr>; endmodule`
fn assign_body(expr: &str) -> String {
    format!("module m(input a, output y);\n  assign y = {expr};\nendmodule")
}

/// `a` inside `levels` pairs of parentheses.
fn parens(levels: usize) -> String {
    format!("{}a{}", "(".repeat(levels), ")".repeat(levels))
}

/// `a & a & … & a` with `terms` operands.
fn and_chain(terms: usize) -> String {
    vec!["a"; terms].join(" & ")
}

/// Sends each `(name, body)` as an AUDIT to a one-worker service after
/// ingesting [`INV`], and returns the response to each audit in order.
fn audit_all(bodies: &[(&str, String)]) -> Vec<String> {
    let mut input = format!("INGEST inv\n{INV}\n.\nPUBLISH\n");
    for (name, body) in bodies {
        input.push_str(&format!("AUDIT {name}\n{body}\n.\n"));
    }
    input.push_str("SHUTDOWN\n");
    let mut pipeline = AuditPipeline::new(
        Gnn4Ip::with_seed(6),
        AuditConfig {
            threads: 1,
            ..AuditConfig::default()
        },
    );
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let mut out: Vec<u8> = Vec::new();
    run_service(&mut pipeline, &config, input.as_bytes(), &mut out).expect("service runs");
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    // INGEST and PUBLISH answer first, SHUTDOWN last
    assert_eq!(lines.len(), bodies.len() + 3, "{text}");
    lines[2..lines.len() - 1].to_vec()
}

/// 1,000 nested parentheses once overflowed a worker's stack and aborted
/// `gnn4ip serve`; now the AUDIT gets a typed error naming the limit and
/// the AUDIT behind it is still answered.
#[test]
fn deep_parens_audit_is_an_error_and_the_service_lives() {
    let replies = audit_all(&[
        ("deep", assign_body(&parens(1_000))),
        ("next", INV.to_string()),
    ]);
    assert!(replies[0].starts_with("ERR audit deep:"), "{}", replies[0]);
    assert!(replies[0].contains("MAX_EXPR_DEPTH"), "{}", replies[0]);
    assert!(replies[1].starts_with("VERDICT next "), "{}", replies[1]);
}

/// A flat 10,000-term `&` chain builds a left-deep tree that once
/// overflowed the stack of every walk over it.
#[test]
fn long_operator_chain_audit_is_an_error_and_the_service_lives() {
    let replies = audit_all(&[
        ("chain", assign_body(&and_chain(10_000))),
        ("next", INV.to_string()),
    ]);
    assert!(replies[0].starts_with("ERR audit chain:"), "{}", replies[0]);
    assert!(replies[0].contains("MAX_EXPR_DEPTH"), "{}", replies[0]);
    assert!(replies[1].starts_with("VERDICT next "), "{}", replies[1]);
}

/// Expressions exactly `MAX_EXPR_DEPTH` levels deep go through the whole
/// pipeline on a thread with the default stack (the service's worker
/// threads have no larger one); one level more is rejected.
#[test]
fn expressions_at_the_depth_limit_are_accepted_on_a_default_stack() {
    let deepest = MAX_EXPR_DEPTH as usize - 1;
    let unary = format!("{}a", "~".repeat(deepest));
    let accepted = [parens(deepest), and_chain(deepest + 1), unary];
    std::thread::spawn(move || {
        for expr in &accepted {
            let (g, _) = graph_with_report(&assign_body(expr), None).expect("accepted");
            assert!(g.node_count() >= 2);
        }
        for expr in [parens(deepest + 1), and_chain(deepest + 2)] {
            let err = graph_with_report(&assign_body(&expr), None).expect_err("one too deep");
            assert!(err.to_string().contains("MAX_EXPR_DEPTH"), "{err}");
        }
    })
    .join()
    .expect("pipeline thread panicked");
    let replies = audit_all(&[("deepest", assign_body(&parens(deepest)))]);
    assert!(replies[0].starts_with("VERDICT deepest "), "{}", replies[0]);
}
