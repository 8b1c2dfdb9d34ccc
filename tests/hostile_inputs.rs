//! Hostile-input regression tests: small request bodies whose pipeline
//! cost once grew quadratically must finish within a time budget.
//!
//! The budget is generous enough for an unoptimized test build on a slow
//! host. A quadratic trim blows through it by orders of magnitude: a
//! 20,000-buffer chain takes minutes there.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use gnn4ip::dfg::graph_with_report;

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
