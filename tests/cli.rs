//! Regression tests that drive the `gnn4ip` binary itself: inputs that once
//! killed a subcommand must come back as typed, per-design errors.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule\n";
/// No output ports: trim leaves an empty graph, which cannot be embedded.
const NO_OUTPUTS: &str = "module m(input a, input b); wire t; assign t = a & b; endmodule\n";

/// A fresh scratch directory holding `inv.v` and `m.v`.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn4ip-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    std::fs::write(dir.join("inv.v"), INV).expect("write inv.v");
    std::fs::write(dir.join("m.v"), NO_OUTPUTS).expect("write m.v");
    dir
}

fn gnn4ip(dir: &Path, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gnn4ip"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gnn4ip");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("gnn4ip runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn ingest_rejects_a_design_without_outputs() {
    let dir = workdir("ingest");
    let out = gnn4ip(&dir, &["ingest", "inv.v", "m.v", "--index", "c.g4a"], "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
    assert!(
        stdout(&out).contains("ingested=1 rejected=1"),
        "{}",
        stdout(&out)
    );
    assert!(stderr.contains("rejected m.v: ") && stderr.contains("no outputs"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_and_serve_answer_a_design_without_outputs_with_an_error() {
    let dir = workdir("audit");
    let ingest = gnn4ip(&dir, &["ingest", "inv.v", "--index", "c.g4a"], "");
    assert!(ingest.status.success(), "{ingest:?}");

    let audit = gnn4ip(&dir, &["audit", "m.v", "inv.v", "--index", "c.g4a"], "");
    assert!(audit.status.success(), "{audit:?}");
    let text = stdout(&audit);
    assert!(
        text.lines()
            .any(|l| l.starts_with("ERR     m.v") && l.contains("no outputs")),
        "{text}"
    );
    assert!(text.contains("inv.v  best=inv.v:"), "{text}");
    assert!(
        text.contains("audited=1 ") && text.trim_end().ends_with("rejected=1"),
        "{text}"
    );

    // the valid AUDIT queued behind the bad one still gets its verdict
    let requests = format!("AUDIT bad\n{NO_OUTPUTS}.\nAUDIT good\n{INV}.\nSHUTDOWN\n");
    let serve = gnn4ip(&dir, &["serve", "--index", "c.g4a"], &requests);
    assert!(serve.status.success(), "{serve:?}");
    let text = stdout(&serve);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(
        lines[0].starts_with("ERR audit bad: ") && lines[0].contains("no outputs"),
        "{text}"
    );
    assert!(lines[1].starts_with("VERDICT good "), "{text}");
    assert_eq!(lines[2], "OK bye");
    let _ = std::fs::remove_dir_all(&dir);
}
