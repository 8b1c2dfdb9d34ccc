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

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn train_on_a_corpus_too_small_to_split_is_an_error() {
    let dir = workdir("train-tiny");
    // 0 and 1 pairs used to panic; 2 pairs left an empty test split and
    // reported a held-out accuracy of 0.0%
    for (designs, instances) in [("0", "5"), ("1", "1"), ("2", "1"), ("1", "2")] {
        let args = [
            "train",
            "--designs",
            designs,
            "--instances",
            instances,
            "--epochs",
            "1",
            "--out",
            "d.bin",
        ];
        let out = gnn4ip(&dir, &args, "");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}\n{err}");
        assert!(err.lines().any(|l| l.starts_with("error: ")), "{err}");
        assert!(!err.contains("accuracy"), "{err}");
        assert!(!dir.join("d.bin").exists(), "{args:?} wrote a detector");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trained_detector_is_a_binary_artifact_that_check_loads() {
    let dir = workdir("train-check");
    let args = [
        "train",
        "--designs",
        "3",
        "--instances",
        "2",
        "--epochs",
        "1",
        "--out",
        "d.bin",
    ];
    let train = gnn4ip(&dir, &args, "");
    assert!(train.status.success(), "{}", stderr(&train));
    let bytes = std::fs::read(dir.join("d.bin")).expect("detector written");
    assert!(bytes.starts_with(b"G4IP"), "not a G4IP artifact");

    std::fs::write(dir.join("b.v"), INV.replace("inv", "inv2")).expect("write b.v");
    let check = gnn4ip(&dir, &["check", "inv.v", "b.v", "--model", "d.bin"], "");
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(
        stdout(&check).starts_with("similarity "),
        "{}",
        stdout(&check)
    );

    // a text detector from an older build is not an artifact
    std::fs::write(dir.join("d.txt"), "delta 0.5\nhw2vec-model v1\n").expect("write d.txt");
    let check = gnn4ip(&dir, &["check", "inv.v", "b.v", "--model", "d.txt"], "");
    let err = stderr(&check);
    assert_eq!(check.status.code(), Some(1), "{err}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: ") && l.contains("bad magic")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_ranks_the_library_and_rejects_bad_inputs() {
    let dir = workdir("scan");
    std::fs::write(
        dir.join("x2.v"),
        "module x2(input a, input b, output y); assign y = a ^ b; endmodule\n",
    )
    .expect("write x2.v");
    std::fs::write(dir.join("bad.v"), "modul brok(input a);\n").expect("write bad.v");

    let out = gnn4ip(&dir, &["scan", "inv.v", "inv.v", "x2.v"], "");
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(lines[0], "+1.0000  PIRACY  inv.v", "{text}");
    assert!(lines[1].ends_with("  x2.v"), "{text}");

    // an unparsable library file names itself
    let out = gnn4ip(&dir, &["scan", "inv.v", "inv.v", "bad.v"], "");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).lines().any(|l| l.starts_with("error: bad.v:")),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty());

    // an unparsable suspect, and a suspect without a library
    for args in [&["scan", "bad.v", "inv.v"][..], &["scan", "inv.v"]] {
        let out = gnn4ip(&dir, args, "");
        assert_eq!(out.status.code(), Some(1), "{args:?}\n{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_with_zero_queue_capacity_still_answers() {
    let dir = workdir("serve-zero-queue");
    let requests = format!("AUDIT a\n{INV}.\nSHUTDOWN\n");
    let out = gnn4ip(&dir, &["serve", "--queue-capacity", "0"], &requests);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("VERDICT a "), "{text}");
    assert_eq!(lines[1], "OK bye");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_value_flag_without_its_value_is_an_error() {
    let dir = workdir("dangling-flag");
    let out = gnn4ip(&dir, &["check", "inv.v", "inv.v", "--model"], "");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out)
            .lines()
            .any(|l| l == "error: --model needs a value"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    // a bare switch at the end is still fine
    let out = gnn4ip(&dir, &["ingest", "inv.v", "--check"], "");
    assert!(out.status.success(), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
