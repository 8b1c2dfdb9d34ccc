//! The taint phase: `untrusted-alloc`, `len-overflow`, and
//! `error-swallow`.
//!
//! The serving pillar accepts bytes from strangers — serve-protocol
//! request bodies, G4IP artifacts loaded off disk, CLI file/stdin
//! input. A hostile length field must never become an OOM or a silent
//! wraparound, so this rule asks the question no per-line lint can:
//! *can untrusted data reach a dangerous sink without passing a bound
//! check?* The interprocedural fixpoint lives in
//! [`SymbolGraph::compute_taint`]; this module owns the registries
//! (what is a source, what sanitizes, what sinks) and turns tainted
//! sink reaches into violations:
//!
//! - `untrusted-alloc` — a tainted count flows into
//!   `Vec::with_capacity(n)` / `vec![x; n]` / `reserve(n)`, or tainted
//!   data is appended via `push_str` in a fn that enforces no
//!   registered size limit.
//! - `len-overflow` — tainted operands in unchecked `usize` length
//!   arithmetic (`rows * dim`); a wrapped product passes a smaller
//!   allocation and the element loop then indexes out of bounds or
//!   builds a plausible-looking truncated artifact.
//! - `error-swallow` — a `Result` from a fallible parse of untrusted
//!   data discarded via `let _ =` / `.ok()`: hostile input that fails
//!   to parse must be reported, not silently defaulted.
//!
//! Taint *propagates* workspace-wide but violations are *reported*
//! only in [`TAINT_CRITICAL_PATHS`] — the ingestion files whose sinks
//! face raw input. Suppressions carry the concrete bound:
//!
//! ```text
//! // g4check: allow(untrusted-alloc): count_of caps rows at remaining()/4
//! let mut data = Vec::with_capacity(rows);
//! ```
//!
//! Registries follow the format-registry honesty convention: on the
//! live workspace (detected by this file being in the index) a source
//! row naming a missing fn, a sanitizer or source callee that no call
//! site uses, or a limit no comparison mentions is itself a violation,
//! so the tables cannot silently rot.

use std::path::PathBuf;

use crate::graph::{SymbolGraph, TaintConfig};
use crate::index::WorkspaceIndex;
use crate::lint::{Rule, Violation};

/// Files whose sinks face untrusted input: violations are reported
/// here. Taint still propagates through every workspace fn.
pub const TAINT_CRITICAL_PATHS: &[&str] = &[
    "crates/core/src/service.rs",
    "crates/eval/src/manifest.rs",
    "crates/tensor/src/serialize.rs",
    "src/bin/gnn4ip.rs",
];

/// Trust boundaries: (file, fn display name) rows whose parameters and
/// results carry untrusted bytes. Every `BinReader` read is a source —
/// artifact bytes come off disk or the wire and the kind/version
/// header authenticates nothing. `count_of` is deliberately absent: it
/// is the checked-`take` discipline (caps the count by
/// `remaining() / min_elem_bytes`) and registered as a sanitizer.
pub const TAINT_SOURCES: &[(&str, &str)] = &[
    ("crates/core/src/service.rs", "read_body"),
    ("crates/tensor/src/serialize.rs", "BinReader::open"),
    (
        "crates/tensor/src/serialize.rs",
        "BinReader::open_versioned",
    ),
    ("crates/tensor/src/serialize.rs", "BinReader::u8"),
    ("crates/tensor/src/serialize.rs", "BinReader::u32"),
    ("crates/tensor/src/serialize.rs", "BinReader::u64"),
    ("crates/tensor/src/serialize.rs", "BinReader::len_of"),
    ("crates/tensor/src/serialize.rs", "BinReader::f32"),
    ("crates/tensor/src/serialize.rs", "BinReader::str"),
    ("crates/tensor/src/serialize.rs", "BinReader::bytes"),
    ("crates/tensor/src/serialize.rs", "BinReader::matrix"),
    ("crates/tensor/src/serialize.rs", "read_artifact"),
    ("src/bin/gnn4ip.rs", "read_sources"),
];

/// External callee names whose results are untrusted wherever they are
/// called: raw file and stream reads outside the workspace.
pub const TAINT_SOURCE_CALLEES: &[&str] = &["read_to_string"];

/// Callee names whose results are never tainted: each returns a value
/// bounded by a trusted operand (`min`, `clamp`, the checked-`take`
/// discipline of `count_of`) or a checked result whose `Err` forces
/// explicit handling (`checked_mul`, `try_into`).
pub const TAINT_SANITIZERS: &[&str] = &[
    "min",
    "clamp",
    "checked_mul",
    "checked_add",
    "try_into",
    "count_of",
];

/// Limit idents: comparing a variable against one clears its taint for
/// the whole fn — the comparison is the bound the fn enforces.
pub const TAINT_LIMITS: &[&str] = &[
    "max_body_bytes",
    "MAX_DIM",
    "MAX_SHARD_ROWS",
    "MAX_EXPR_DEPTH",
];

/// Callees whose first argument is an allocation count.
pub const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// Callees whose discarded `Result` is an `error-swallow`: parsers of
/// untrusted data where `Err` means hostile or corrupt input.
pub const FALLIBLE_PARSERS: &[&str] = &["parse", "from_str", "open", "open_versioned"];

/// The analyzer's own source file: present in the index only on the
/// live workspace, where the registry honesty checks apply. Fixture
/// workspaces place files at critical paths without the registered
/// fns, so the checks must not fire there.
const SELF_PATH: &str = "crates/analysis/src/rules/taint.rs";

/// Runs the three taint rules over the whole graph.
pub fn check(index: &WorkspaceIndex, graph: &SymbolGraph<'_>) -> Vec<Violation> {
    let cfg = TaintConfig {
        source_fns: TAINT_SOURCES,
        source_callees: TAINT_SOURCE_CALLEES,
        sanitizers: TAINT_SANITIZERS,
        limits: TAINT_LIMITS,
    };
    let tainted = graph.compute_taint(&cfg);

    let mut violations = Vec::new();
    for (i, (path, f)) in graph.fns.iter().enumerate() {
        if f.is_test || !TAINT_CRITICAL_PATHS.contains(path) {
            continue;
        }
        let Some(fi) = index.files.get(*path) else {
            continue;
        };
        let display = f.display();
        // a fn that compares anything against a registered limit is
        // taken to enforce that limit on its growth path
        let enforces_limit = f.flows.iter().any(|d| {
            d.what
                .strip_prefix("cmp:")
                .is_some_and(|l| TAINT_LIMITS.contains(&l))
        });

        for (ci, call) in f.calls.iter().enumerate() {
            let count_arg = format!("a:{ci}:0");
            if ALLOC_SINKS.contains(&call.callee.as_str())
                && tainted[i].contains(&count_arg)
                && !fi.allowed(call.line, Rule::UntrustedAlloc.name())
            {
                violations.push(Violation {
                    rule: Rule::UntrustedAlloc,
                    path: PathBuf::from(*path),
                    line: call.line as usize,
                    message: format!(
                        "untrusted count reaches `{}` in `{display}`; bound it against a \
                         registered limit (or `min`/`count_of`) first, or annotate with \
                         '// g4check: allow(untrusted-alloc): <the bound that holds>'",
                        call.callee,
                    ),
                });
            }
            if call.callee == "push_str"
                && !enforces_limit
                && tainted[i].contains(&count_arg)
                && !fi.allowed(call.line, Rule::UntrustedAlloc.name())
            {
                violations.push(Violation {
                    rule: Rule::UntrustedAlloc,
                    path: PathBuf::from(*path),
                    line: call.line as usize,
                    message: format!(
                        "`{display}` grows a buffer with untrusted `push_str` and enforces \
                         no registered limit; compare the projected size against a \
                         TAINT_LIMITS bound before appending, or annotate with \
                         '// g4check: allow(untrusted-alloc): <the bound that holds>'",
                    ),
                });
            }
        }

        for d in &f.flows {
            let hot = |srcs: &[String]| srcs.iter().any(|s| tainted[i].contains(s));
            match d.what.as_str() {
                "alloc:vec!" => {
                    if hot(&d.srcs) && !fi.allowed(d.line, Rule::UntrustedAlloc.name()) {
                        violations.push(Violation {
                            rule: Rule::UntrustedAlloc,
                            path: PathBuf::from(*path),
                            line: d.line as usize,
                            message: format!(
                                "untrusted repeat count in `vec![_; n]` in `{display}`; \
                                 bound it first or annotate with \
                                 '// g4check: allow(untrusted-alloc): <the bound that holds>'",
                            ),
                        });
                    }
                }
                "arith:*" => {
                    if !f.sig_float && hot(&d.srcs) && !fi.allowed(d.line, Rule::LenOverflow.name())
                    {
                        violations.push(Violation {
                            rule: Rule::LenOverflow,
                            path: PathBuf::from(*path),
                            line: d.line as usize,
                            message: format!(
                                "unchecked `*` on untrusted operands in `{display}` can wrap; \
                                 use `checked_mul` or bound both operands, or annotate with \
                                 '// g4check: allow(len-overflow): <the bound that holds>'",
                            ),
                        });
                    }
                }
                _ => {
                    let Some(callee) = d
                        .what
                        .strip_prefix("discard:")
                        .or_else(|| d.what.strip_prefix("ok:"))
                    else {
                        continue;
                    };
                    if FALLIBLE_PARSERS.contains(&callee)
                        && hot(&d.srcs)
                        && !fi.allowed(d.line, Rule::ErrorSwallow.name())
                    {
                        violations.push(Violation {
                            rule: Rule::ErrorSwallow,
                            path: PathBuf::from(*path),
                            line: d.line as usize,
                            message: format!(
                                "`{display}` discards the `Result` of `{callee}` on untrusted \
                                 data; propagate or handle the error, or annotate with \
                                 '// g4check: allow(error-swallow): <why Err is impossible>'",
                            ),
                        });
                    }
                }
            }
        }
    }

    if index.files.contains_key(SELF_PATH) {
        violations.extend(staleness(index, graph));
    }
    violations
}

/// Registry honesty: every row must still match something real.
fn staleness(index: &WorkspaceIndex, graph: &SymbolGraph<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (path, fn_display) in TAINT_SOURCES {
        let live = index
            .files
            .get(*path)
            .is_some_and(|fi| fi.fns.iter().any(|f| f.display() == *fn_display));
        if !live {
            violations.push(Violation {
                rule: Rule::UntrustedAlloc,
                path: PathBuf::from(*path),
                line: 0,
                message: format!(
                    "TAINT_SOURCES registers `{fn_display}` but no such fn exists; \
                     remove the stale row or restore the trust boundary",
                ),
            });
        }
    }
    let called = |name: &str| {
        graph
            .fns
            .iter()
            .any(|(_, f)| f.calls.iter().any(|c| c.callee == name))
    };
    for name in TAINT_SANITIZERS {
        if !called(name) {
            violations.push(Violation {
                rule: Rule::UntrustedAlloc,
                path: PathBuf::from(SELF_PATH),
                line: 0,
                message: format!(
                    "TAINT_SANITIZERS registers `{name}` but no call site uses it; \
                     a sanitizer nothing calls only hides future findings — remove the row",
                ),
            });
        }
    }
    for name in TAINT_SOURCE_CALLEES {
        if !called(name) {
            violations.push(Violation {
                rule: Rule::UntrustedAlloc,
                path: PathBuf::from(SELF_PATH),
                line: 0,
                message: format!(
                    "TAINT_SOURCE_CALLEES registers `{name}` but no call site uses it; \
                     remove the stale row",
                ),
            });
        }
    }
    for name in TAINT_LIMITS {
        let compared = graph.fns.iter().any(|(_, f)| {
            f.flows
                .iter()
                .any(|d| d.what.strip_prefix("cmp:") == Some(name))
        });
        if !compared {
            violations.push(Violation {
                rule: Rule::UntrustedAlloc,
                path: PathBuf::from(SELF_PATH),
                line: 0,
                message: format!(
                    "TAINT_LIMITS registers `{name}` but no comparison mentions it; \
                     a limit nothing checks against clears no taint — remove the row",
                ),
            });
        }
    }
    violations
}
