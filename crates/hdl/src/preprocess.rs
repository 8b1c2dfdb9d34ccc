//! Verilog source preprocessing — phase 1 of the paper's Fig. 2 pipeline.
//!
//! Strips comments and attributes, resolves `` `define `` text macros,
//! drops non-semantic compiler directives (`` `timescale ``,
//! `` `celldefine ``, ...), and resolves `` `include `` against a
//! caller-supplied virtual filesystem (the reproduction never touches the
//! real filesystem from library code).

use std::collections::HashMap;

use crate::ParseVerilogError;

/// A virtual include resolver: maps an include path to source text.
pub type IncludeMap = HashMap<String, String>;

/// Preprocesses Verilog source text.
///
/// Supported directives: `` `define NAME body ``, `` `undef NAME ``,
/// `` `include "file" `` (resolved via `includes`), `` `ifdef/`ifndef/`else/`endif ``.
/// Unknown directives (e.g. `` `timescale ``) are dropped to end of line.
/// Comments (`//` and `/* */`) are removed; `(* attributes *)` are removed.
///
/// # Errors
///
/// Returns an error on unterminated block comments, missing include files,
/// or unbalanced conditional directives.
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::preprocess;
///
/// let out = preprocess("`define W 8\nwire [`W-1:0] x; // tail", &Default::default())?;
/// assert_eq!(out.trim(), "wire [ 8 -1:0] x;");
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn preprocess(source: &str, includes: &IncludeMap) -> Result<String, ParseVerilogError> {
    let mut no_comments = strip_comments(source)?;
    if !no_comments.bytes().any(|b| b == b'`' || b == b'\r') {
        // no directive, macro use or CRLF: expanding would copy every line
        // through unchanged and end the last one with a newline
        if !no_comments.is_empty() && !no_comments.ends_with('\n') {
            no_comments.push('\n');
        }
        return Ok(no_comments);
    }
    let mut macros: HashMap<String, String> = HashMap::new();
    let mut out = String::with_capacity(no_comments.len());
    // Stack of "currently emitting" flags for ifdef nesting.
    let mut emit_stack: Vec<bool> = Vec::new();
    expand(
        &no_comments,
        includes,
        &mut macros,
        &mut emit_stack,
        &mut out,
        0,
    )?;
    if !emit_stack.is_empty() {
        return Err(ParseVerilogError::msg("unterminated `ifdef"));
    }
    Ok(out)
}

fn emitting(stack: &[bool]) -> bool {
    stack.iter().all(|&b| b)
}

fn expand(
    source: &str,
    includes: &IncludeMap,
    macros: &mut HashMap<String, String>,
    emit_stack: &mut Vec<bool>,
    out: &mut String,
    depth: usize,
) -> Result<(), ParseVerilogError> {
    if depth > 16 {
        return Err(ParseVerilogError::msg("include/macro nesting too deep"));
    }
    for line in source.lines() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('`') {
            let (word, tail) = split_word(rest);
            match word {
                "define" if emitting(emit_stack) => {
                    let (name, body) = split_word(tail.trim_start());
                    if name.is_empty() {
                        return Err(ParseVerilogError::msg("`define without a name"));
                    }
                    macros.insert(name.to_string(), body.trim().to_string());
                }
                "undef" if emitting(emit_stack) => {
                    let (name, _) = split_word(tail.trim_start());
                    macros.remove(name);
                }
                "include" if emitting(emit_stack) => {
                    let path = tail
                        .trim()
                        .trim_matches('"')
                        .trim_matches(|c| c == '<' || c == '>');
                    let body = includes.get(path).ok_or_else(|| {
                        ParseVerilogError::msg(format!("include file not found: {path}"))
                    })?;
                    let body = strip_comments(body)?;
                    expand(&body, includes, macros, emit_stack, out, depth + 1)?;
                }
                "ifdef" => {
                    let (name, _) = split_word(tail.trim_start());
                    emit_stack.push(macros.contains_key(name));
                }
                "ifndef" => {
                    let (name, _) = split_word(tail.trim_start());
                    emit_stack.push(!macros.contains_key(name));
                }
                "else" => {
                    let top = emit_stack
                        .last_mut()
                        .ok_or_else(|| ParseVerilogError::msg("`else without `ifdef"))?;
                    *top = !*top;
                }
                "endif" => {
                    emit_stack
                        .pop()
                        .ok_or_else(|| ParseVerilogError::msg("`endif without `ifdef"))?;
                }
                // `timescale, `celldefine, `default_nettype, ... : drop line
                _ => {}
            }
            out.push('\n');
            continue;
        }
        if emitting(emit_stack) {
            substitute_macros(line, macros, out);
        }
        out.push('\n');
    }
    Ok(())
}

/// Splits off the leading identifier-like word.
fn split_word(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
        .map_or(s.len(), |(i, _)| i);
    (&s[..end], &s[end..])
}

/// Appends `line` to `out` with `` `NAME `` occurrences replaced by macro
/// bodies (one level; bodies are themselves re-scanned once to support
/// simple chained defines).
fn substitute_macros(line: &str, macros: &HashMap<String, String>, out: &mut String) {
    if !line.contains('`') {
        out.push_str(line);
        return;
    }
    let mut cur = line.to_string();
    for _ in 0..4 {
        if !cur.contains('`') {
            break;
        }
        let mut next = String::with_capacity(cur.len());
        let mut rest = cur.as_str();
        while let Some(pos) = rest.find('`') {
            next.push_str(&rest[..pos]);
            let after = &rest[pos + 1..];
            let (name, tail) = split_word(after);
            if let Some(body) = macros.get(name) {
                next.push(' ');
                next.push_str(body);
                next.push(' ');
            } else {
                // Unknown macro mid-line: drop the tick, keep the name so the
                // parser reports a sensible identifier error.
                next.push_str(name);
            }
            rest = tail;
        }
        next.push_str(rest);
        if next == cur {
            break;
        }
        cur = next;
    }
    out.push_str(&cur);
}

/// Removes `//`, `/* */` comments and `(* ... *)` attribute blocks while
/// preserving line structure (newlines inside block comments are kept so
/// spans stay accurate). Everything else, string literals included, is
/// copied through verbatim in runs between comments.
fn strip_comments(source: &str) -> Result<String, ParseVerilogError> {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    // start of the pending verbatim run; every cut is at an ASCII byte
    let mut run = 0;
    let mut i = 0;
    while let Some(skip) = bytes[i..]
        .iter()
        .position(|&b| matches!(b, b'/' | b'(' | b'"'))
    {
        i += skip;
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == b'/' && next == Some(b'/') {
            out.push_str(&source[run..i]);
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            run = i;
        } else if c == b'/' && next == Some(b'*') {
            out.push_str(&source[run..i]);
            i = skip_block(bytes, i + 2, b'/', &mut out)
                .ok_or_else(|| ParseVerilogError::msg("unterminated block comment"))?;
            run = i;
        } else if c == b'(' && next == Some(b'*') && bytes.get(i + 2) != Some(&b')') {
            // attribute block (* ... *) — but never the `@(*)` wildcard
            out.push_str(&source[run..i]);
            i = skip_block(bytes, i + 2, b')', &mut out)
                .ok_or_else(|| ParseVerilogError::msg("unterminated attribute block"))?;
            run = i;
        } else if c == b'"' {
            // string literal: skip to the closing quote, escapes included
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    i += 1;
                }
                i += 1;
            }
            i = (i + 1).min(bytes.len());
        } else {
            i += 1;
        }
    }
    out.push_str(&source[run..]);
    Ok(out)
}

/// Skips a block comment body starting at `i` up to and including the
/// closing `*` + `close`, appending one `\n` to `out` per newline inside.
/// Returns the index just past the block, or `None` if it never closes.
fn skip_block(bytes: &[u8], mut i: usize, close: u8, out: &mut String) -> Option<usize> {
    loop {
        if i + 1 >= bytes.len() {
            return None;
        }
        if bytes[i] == b'*' && bytes[i + 1] == close {
            return Some(i + 2);
        }
        if bytes[i] == b'\n' {
            out.push('\n');
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = "a // x\nb /* y\nz */ c";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert_eq!(out, "a \nb \n c\n");
    }

    #[test]
    fn string_literal_utf8_survives() {
        let out = preprocess("x = \"h\u{e9}llo // \\\"\"; // c\n", &IncludeMap::new()).expect("ok");
        assert_eq!(out, "x = \"h\u{e9}llo // \\\"\"; \n");
    }

    #[test]
    fn strips_attributes() {
        let out = preprocess("(* keep *) wire w;", &IncludeMap::new()).expect("ok");
        assert_eq!(out.trim(), "wire w;");
    }

    #[test]
    fn define_and_substitute() {
        let out = preprocess("`define N 4\nwire [`N:0] x;", &IncludeMap::new()).expect("ok");
        assert!(out.contains("[ 4 :0]"), "{out:?}");
    }

    #[test]
    fn undef_removes_macro() {
        let s = "`define N 4\n`undef N\n`ifdef N\nyes\n`else\nno\n`endif";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert!(!out.contains("yes"));
        assert!(out.contains("no"));
    }

    #[test]
    fn ifdef_controls_emission() {
        let s = "`define A\n`ifdef A\nkept\n`endif\n`ifdef B\ndropped\n`endif";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert!(out.contains("kept"));
        assert!(!out.contains("dropped"));
    }

    #[test]
    fn include_resolves_from_map() {
        let mut inc = IncludeMap::new();
        inc.insert("defs.vh".to_string(), "`define W 16".to_string());
        let out = preprocess("`include \"defs.vh\"\nwire [`W-1:0] bus;", &inc).expect("ok");
        assert!(out.contains("[ 16 -1:0]"), "{out:?}");
    }

    #[test]
    fn missing_include_is_an_error() {
        let err = preprocess("`include \"nope.vh\"", &IncludeMap::new()).unwrap_err();
        assert!(err.to_string().contains("nope.vh"));
    }

    #[test]
    fn unknown_directives_are_dropped() {
        let out = preprocess("`timescale 1ns/1ps\nwire x;", &IncludeMap::new()).expect("ok");
        assert!(!out.contains("timescale"));
        assert!(out.contains("wire x;"));
    }

    #[test]
    fn unterminated_ifdef_errors() {
        assert!(preprocess("`ifdef X\n", &IncludeMap::new()).is_err());
    }

    #[test]
    fn line_numbers_preserved_through_block_comment() {
        let s = "line1 /* c\nc\nc */ line2";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert_eq!(out.matches('\n').count(), 3);
    }
}
