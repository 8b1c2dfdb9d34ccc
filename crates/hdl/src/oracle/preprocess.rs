//! The preprocessor as it was before slice-based copying: the oracle
//! `preprocess` must match on every input whose bytes are ASCII.

use std::collections::HashMap;

use crate::{IncludeMap, ParseVerilogError};

pub(super) fn preprocess(source: &str, includes: &IncludeMap) -> Result<String, ParseVerilogError> {
    let no_comments = strip_comments(source)?;
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
            out.push_str(&substitute_macros(line, macros));
        }
        out.push('\n');
    }
    Ok(())
}

fn split_word(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
        .map_or(s.len(), |(i, _)| i);
    (&s[..end], &s[end..])
}

fn substitute_macros(line: &str, macros: &HashMap<String, String>) -> String {
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
    cur
}

fn strip_comments(source: &str) -> Result<String, ParseVerilogError> {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            i += 2;
            loop {
                if i + 1 >= bytes.len() {
                    let _ = start;
                    return Err(ParseVerilogError::msg("unterminated block comment"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    break;
                }
                if bytes[i] == b'\n' {
                    out.push('\n');
                }
                i += 1;
            }
        } else if c == b'('
            && i + 1 < bytes.len()
            && bytes[i + 1] == b'*'
            && bytes.get(i + 2) != Some(&b')')
        {
            // attribute block (* ... *) — but never the `@(*)` wildcard
            i += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(ParseVerilogError::msg("unterminated attribute block"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b')' {
                    i += 2;
                    break;
                }
                if bytes[i] == b'\n' {
                    out.push('\n');
                }
                i += 1;
            }
        } else if c == b'"' {
            // string literal: copy verbatim
            out.push('"');
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    out.push(bytes[i] as char);
                    i += 1;
                }
                out.push(bytes[i] as char);
                i += 1;
            }
            if i < bytes.len() {
                out.push('"');
                i += 1;
            }
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    Ok(out)
}
