//! Stable content fingerprints for hardware designs.
//!
//! The embedding cache in `gnn4ip-core` keys on *what a design says*, not
//! on pointer identity or raw source bytes: the fingerprint hashes the
//! **preprocessed, lexed token stream** (comments stripped,
//! `` `define``/`` `include`` resolved, whitespace gone) together with the
//! requested top module. Two submissions that differ only in comments,
//! macro spellings, or formatting therefore share a cache entry, while any
//! change that could alter the elaborated design changes the key.
//!
//! The hash is FNV-1a/64 — a fixed, platform-independent function, unlike
//! `std::hash`'s `DefaultHasher` whose output may change between releases.
//! Fingerprints are safe to persist alongside serialized detectors.
//!
//! **Not collision-resistant against adversaries.** FNV-1a is a speed/
//! stability choice: a submitter who can choose their source bytes can
//! engineer a 64-bit collision with a known cached design and be served
//! its embedding. Accidental collisions are negligible at library scale
//! (~10⁻¹⁰ at 10⁵ designs), but deployments that accept *hostile*
//! submissions should clear the cache per tenant or swap in a keyed hash
//! before relying on cached verdicts.

use crate::error::ParseVerilogError;
use crate::lexer::lex;
use crate::preprocess::{preprocess, IncludeMap};
use crate::token::Token;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a/64 hasher with a stable, documented output.
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write(b"hello");
/// assert_eq!(h.finish(), 0xa430d84680aabd0b); // published FNV-1a test vector
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A stable 64-bit content fingerprint of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw value — the persistence
    /// path stores fingerprints as `u64`s in embedding-library artifacts.
    pub fn from_u64(raw: u64) -> Self {
        Fingerprint(raw)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Computes the content fingerprint of a Verilog design: the FNV-1a/64 hash
/// of its preprocessed token stream plus the requested top-module selector.
///
/// This is deliberately *conservative*: token differences that do not
/// change the elaborated design (wire renames, equal-valued literals
/// spelled differently) produce different fingerprints — a cache
/// false-miss costs one re-embedding, whereas a false-hit would silently
/// return the wrong embedding.
///
/// # Errors
///
/// Propagates preprocessing and lexing failures (unterminated comments,
/// recursive includes, malformed literals, ...).
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::design_fingerprint;
///
/// let a = design_fingerprint("module m(output y); assign y = 0; endmodule", None)?;
/// let commented =
///     design_fingerprint("// same design\nmodule m(output y); assign y = 0; endmodule", None)?;
/// assert_eq!(a, commented); // comments are stripped before hashing
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn design_fingerprint(
    source: &str,
    top: Option<&str>,
) -> Result<Fingerprint, ParseVerilogError> {
    let pre = preprocess(source, &IncludeMap::new())?;
    let tokens = lex(&pre)?;
    let mut h = StableHasher::new();
    for t in &tokens {
        // one domain byte per token kind, then the payload
        match &t.token {
            Token::Ident(s) => {
                h.write(&[1]);
                h.write_str(s);
            }
            // Keyword/Punct are fieldless enums: the discriminant byte is
            // the payload. Stable as long as variant order is append-only.
            Token::Kw(k) => h.write(&[2, *k as u8]),
            Token::Number { text, .. } => {
                h.write(&[3]);
                h.write_str(text);
            }
            Token::Str(s) => {
                h.write(&[4]);
                h.write_str(s);
            }
            Token::Punct(p) => h.write(&[5, *p as u8]),
        }
        // terminate variable-length payloads so token boundaries can't alias
        h.write(&[0xff]);
    }
    // Domain-separate the top selector from the token stream.
    match top {
        Some(t) => {
            h.write(&[1]);
            h.write_str(t);
        }
        None => h.write(&[0]),
    }
    Ok(Fingerprint(h.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";

    #[test]
    fn fnv1a_known_vectors() {
        let hash = |s: &str| {
            let mut h = StableHasher::new();
            h.write_str(s);
            h.finish()
        };
        // published FNV-1a/64 test vectors
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = design_fingerprint(INV, None).expect("fp");
        let b = design_fingerprint(INV, None).expect("fp");
        assert_eq!(a, b);
    }

    #[test]
    fn comments_macros_and_formatting_do_not_change_the_fingerprint() {
        let bare = design_fingerprint(INV, None).expect("fp");
        let commented = format!("/* owned IP */ {INV} // checked");
        assert_eq!(design_fingerprint(&commented, None).expect("fp"), bare);
        let via_define = "`define OP ~\nmodule inv(input a, output y); assign y = `OP a; endmodule";
        assert_eq!(design_fingerprint(via_define, None).expect("fp"), bare);
        let reformatted = "module inv (\n  input  a,\n  output y\n);\n  assign y=~a;\nendmodule";
        assert_eq!(design_fingerprint(reformatted, None).expect("fp"), bare);
    }

    #[test]
    fn content_changes_change_the_fingerprint() {
        let a = design_fingerprint(INV, None).expect("fp");
        let b = design_fingerprint(
            "module inv(input a, output y); assign y = a; endmodule",
            None,
        )
        .expect("fp");
        assert_ne!(a, b);
    }

    #[test]
    fn top_selector_is_part_of_the_key() {
        let two = "module a(output y); assign y = 0; endmodule
                   module b(output y); assign y = 1; endmodule";
        let auto = design_fingerprint(two, None).expect("fp");
        let ta = design_fingerprint(two, Some("a")).expect("fp");
        let tb = design_fingerprint(two, Some("b")).expect("fp");
        assert_ne!(auto, ta);
        assert_ne!(ta, tb);
    }

    /// Saved embedding libraries key on these values: a front-end change
    /// that moves them turns every persisted entry into a cache miss.
    #[test]
    fn fingerprints_are_pinned() {
        const RTL: &str = "`define W 8
`define MASK 8'hF0
// an ALU slice: macros, based literals and comments
module slice(input [`W-1:0] a, input [`W-1:0] b, input sel, output [`W-1:0] y);
  /* mask the high nibble,
     then mix */
  wire [`W-1:0] m = a & `MASK; // tail comment
  assign y = sel ? (m ^ b) : (b | 8'b0000_1111) + 'd3 - 4'sd2;
endmodule
";
        let fp = |src: &str, top| design_fingerprint(src, top).expect("fp").as_u64();
        assert_eq!(fp(INV, None), 0xe79c_fd46_8123_f281);
        assert_eq!(fp(&gnn4ip_data::iscas::c432(), None), 0x575d_1f52_c592_f671);
        assert_eq!(fp(RTL, None), 0xdcd9_7c69_18d3_76a1);
        assert_eq!(fp(RTL, Some("slice")), 0x091a_40f8_57ec_a73c);
    }

    #[test]
    fn preprocess_errors_propagate() {
        assert!(design_fingerprint("/* unterminated", None).is_err());
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let fp = design_fingerprint(INV, None).expect("fp");
        let s = fp.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
