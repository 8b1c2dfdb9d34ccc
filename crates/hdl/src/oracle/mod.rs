//! The front end as it was before its allocation rewrite, kept as the
//! reference the current `preprocess`, `lex` and `parse` must match on
//! every ASCII input whose expressions stay within `MAX_EXPR_DEPTH`.

mod lexer;
mod parser;
mod preprocess;

#[cfg(test)]
mod tests {
    use gnn4ip_data::{
        named_rtl_designs, netlist_designs, obfuscate_netlist, synth_design, vary_design,
        ObfuscationConfig, SynthSize, VariationConfig,
    };
    use proptest::prelude::*;

    use super::{lexer, parser, preprocess};
    use crate::IncludeMap;

    /// Asserts that every stage gives the oracle's `Result` on `src` and, when
    /// it preprocesses, on its preprocessed text.
    fn assert_same(src: &str) {
        let pre = crate::preprocess(src, &IncludeMap::new());
        assert_eq!(
            pre,
            preprocess::preprocess(src, &IncludeMap::new()),
            "preprocess"
        );
        for text in std::iter::once(src).chain(pre.as_deref().ok()) {
            assert_eq!(crate::lex(text), lexer::lex(text), "lex of {text:?}");
            assert_eq!(crate::parse(text), parser::parse(text), "parse of {text:?}");
        }
    }

    /// Every binary operator, every unary operator, and the other tokens an
    /// expression can hold.
    const BINARY: [&str; 23] = [
        "||", "&&", "|", "^", "~^", "&", "==", "!=", "===", "!==", "<", ">", "<=", ">=", "<<",
        ">>", ">>>", "+", "-", "*", "/", "%", "**",
    ];
    const UNARY: [&str; 10] = ["!", "~", "+", "-", "&", "|", "^", "~&", "~|", "^~"];
    const SOUP: [&str; 30] = [
        "module",
        "endmodule",
        "m",
        "(",
        ")",
        "input",
        "output",
        "reg",
        "wire",
        "[3:0]",
        ",",
        ";",
        "assign",
        "=",
        "a",
        "b",
        "y",
        "always",
        "@*",
        "begin",
        "end",
        "if",
        "else",
        "case",
        ":",
        "{",
        "}",
        "?",
        "4'b1x0z",
        "8'hF_F",
    ];

    const SIZES: [SynthSize; 3] = [SynthSize::Small, SynthSize::Medium, SynthSize::Large];

    #[test]
    fn named_designs_match_the_oracle() {
        for d in named_rtl_designs().iter().chain(&netlist_designs(8, 60)) {
            assert!(d.source.is_ascii(), "{}", d.name);
            assert_same(&d.source);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn synth_designs_and_variants_match_the_oracle(
            seed in 0u64..10_000,
            size in 0usize..3,
            variant in 0u64..1_000,
        ) {
            let src = synth_design(seed, SIZES[size]);
            assert_same(&src);
            let varied = vary_design(&src, variant, &VariationConfig::default()).expect("varies");
            assert_same(&varied);
        }

        #[test]
        fn obfuscated_netlists_match_the_oracle(design in 0usize..8, variant in 1u64..1_000) {
            let d = &netlist_designs(8, 60)[design];
            let obf = obfuscate_netlist(&d.source, variant, &ObfuscationConfig::default())
                .expect("obfuscates");
            assert_same(&obf);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Flat operator mixes: a precedence or associativity slip changes the
        /// tree.
        #[test]
        fn operator_mixes_match_the_oracle(
            terms in prop::collection::vec((0usize..20, 0usize..4, 0usize..23), 1..24),
            ternary in 0usize..4,
        ) {
            let mut e = String::new();
            for (i, &(u, paren, op)) in terms.iter().enumerate() {
                if let Some(unary) = UNARY.get(u) {
                    e.push_str(unary);
                }
                e.push_str(if paren == 0 { "(b)" } else { "a" });
                if i + 1 < terms.len() {
                    e.push(' ');
                    e.push_str(BINARY[op]);
                    e.push(' ');
                }
            }
            if ternary == 0 {
                e = format!("{e} ? {e} : c");
            }
            assert_same(&format!("module m(input a, b, c, output y); assign y = {e}; endmodule"));
        }

        #[test]
        fn printable_garbage_matches_the_oracle(src in "[ -~\\r\\n]{0,200}") {
            assert_same(&src);
        }

        #[test]
        fn token_soup_matches_the_oracle(toks in prop::collection::vec(0usize..30, 0..120)) {
            let src: Vec<&str> = toks.iter().map(|&t| SOUP[t]).collect();
            assert_same(&src.join(" "));
        }

        /// A named design with a span of bytes replaced by printable ASCII.
        #[test]
        fn mutated_verilog_matches_the_oracle(
            design in 0usize..12,
            at in 0usize..4_000,
            cut in 0usize..12,
            splice in "[ -~\\n]{0,12}",
        ) {
            let src = &named_rtl_designs()[design].source;
            let at = at.min(src.len());
            let end = (at + cut).min(src.len());
            assert_same(&format!("{}{splice}{}", &src[..at], &src[end..]));
        }
    }
}
