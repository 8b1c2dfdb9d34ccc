//! The lexer as it was before slice-based scanning: the oracle `lex`
//! must match token for token on every ASCII input.

use crate::token::{Keyword, Punct, Span, Spanned, Token};
use crate::ParseVerilogError;

pub(super) fn lex(source: &str) -> Result<Vec<Spanned>, ParseVerilogError> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str) -> Self {
        Self {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Spanned>, ParseVerilogError> {
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.bump();
                continue;
            }
            let span = self.span();
            let token = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'\\' => self.escaped_ident(),
                b'0'..=b'9' | b'\'' => self.number(span)?,
                b'"' => self.string(span)?,
                b'$' => self.system_ident(),
                _ => self.punct(span)?,
            };
            out.push(Spanned { token, span });
        }
        Ok(out)
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if pred(c) {
                s.push(c as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn ident(&mut self) -> Token {
        let word = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$');
        match Keyword::from_ident(&word) {
            Some(kw) => Token::Kw(kw),
            None => Token::Ident(word),
        }
    }

    fn escaped_ident(&mut self) -> Token {
        self.bump(); // backslash
        let word = self.take_while(|c| !c.is_ascii_whitespace());
        Token::Ident(word)
    }

    fn system_ident(&mut self) -> Token {
        // $display etc — lexed as identifier with the $.
        self.bump();
        let word = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        Token::Ident(format!("${word}"))
    }

    fn string(&mut self, span: Span) -> Result<Token, ParseVerilogError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    if let Some(c) = self.bump() {
                        s.push(c as char);
                    }
                }
                Some(c) => s.push(c as char),
                None => return Err(ParseVerilogError::at(span, "unterminated string")),
            }
        }
        Ok(Token::Str(s))
    }

    fn number(&mut self, span: Span) -> Result<Token, ParseVerilogError> {
        let mut text = String::new();
        // optional decimal size prefix
        let size = self.take_while(|c| c.is_ascii_digit() || c == b'_');
        text.push_str(&size);
        if self.peek() == Some(b'\'') {
            text.push('\'');
            self.bump();
            // optional signedness
            if matches!(self.peek(), Some(b's') | Some(b'S')) {
                // g4check: allow(unwrap-in-lib): the peek in the guard just proved a byte is available
                text.push(self.bump().expect("peeked") as char);
            }
            let base = self
                .bump()
                .ok_or_else(|| ParseVerilogError::at(span, "truncated based literal"))?;
            text.push(base as char);
            let radix = match base.to_ascii_lowercase() {
                b'b' => 2,
                b'o' => 8,
                b'd' => 10,
                b'h' => 16,
                _ => {
                    return Err(ParseVerilogError::at(
                        span,
                        format!("invalid literal base '{}'", base as char),
                    ))
                }
            };
            let digits = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'?');
            if digits.is_empty() {
                return Err(ParseVerilogError::at(span, "based literal with no digits"));
            }
            text.push_str(&digits);
            let mut value: u64 = 0;
            for d in digits.chars() {
                if d == '_' {
                    continue;
                }
                let dv = match d.to_ascii_lowercase() {
                    'x' | 'z' | '?' => 0,
                    c => c.to_digit(radix).ok_or_else(|| {
                        ParseVerilogError::at(span, format!("digit '{c}' invalid for base {radix}"))
                    })? as u64,
                };
                value = value.wrapping_mul(radix as u64).wrapping_add(dv);
            }
            let width = if size.is_empty() {
                None
            } else {
                let w: String = size.chars().filter(|c| *c != '_').collect();
                Some(w.parse::<u32>().map_err(|_| {
                    ParseVerilogError::at(span, format!("invalid literal width '{size}'"))
                })?)
            };
            Ok(Token::Number { width, value, text })
        } else {
            // plain decimal
            if size.is_empty() {
                return Err(ParseVerilogError::at(span, "empty numeric literal"));
            }
            let clean: String = size.chars().filter(|c| *c != '_').collect();
            let value = clean
                .parse::<u64>()
                .map_err(|_| ParseVerilogError::at(span, format!("invalid number '{size}'")))?;
            Ok(Token::Number {
                width: None,
                value,
                text,
            })
        }
    }

    fn punct(&mut self, span: Span) -> Result<Token, ParseVerilogError> {
        // g4check: allow(unwrap-in-lib): next_token only dispatches here after peeking a byte
        let c = self.bump().expect("caller peeked");
        let p = match c {
            b'(' => Punct::LParen,
            b')' => Punct::RParen,
            b'[' => Punct::LBracket,
            b']' => Punct::RBracket,
            b'{' => Punct::LBrace,
            b'}' => Punct::RBrace,
            b';' => Punct::Semi,
            b',' => Punct::Comma,
            b':' => Punct::Colon,
            b'.' => Punct::Dot,
            b'#' => Punct::Hash,
            b'@' => Punct::At,
            b'?' => Punct::Question,
            b'+' => Punct::Plus,
            b'-' => Punct::Minus,
            b'/' => Punct::Slash,
            b'%' => Punct::Percent,
            b'*' => {
                if self.peek() == Some(b'*') {
                    self.bump();
                    Punct::Star2
                } else {
                    Punct::Star
                }
            }
            b'=' => match (self.peek(), self.peek2()) {
                (Some(b'='), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    Punct::CaseEq
                }
                (Some(b'='), _) => {
                    self.bump();
                    Punct::EqEq
                }
                _ => Punct::Assign,
            },
            b'!' => match (self.peek(), self.peek2()) {
                (Some(b'='), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    Punct::CaseNotEq
                }
                (Some(b'='), _) => {
                    self.bump();
                    Punct::NotEq
                }
                _ => Punct::Not,
            },
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Punct::LtEq
                }
                Some(b'<') => {
                    self.bump();
                    Punct::Shl
                }
                _ => Punct::Lt,
            },
            b'>' => match (self.peek(), self.peek2()) {
                (Some(b'='), _) => {
                    self.bump();
                    Punct::GtEq
                }
                (Some(b'>'), Some(b'>')) => {
                    self.bump();
                    self.bump();
                    Punct::AShr
                }
                (Some(b'>'), _) => {
                    self.bump();
                    Punct::Shr
                }
                _ => Punct::Gt,
            },
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    Punct::AndAnd
                } else {
                    Punct::And
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Punct::OrOr
                } else {
                    Punct::Or
                }
            }
            b'^' => {
                if self.peek() == Some(b'~') {
                    self.bump();
                    Punct::Xnor
                } else {
                    Punct::Xor
                }
            }
            b'~' => match self.peek() {
                Some(b'^') => {
                    self.bump();
                    Punct::Xnor
                }
                Some(b'&') => {
                    self.bump();
                    Punct::Nand
                }
                Some(b'|') => {
                    self.bump();
                    Punct::Nor
                }
                _ => Punct::Tilde,
            },
            _ => {
                return Err(ParseVerilogError::at(
                    span,
                    format!("unexpected character '{}'", c as char),
                ))
            }
        };
        Ok(Token::Punct(p))
    }
}
