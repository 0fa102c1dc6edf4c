//! A tiny Rust tokenizer for the lock-order pass.
//!
//! [`crate::locks`] needs to look at real source structure
//! (statements, receiver chains, brace nesting), which the
//! line-oriented lint scanner cannot provide. This module lexes
//! *scrubbed* source (string/char literals blanked, comments removed —
//! see `lint::scrub`) into a flat token stream with line numbers. It is
//! deliberately not a full lexer: scrubbing has already removed every
//! context-sensitive construct, so what remains is identifiers, number
//! literals, empty string markers, lifetimes and punctuation.

use std::fmt;

/// Token category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (suffix stripped).
    Int,
    /// Float literal (value irrelevant to the passes).
    Float,
    /// A (scrubbed, empty) string literal.
    Str,
    /// A lifetime marker.
    Lifetime,
    /// Punctuation; multi-character operators are one token.
    Punct,
}

/// One token of scrubbed source.
#[derive(Clone, Debug)]
pub(crate) struct Token {
    /// Category.
    pub kind: Kind,
    /// Literal text (for numbers, without any type suffix).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Token {
    /// Whether this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == Kind::Punct && self.text == p
    }

    /// Whether this token is the identifier/keyword `w`.
    pub fn is_ident(&self, w: &str) -> bool {
        self.kind == Kind::Ident && self.text == w
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// Multi-character operators, longest first so maximal munch works.
const MULTI_PUNCT: &[&str] = &[
    "::", "..", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=", "&&", "||", "->", "=>",
];

/// Lexes scrubbed source lines (from `lint::scrub`) into tokens.
pub(crate) fn tokenize(scrubbed: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in scrubbed.iter().enumerate() {
        let lineno = idx + 1;
        let b = line.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_whitespace() {
                i += 1;
                continue;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: Kind::Ident,
                    text: line[start..i].to_string(),
                    line: lineno,
                });
                continue;
            }
            if c.is_ascii_digit() {
                i = lex_number(line, i, lineno, &mut out);
                continue;
            }
            if c == b'"' {
                // Scrubbed strings are empty: `""`.
                i += 1;
                if i < b.len() && b[i] == b'"' {
                    i += 1;
                }
                out.push(Token {
                    kind: Kind::Str,
                    text: String::new(),
                    line: lineno,
                });
                continue;
            }
            if c == b'\'' {
                // Only lifetimes survive scrubbing.
                let start = i;
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: Kind::Lifetime,
                    text: line[start..i].to_string(),
                    line: lineno,
                });
                continue;
            }
            let rest = &line[i..];
            let mut matched = None;
            for op in MULTI_PUNCT {
                if rest.starts_with(op) {
                    matched = Some(*op);
                    break;
                }
            }
            match matched {
                Some(op) => {
                    out.push(Token {
                        kind: Kind::Punct,
                        text: op.to_string(),
                        line: lineno,
                    });
                    i += op.len();
                }
                None => {
                    out.push(Token {
                        kind: Kind::Punct,
                        text: (c as char).to_string(),
                        line: lineno,
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Lexes one number starting at byte `start`; returns the index past it.
/// Handles decimal, hex (`0x6`), suffixes (`4usize`) and floats
/// (`1.0`), and refuses to swallow the `..` of a range (`0..half`).
fn lex_number(line: &str, start: usize, lineno: usize, out: &mut Vec<Token>) -> usize {
    let b = line.as_bytes();
    let mut i = start;
    let mut is_float = false;
    let mut digits_end;
    if b[i] == b'0' && i + 1 < b.len() && (b[i + 1] == b'x' || b[i + 1] == b'X') {
        i += 2;
        while i < b.len() && (b[i].is_ascii_hexdigit() || b[i] == b'_') {
            i += 1;
        }
        digits_end = i;
    } else {
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
        digits_end = i;
        // A `.` begins a float only when not part of `..` or a method
        // call on a literal.
        if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
            is_float = true;
            i += 1;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
            // Exponent.
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                    j += 1;
                }
                if j < b.len() && b[j].is_ascii_digit() {
                    i = j;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            digits_end = i;
        }
    }
    // Type suffix (`usize`, `u64`, `f64`, ...).
    let mut j = digits_end;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    let suffix = &line[digits_end..j];
    if suffix.starts_with('f') {
        is_float = true;
    }
    out.push(Token {
        kind: if is_float { Kind::Float } else { Kind::Int },
        text: line[start..digits_end].to_string(),
        line: lineno,
    });
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Vec<Token> {
        tokenize(&crate::lint::scrub(src))
    }

    #[test]
    fn numbers_ranges_and_suffixes() {
        let toks = lex("let mut half = 4usize; for j in 0..half { x(0x6, 1.0, 2); }");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"4"));
        assert!(texts.contains(&".."));
        assert!(texts.contains(&"0x6"));
        let float = toks.iter().find(|t| t.kind == Kind::Float).map(|t| &t.text);
        assert_eq!(float.map(String::as_str), Some("1.0"));
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let toks = lex("a += b; c::d(e >= f, g != h, i.len()..j);");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(&"+="));
        assert!(puncts.contains(&"::"));
        assert!(puncts.contains(&">="));
        assert!(puncts.contains(&"!="));
        assert!(puncts.contains(&".."));
    }

    #[test]
    fn strings_and_comments_are_inert() {
        let toks = lex("f(\"p.add(99999)\") // p.add(7)\n");
        assert!(toks.iter().all(|t| t.text != "99999" && t.text != "add"));
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
    }

    #[test]
    fn line_numbers_are_one_based() {
        let toks = lex("a\nb\nc\n");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
