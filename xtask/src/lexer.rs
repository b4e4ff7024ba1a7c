//! A minimal Rust lexer for the determinism audit.
//!
//! Produces a flat token stream (identifiers, punctuation, literals) with
//! line numbers, plus the text of every `//` comment keyed by line so rule
//! passes can find lint allow-annotations. It understands just
//! enough of the language to never misread comments, strings (including
//! raw strings), char literals, and lifetimes — the cases where a naive
//! `grep` would produce false positives.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Source text of the token. Literals keep their raw source — numeric
    /// literals their digits (so a rule can tell `1.0` from `1`), string
    /// literals their quoted text (so a rule can judge an `expect` message)
    /// — which can never collide with an identifier: the first character is
    /// a digit or a quote/prefix the ident arm never produces.
    pub text: String,
    /// 1-based source line (the *first* line for multi-line literals).
    pub line: u32,
}

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// String / char / byte / numeric literal (raw source text kept).
    Literal,
    /// Lifetime (`'a`, `'static`) or loop label.
    Lifetime,
}

/// Lexed file: the code token stream and the per-line comment texts.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// `(line, text)` of every `//` comment, in source order. Block comments
    /// are recorded under their first line.
    pub comments: Vec<(u32, String)>,
}

/// Lexes `src`. Never fails: unterminated constructs swallow the rest of
/// the file, which is the behaviour that keeps every later pass safe.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push((
                    line,
                    text(src, start, i)
                        .trim_start_matches('/')
                        .trim()
                        .to_string(),
                ));
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments
                    .push((start_line, text(src, start, i).to_string()));
            }
            b'"' => {
                let (start, start_line) = (i, line);
                i = skip_string(b, i + 1, &mut line);
                out.tokens
                    .push(tok(TokenKind::Literal, text(src, start, i), start_line));
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let (start, start_line) = (i, line);
                i = skip_raw_string(b, i, &mut line);
                out.tokens
                    .push(tok(TokenKind::Literal, text(src, start, i), start_line));
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                let (start, start_line) = (i, line);
                i = skip_string(b, i + 2, &mut line);
                out.tokens
                    .push(tok(TokenKind::Literal, text(src, start, i), start_line));
            }
            b'\'' => {
                // Char literal or lifetime. `'\x'`-style escapes and `'c'`
                // are literals; anything else is a lifetime/label.
                if b.get(i + 1) == Some(&b'\\') {
                    let start = i;
                    i += 2; // skip the backslash and the escaped char
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens
                        .push(tok(TokenKind::Literal, text(src, start, i), line));
                } else if char_lit_len(src, i) > 0 {
                    let len = char_lit_len(src, i);
                    out.tokens
                        .push(tok(TokenKind::Literal, text(src, i, i + len), line));
                    i += len;
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    out.tokens
                        .push(tok(TokenKind::Lifetime, text(src, start, i), line));
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens
                    .push(tok(TokenKind::Ident, text(src, start, i), line));
            }
            c if c.is_ascii_digit() => {
                // Numbers: digits, underscores, type suffixes, hex/exponent
                // letters, and a dot only when a digit follows it (so the
                // `.` in `1.0.max(2.0)` stays a method-call dot).
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d == b'_' || d.is_ascii_alphanumeric() {
                        i += 1;
                    } else if d == b'.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        i += 2;
                    } else {
                        break;
                    }
                }
                out.tokens
                    .push(tok(TokenKind::Literal, text(src, start, i), line));
            }
            _ => {
                // Consume one whole char: non-ASCII bytes (e.g. `▁` in a doc
                // comment that the comment arms didn't catch, or in idents)
                // must not be split mid-codepoint.
                let ch_len = text(src, i, src.len())
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                out.tokens
                    .push(tok(TokenKind::Punct, text(src, i, i + ch_len), line));
                i += ch_len;
            }
        }
    }
    out
}

/// `src[start..end]`, clamped to the source: an unterminated construct
/// runs to the end of the file instead of panicking.
fn text(src: &str, start: usize, end: usize) -> &str {
    src.get(start..end.min(src.len())).unwrap_or("")
}

fn tok(kind: TokenKind, text: &str, line: u32) -> Token {
    Token {
        kind,
        text: text.to_string(),
        line,
    }
}

/// Length in bytes of an unescaped char literal (`'x'`, including a
/// multi-byte `x` like `'▁'`) starting at the `'` at `i`, or 0 if the
/// construct is not one — `''` (empty, which Rust rejects anyway) and
/// `'ident` lifetimes both return 0.
fn char_lit_len(src: &str, i: usize) -> usize {
    let rest = text(src, i + 1, src.len());
    let c = match rest.chars().next() {
        Some(c) if c != '\'' && c != '\n' => c,
        _ => return 0,
    };
    let len = c.len_utf8();
    if rest.as_bytes().get(len) == Some(&b'\'') {
        len + 2
    } else {
        0
    }
}

/// Advances past a (non-raw) string body starting just after the opening
/// quote; returns the index after the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Whether `r"`, `r#"`, `br"`, or `br#"` starts at `i`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Advances past a raw string starting at its `r`/`br`; returns the index
/// after the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // the `r`
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // the opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0usize;
            while h < hashes && b.get(j) == Some(&b'#') {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r##"
// HashMap in a comment
/* unsafe in a block
   spanning lines */
let s = "Instant::now() in a string";
let r = r#"SystemTime "raw" HashMap"#;
let c = 'x';
let l: &'static str = s;
"##;
        let ids = idents(src);
        assert!(!ids.iter().any(|t| t == "HashMap"));
        assert!(!ids.iter().any(|t| t == "unsafe"));
        assert!(!ids.iter().any(|t| t == "Instant"));
        assert!(!ids.iter().any(|t| t == "SystemTime"));
        assert!(ids.contains(&"let".to_string()));
        let lexed = lex(src);
        assert!(lexed.comments[0].1.contains("HashMap in a comment"));
        assert!(
            lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"),
            "lifetimes survive"
        );
    }

    #[test]
    fn float_method_chains_keep_their_dots() {
        let lexed = lex("let x = 1.0.max(2.5);");
        let dots = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct && t.text == ".")
            .count();
        assert_eq!(dots, 1, "the method-call dot must not be eaten: {lexed:?}");
    }

    #[test]
    fn line_numbers_track_every_construct() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = HashMap::new();\n";
        let lexed = lex(src);
        let hm = lexed
            .tokens
            .iter()
            .find(|t| t.text == "HashMap")
            .expect("HashMap token");
        assert_eq!(hm.line, 4);
    }

    #[test]
    fn numeric_literals_keep_their_source_text() {
        let texts: Vec<String> = lex("let x = 1.5f64 + 2 + 0x1f + 1_000;")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["1.5f64", "2", "0x1f", "1_000"]);
    }

    #[test]
    fn brace_and_quote_char_literals_do_not_derail_balancing() {
        // A naive lexer reads `'{'` as a lifetime and then sees an
        // unbalanced brace; same for `'"'` opening a phantom string.
        let src = r#"fn f(c: char) -> bool { matches!(c, '{' | '}' | '"' | '(') } fn g() {}"#;
        let lexed = lex(src);
        let opens = lexed.tokens.iter().filter(|t| t.text == "{").count();
        let closes = lexed.tokens.iter().filter(|t| t.text == "}").count();
        assert_eq!(opens, 2, "{lexed:?}");
        assert_eq!(closes, 2, "{lexed:?}");
        assert!(lexed.tokens.iter().any(|t| t.text == "g"));
    }

    #[test]
    fn escaped_quote_char_literal_is_one_token() {
        let src = r"let q = '\''; let n = '\n'; done();";
        let lexed = lex(src);
        // The ident after both char literals must survive intact.
        assert!(idents(src).contains(&"done".to_string()));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            2,
            "{lexed:?}"
        );
    }

    #[test]
    fn multibyte_char_literal_is_a_literal_not_a_split_codepoint() {
        let lexed = lex("let sep = '▁'; let after = 1;");
        assert!(
            lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Literal && t.text == "'▁'"),
            "{lexed:?}"
        );
        assert!(lexed.tokens.iter().any(|t| t.text == "after"));
    }

    #[test]
    fn raw_strings_with_hashes_hide_quotes_and_hashes() {
        let src = r###"let a = r#"quote " inside"#; let b = r##"double "# inside"##; let c = br#"bytes"#; tail();"###;
        let ids = idents(src);
        assert!(ids.contains(&"tail".to_string()), "{ids:?}");
        assert!(!ids.iter().any(|t| t == "inside" || t == "bytes"));
    }

    #[test]
    fn nested_block_comments_terminate_where_rust_says() {
        let src = "/* outer /* inner */ still a comment */ fn visible() {}";
        let ids = idents(src);
        assert!(!ids.iter().any(|t| t == "still"), "{ids:?}");
        assert!(ids.contains(&"visible".to_string()), "{ids:?}");
    }

    #[test]
    fn multiline_strings_stamp_their_opening_line() {
        let src = "let s = \"line one\nline two\nline three\";\nlet after = 9;";
        let lexed = lex(src);
        let lit = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Literal && t.text.starts_with('"'))
            .expect("string literal token");
        assert_eq!(lit.line, 1, "multi-line literal reports its first line");
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.text == "after")
            .expect("after token");
        assert_eq!(after.line, 4, "lines inside the literal still count");
    }

    #[test]
    fn string_literals_keep_quoted_text_for_expect_judging() {
        let lexed = lex(r#"x.expect("peeked above");"#);
        assert!(
            lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Literal && t.text == "\"peeked above\""),
            "{lexed:?}"
        );
    }
}
