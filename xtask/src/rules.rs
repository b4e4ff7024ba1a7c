//! The source rules of the token pass: `float-ord`, `panic-path` and
//! `clone-exhaustive`. Each is a pure function of one file's tokens and
//! appends `(line, rule, message)` triples; `lint_source` in `lib.rs`
//! applies the site annotations afterwards.
//!
//! None of them needs a type. The compiler already checks everything that
//! does (DESIGN.md §8): these rules fire on the construct itself, so a
//! receiver's type can neither hide a site nor exempt one.

use crate::lexer::{Token, TokenKind};
use crate::Rule;

/// One raw finding: line, rule, message.
pub type Hit = (u32, Rule, String);

/// Keywords that may stand right before a `[` without indexing anything:
/// `return [a, b]`, `&mut [T]`, `in [x + 1, y]`.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

fn is_ident(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn is_punct(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// The index just past the bracket group that opens at `open`.
fn skip_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        i = i.saturating_add(1);
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth = depth.saturating_add(1),
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth <= 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    i
}

/// The index just past the item that starts at `i`: its `{ .. }` body, or
/// its closing `;`. Attributes and bracketed headers are skipped whole.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    while let Some(t) = tokens.get(i) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => return skip_group(tokens, i),
                ";" => return i.saturating_add(1),
                "(" | "[" => {
                    i = skip_group(tokens, i);
                    continue;
                }
                _ => {}
            }
        }
        i = i.saturating_add(1);
    }
    i
}

/// Token ranges the rules skip: items under `#[test]` or `#[cfg(test)]`
/// (they run in no simulation), and, when `debug_asserts` is set, the
/// operands of `debug_assert*!` (they run in no release build).
fn exempt_spans(tokens: &[Token], debug_asserts: bool) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        let next = tokens.get(i.saturating_add(1));
        if t.kind == TokenKind::Punct && t.text == "#" && is_punct(next, "[") {
            let open = i.saturating_add(1);
            let end = skip_group(tokens, open);
            let attr: Vec<&str> = tokens
                .get(open.saturating_add(1)..end.saturating_sub(1))
                .unwrap_or(&[])
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if attr == ["test"] || attr == ["cfg", "(", "test", ")"] {
                let stop = item_end(tokens, end);
                spans.push((i, stop));
                i = stop;
            } else {
                i = end;
            }
            continue;
        }
        if debug_asserts
            && t.kind == TokenKind::Ident
            && t.text.starts_with("debug_assert")
            && is_punct(next, "!")
        {
            let stop = skip_group(tokens, i.saturating_add(2));
            spans.push((i, stop));
            i = stop;
            continue;
        }
        i = i.saturating_add(1);
    }
    spans
}

fn exempt(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(s, e)| s <= i && i < e)
}

/// `float-ord`: every `.partial_cmp(` and `.total_cmp(` call outside test
/// code. Without types the rule cannot tell a float receiver from any
/// other, so it fires on both: an ordering that decides a schedule is
/// written through `order_key` (crates/core/src/index.rs) or carries an
/// annotation that says why its operands are finite.
pub fn float_ord(tokens: &[Token], out: &mut Vec<Hit>) {
    let spans = exempt_spans(tokens, false);
    for (i, t) in tokens.iter().enumerate() {
        let method = t.text.as_str();
        if t.kind != TokenKind::Ident || (method != "partial_cmp" && method != "total_cmp") {
            continue;
        }
        let dot = i.checked_sub(1).and_then(|p| tokens.get(p));
        if !is_punct(dot, ".") || !is_punct(tokens.get(i.saturating_add(1)), "(") {
            continue;
        }
        if exempt(&spans, i) {
            continue;
        }
        out.push((
            t.line,
            Rule::FloatOrd,
            format!(
                "raw `.{method}()` call; order floats through the lossless `order_key` \
                 encoding in crates/core/src/index.rs, or annotate \
                 `// lint: allow(float-ord) — <why the operands are finite>`"
            ),
        ));
    }
}

/// Alphanumeric characters in a string literal's source text.
fn message_weight(text: &str) -> usize {
    text.chars().filter(|c| c.is_alphanumeric()).count()
}

/// Whether the `[..]` group opening at `open` computes its index: it holds
/// binary arithmetic or a call, and is not the `x % v.len()` idiom, which
/// is in range by construction.
fn computed_index(tokens: &[Token], open: usize) -> bool {
    let end = skip_group(tokens, open);
    let inner = tokens
        .get(open.saturating_add(1)..end.saturating_sub(1))
        .unwrap_or(&[]);
    let mut computed = false;
    let mut prev: Option<&Token> = None;
    for (k, t) in inner.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            // An operator is binary when an operand ends right before it;
            // `*i` and `-1` are a deref and a negative literal.
            let binary = prev.is_some_and(|p| {
                matches!(p.kind, TokenKind::Ident | TokenKind::Literal)
                    || p.text == ")"
                    || p.text == "]"
            });
            match t.text.as_str() {
                "+" | "-" | "*" | "/" if binary => computed = true,
                "%" if binary => {
                    let by_len = inner
                        .iter()
                        .skip(k)
                        .take(8)
                        .any(|u| u.kind == TokenKind::Ident && u.text == "len");
                    if by_len {
                        return false;
                    }
                    computed = true;
                }
                "(" => computed = true,
                _ => {}
            }
        }
        prev = Some(t);
    }
    computed
}

/// `panic-path`: panic sites whose justification is missing, outside test
/// code and `debug_assert*!` operands.
///
/// * `.expect("..")` whose literal message has fewer than three
///   alphanumeric characters: the message is the written proof that the
///   panic cannot fire ("peeked above", "checked non-empty").
/// * A computed index, `name[..]` holding arithmetic or a call: it can
///   panic out of range mid-event. Write `.get(..).expect("<why in
///   range>")` instead. Plain `v[i]` is exempt, because its bound is
///   almost always adjacent.
///
/// A bare `.unwrap()` is clippy's `unwrap_used` (DESIGN.md §8).
pub fn panic_path(tokens: &[Token], out: &mut Vec<Hit>) {
    let spans = exempt_spans(tokens, true);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || exempt(&spans, i) {
            continue;
        }
        let after = i.saturating_add(1);
        let dot = i.checked_sub(1).and_then(|p| tokens.get(p));
        if t.text == "expect" && is_punct(dot, ".") && is_punct(tokens.get(after), "(") {
            let vacuous = match tokens.get(after.saturating_add(1)) {
                Some(arg) if arg.kind == TokenKind::Literal => message_weight(&arg.text) < 3,
                Some(arg) => arg.text == ")",
                None => false,
            };
            if vacuous {
                out.push((
                    t.line,
                    Rule::PanicPath,
                    "`.expect()` with a vacuous message; the message is the proof that \
                     this panic cannot fire, so state the invariant (\"peeked above\")"
                        .to_string(),
                ));
            }
            continue;
        }
        if is_punct(tokens.get(after), "[")
            && !KEYWORDS.contains(&t.text.as_str())
            && computed_index(tokens, after)
        {
            out.push((
                t.line,
                Rule::PanicPath,
                format!(
                    "computed index into `{}` can panic out of range mid-event; use \
                     `.get(..).expect(\"<why in range>\")` so the proof is written down",
                    t.text
                ),
            ));
        }
    }
}

/// `clone-exhaustive`: no hand-written `impl Clone for` outside test code.
/// Snapshot and fork (DESIGN.md §13) rest on `Clone` being a structural
/// deep copy, which a derive is by construction and a hand-written body
/// is only until someone adds a field.
pub fn clone_exhaustive(tokens: &[Token], out: &mut Vec<Hit>) {
    let spans = exempt_spans(tokens, false);
    for (i, t) in tokens.iter().enumerate() {
        let after = i.saturating_add(1);
        if t.kind != TokenKind::Ident
            || t.text != "Clone"
            || !is_ident(tokens.get(after), "for")
            || exempt(&spans, i)
        {
            continue;
        }
        let ty = tokens
            .get(after.saturating_add(1))
            .map_or("?", |t| t.text.as_str());
        out.push((
            t.line,
            Rule::CloneExhaustive,
            format!(
                "hand-written `impl Clone for {ty}`: a field added later can be left out \
                 of every snapshot; `#[derive(Clone)]` instead"
            ),
        ));
    }
}
