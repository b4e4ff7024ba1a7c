//! `panic-path`: unjustified panic sites in deterministic code.
//!
//! A panic in the deterministic crates kills the run in the middle of an
//! event, before the teardown ledger checks can say what went wrong.
//! Panics there are therefore only acceptable when a human has written
//! down why they cannot fire. Three site classes, three justification
//! channels:
//!
//! * `.expect("...")` — **justified by its message**: the message is the
//!   in-language proof obligation ("peeked above", "checked non-empty").
//!   Fires only when the message is empty or vacuous (fewer than three
//!   alphanumeric characters), the same bar an allow-annotation reason
//!   must clear.
//! * `.unwrap()` — carries no reason by construction; fires always.
//!   Rewrite as `expect` with a proof, or annotate
//!   `// lint: allow(panic-path) — <reason>`.
//! * computed slice indexing — `v[i + 1]`, `v[f(x)]` on a receiver the
//!   HIR resolves to `Vec`/slice/array. Plain `v[i]` loop indexing is
//!   exempt (the bound is almost always adjacent), as is the
//!   modulo-of-length idiom `v[x % v.len()]`, which is in range by
//!   construction. Receivers the HIR cannot type are skipped — this rule
//!   trades recall for a zero-noise floor, and the typed cases cover every
//!   indexed hot-path container in the audited crates.
//!
//! Test code and `debug_assert*!` arguments are out of scope: neither runs
//! in a release simulation.

use crate::hir::{receiver_approx, skip_group, TypeApprox};
use crate::lexer::{Token, TokenKind};
use crate::rules::RuleCtx;
use crate::{Finding, Rule};

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

/// Alphanumeric characters in a string-literal token's raw text.
fn message_weight(text: &str) -> usize {
    text.chars().filter(|c| c.is_alphanumeric()).count()
}

/// Whether the `[...]` group opening at `open` is a computed index: it
/// contains arithmetic or a call, and is not the `% recv.len()` idiom.
fn computed_index(tokens: &[Token], open: usize) -> bool {
    let end = skip_group(tokens, open);
    let interior = tokens
        .get(open.saturating_add(1)..end.saturating_sub(1))
        .unwrap_or(&[]);
    let mut has_arith = false;
    let mut has_call = false;
    let mut has_mod_len = false;
    for (k, t) in interior.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "+" | "-" | "*" | "/" => has_arith = true,
                "%" => {
                    has_arith = true;
                    // `% something.len()` bounds the index by construction.
                    let len_follows = interior
                        .iter()
                        .skip(k)
                        .take(8)
                        .any(|u| u.kind == TokenKind::Ident && u.text == "len");
                    if len_follows {
                        has_mod_len = true;
                    }
                }
                "(" => has_call = true,
                _ => {}
            }
        }
    }
    (has_arith || has_call) && !has_mod_len
}

/// The pass.
pub fn panic_path(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.hir.in_test(i) || ctx.hir.in_debug_assert(i) {
            continue;
        }
        // `.unwrap()` / `.expect(..)` method calls.
        if t.kind == TokenKind::Ident
            && i.checked_sub(1)
                .and_then(|p| tokens.get(p))
                .is_some_and(|p| is_punct(p, "."))
            && tokens
                .get(i.saturating_add(1))
                .is_some_and(|n| is_punct(n, "("))
        {
            if t.text == "unwrap" {
                ctx.emit(
                    out,
                    t.line,
                    Rule::PanicPath,
                    "`.unwrap()` in deterministic code carries no justification; a \
                     panic here kills the run mid-event with its ledgers \
                     unreconciled — use `.expect(\"<why this cannot fail>\")` or \
                     annotate `// lint: allow(panic-path) — <reason>`"
                        .to_string(),
                );
            } else if t.text == "expect" {
                let arg = tokens.get(i.saturating_add(2));
                let vacuous = match arg {
                    // A string literal: judge the message.
                    Some(a)
                        if a.kind == TokenKind::Literal
                            && (a.text.starts_with('"')
                                || a.text.starts_with('r')
                                || a.text.starts_with('b')) =>
                    {
                        message_weight(&a.text) < 3
                    }
                    // Empty argument list (would not compile, but be safe).
                    Some(a) if is_punct(a, ")") => true,
                    // A computed message (format!, a variable): something
                    // was written there; the human judged it.
                    _ => false,
                };
                if vacuous {
                    ctx.emit(
                        out,
                        t.line,
                        Rule::PanicPath,
                        "`.expect()` with a vacuous message: the message is the \
                         justification for why this panic cannot fire — state the \
                         invariant (e.g. \"peeked above\", \"checked non-empty\")"
                            .to_string(),
                    );
                }
            }
            continue;
        }
        // Computed indexing on a known Vec/slice/array receiver.
        if t.kind == TokenKind::Ident
            && tokens
                .get(i.saturating_add(1))
                .is_some_and(|n| is_punct(n, "["))
        {
            // Exclude macro heads (`vec![..]`) — the ident is then followed
            // by `!` not `[`, so reaching here means a real index — and
            // attribute-ish contexts are impossible (`[` after `#`).
            let open = i.saturating_add(1);
            if !computed_index(tokens, open) {
                continue;
            }
            let approx = receiver_approx(tokens, i.saturating_add(1), ctx.hir, ctx.fields);
            if approx != TypeApprox::VecLike {
                continue;
            }
            ctx.emit(
                out,
                t.line,
                Rule::PanicPath,
                format!(
                    "computed index into `{}` (a Vec/slice) can panic out of range \
                     mid-event; use `.get(..).expect(\"<why in range>\")` so the \
                     proof obligation is written down, or annotate \
                     `// lint: allow(panic-path) — <reason>`",
                    t.text
                ),
            );
        }
    }
}
