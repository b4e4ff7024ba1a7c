//! A tiny item-level HIR over the lexer's token stream.
//!
//! The lexer pass (PR 4) tracked identifiers per file with no notion of
//! items or types, so every new subsystem paid for the audit in
//! annotations and whole-file carve-outs. This module is the next rung on
//! the RV-Match/Miri ladder of executable-semantics checkers: still
//! dependency-free and conservative, but *semantic* — it recognizes
//! items (structs with their fields and field types, `impl` blocks with
//! their self type and trait, functions with bodies), builds a per-function
//! binding table with a small type approximation, and resolves struct
//! fields across the whole audited workspace, so a rule can ask "is
//! `self.states` a hash container?" instead of "does this file contain the
//! ident `states` near a colon?".
//!
//! The type approximation ([`TypeApprox`]) is deliberately coarse — five
//! buckets, classified from declared types, constructor paths like
//! `HashMap::new()`, float literals, and struct-field lookups through
//! `self.` — because every consumer errs on the safe side: the
//! unordered-iter rule fires when a receiver *may* be the dangerous type,
//! and the float-ord and panic-path rules suppress only when a receiver is
//! *known* to be a safe one. `Unknown` therefore never
//! hides a violation; it only declines to silence one.
//!
//! Nothing here is a real parser: item headers are recognized by keyword
//! and bracket balancing, and anything unrecognized is skipped rather than
//! rejected, so the item scan "round-trips" every `.rs` file in the
//! workspace without error (enforced by a smoke test over the real tree).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};

/// The small type approximation attached to bindings and fields.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum TypeApprox {
    /// `f32` / `f64`, or a float literal.
    Float,
    /// `HashMap` / `HashSet` (or a local alias of one): iteration order
    /// depends on the hasher.
    Hash,
    /// `Vec` / `VecDeque` / slice / array: indexable, panics when out of
    /// range.
    VecLike,
    /// Any other resolved head type, by name (`SimTime`, `BTreeMap`,
    /// `FaultStats`, ...).
    Named(String),
    /// Could not classify. Consumers must treat this as "any type".
    Unknown,
}

impl TypeApprox {
    /// Whether this approximation definitely rules out a float: a resolved
    /// non-float type. `Unknown` rules out nothing.
    pub fn known_non_float(&self) -> bool {
        matches!(
            self,
            TypeApprox::Hash | TypeApprox::VecLike | TypeApprox::Named(_)
        )
    }
}

/// One declared struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Classified field type.
    pub ty: TypeApprox,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One `struct` item.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order (empty for tuple/unit structs).
    pub fields: Vec<Field>,
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implemented trait's head ident, if this is a trait impl.
    pub trait_name: Option<String>,
    /// The self type's head ident (`Foo` in `impl Clone for Foo<T>`).
    pub self_ty: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token range of the body, `{` inclusive to matching `}` exclusive.
    pub body: (usize, usize),
}

/// One function (free or method), with its binding table.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, `{` inclusive to matching `}` exclusive.
    pub body: (usize, usize),
    /// Approximated types of parameters and `let` bindings, by name.
    /// A name bound more than once keeps its *last* classification.
    pub bindings: BTreeMap<String, TypeApprox>,
}

/// The item-level HIR of one file.
#[derive(Debug, Default)]
pub struct FileHir {
    /// Structs declared in the file.
    pub structs: Vec<StructDef>,
    /// `impl` blocks declared in the file.
    pub impls: Vec<ImplDef>,
    /// Functions (free and methods), in source order.
    pub fns: Vec<FnDef>,
    /// Token ranges under `#[cfg(test)]` or `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Token ranges of `debug_assert*!(...)` macro invocations.
    pub debug_assert_spans: Vec<(usize, usize)>,
}

impl FileHir {
    /// Whether token index `i` falls inside test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// Whether token index `i` falls inside a `debug_assert*!` invocation.
    pub fn in_debug_assert(&self, i: usize) -> bool {
        self.debug_assert_spans
            .iter()
            .any(|&(s, e)| s <= i && i < e)
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| {
                let (s, e) = f.body;
                s <= i && i < e
            })
            .min_by_key(|f| {
                let (s, e) = f.body;
                e - s
            })
    }

    /// The impl block whose body contains token index `i`.
    pub fn enclosing_impl(&self, i: usize) -> Option<&ImplDef> {
        self.impls.iter().find(|im| {
            let (s, e) = im.body;
            s <= i && i < e
        })
    }
}

/// Struct fields resolved across every audited file: field name → the set
/// of classifications it carries anywhere in the workspace. Field *names*
/// (not `struct::field` pairs) are the key on purpose: the audit cannot
/// resolve the concrete struct behind every receiver expression, so it
/// unions the possibilities and lets each rule pick its safe side.
#[derive(Debug, Default)]
pub struct FieldTable {
    by_name: BTreeMap<String, BTreeSet<TypeApprox>>,
}

impl FieldTable {
    /// Folds one file's structs into the table.
    pub fn add_file(&mut self, hir: &FileHir) {
        for s in &hir.structs {
            for f in &s.fields {
                self.by_name
                    .entry(f.name.clone())
                    .or_default()
                    .insert(f.ty.clone());
            }
        }
    }

    /// Whether some struct in the workspace declares `name` as a hash
    /// container.
    pub fn may_be_hash(&self, name: &str) -> bool {
        self.by_name
            .get(name)
            .is_some_and(|set| set.contains(&TypeApprox::Hash))
    }

    /// The union classification of field `name`: a single approximation if
    /// every declaration agrees, `Unknown` on conflict or absence.
    pub fn lookup(&self, name: &str) -> TypeApprox {
        match self.by_name.get(name) {
            Some(set) if set.len() == 1 => {
                set.iter().next().cloned().unwrap_or(TypeApprox::Unknown)
            }
            _ => TypeApprox::Unknown,
        }
    }
}

// ---- small token utilities ------------------------------------------------

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

/// Index just past the bracket group opening at `open` (`(`, `[`, or `{`),
/// balancing all three kinds. Returns `tokens.len()` if unterminated.
pub fn skip_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i.saturating_add(1);
                    }
                }
                _ => {}
            }
        }
        i = i.saturating_add(1);
    }
    i
}

/// Index just past a `<...>` generic group opening at `open`. Returns
/// `open` unchanged if `open` is not a `<`.
fn skip_angles(tokens: &[Token], open: usize) -> usize {
    if !tokens.get(open).is_some_and(|t| is_punct(t, "<")) {
        return open;
    }
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        if is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, ">") {
            depth -= 1;
            if depth == 0 {
                return i.saturating_add(1);
            }
        } else if is_punct(t, ";") || is_punct(t, "{") {
            // Unbalanced `<` (a comparison, not generics): bail out.
            return open;
        }
        i = i.saturating_add(1);
    }
    i
}

/// Whether a numeric literal's source text denotes a float.
pub fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

// ---- type classification --------------------------------------------------

/// Head-type names that classify as [`TypeApprox::Hash`].
pub const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
/// Head-type names that classify as [`TypeApprox::VecLike`].
const VEC_TYPES: [&str; 2] = ["Vec", "VecDeque"];
/// Head-type names that classify as [`TypeApprox::Float`].
const FLOAT_TYPES: [&str; 2] = ["f32", "f64"];

/// Tokens that may appear before the head ident of a type: references,
/// lifetimes, and qualifiers.
fn classify_type(tokens: &[Token], aliases: &BTreeMap<String, TypeApprox>) -> TypeApprox {
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        match t.kind {
            TokenKind::Punct if matches!(t.text.as_str(), "&" | "*") => i += 1,
            TokenKind::Lifetime => i += 1,
            TokenKind::Ident if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") => {
                i += 1
            }
            // A slice or array type: indexable.
            TokenKind::Punct if t.text == "[" => return TypeApprox::VecLike,
            TokenKind::Punct if t.text == "(" => return TypeApprox::Unknown, // tuple
            TokenKind::Ident => {
                // Walk a path `a::b::C<...>` and classify its last segment
                // before generics (`std::collections::HashMap` → HashMap).
                let mut head = t.text.clone();
                let mut j = i.saturating_add(1);
                loop {
                    let sep = tokens.get(j).is_some_and(|t| is_punct(t, ":"))
                        && tokens
                            .get(j.saturating_add(1))
                            .is_some_and(|t| is_punct(t, ":"));
                    if !sep {
                        break;
                    }
                    j = j.saturating_add(2);
                    match tokens.get(j) {
                        Some(seg) if seg.kind == TokenKind::Ident => {
                            head = seg.text.clone();
                            j = j.saturating_add(1);
                        }
                        _ => break,
                    }
                }
                if let Some(resolved) = aliases.get(&head) {
                    return resolved.clone();
                }
                if HASH_TYPES.contains(&head.as_str()) {
                    return TypeApprox::Hash;
                }
                if VEC_TYPES.contains(&head.as_str()) {
                    return TypeApprox::VecLike;
                }
                if FLOAT_TYPES.contains(&head.as_str()) {
                    return TypeApprox::Float;
                }
                return TypeApprox::Named(head);
            }
            _ => return TypeApprox::Unknown,
        }
    }
    TypeApprox::Unknown
}

/// Classifies an initializer expression (the tokens after a `let name =`):
/// constructor paths, float literals, `vec![...]`, and `self.field` reads.
fn classify_expr(
    tokens: &[Token],
    aliases: &BTreeMap<String, TypeApprox>,
    fields: Option<&FieldTable>,
) -> TypeApprox {
    let first = match tokens.first() {
        Some(t) => t,
        None => return TypeApprox::Unknown,
    };
    match first.kind {
        TokenKind::Literal if is_float_literal(&first.text) => TypeApprox::Float,
        TokenKind::Ident if first.text == "vec" => TypeApprox::VecLike,
        TokenKind::Ident if first.text == "self" => {
            // `self.field` (possibly `.clone()`d): the field's type.
            let dot = tokens.get(1).is_some_and(|t| is_punct(t, "."));
            let field = tokens.get(2).filter(|t| t.kind == TokenKind::Ident);
            match (dot, field, fields) {
                (true, Some(f), Some(table)) => {
                    // Only a bare read or a `.clone()` preserves the type.
                    let rest_ok = match tokens.get(3) {
                        None => true,
                        Some(t) if is_punct(t, ".") => {
                            tokens.get(4).is_some_and(|m| is_ident(m, "clone"))
                        }
                        Some(_) => false,
                    };
                    if rest_ok {
                        table.lookup(&f.text)
                    } else {
                        TypeApprox::Unknown
                    }
                }
                _ => TypeApprox::Unknown,
            }
        }
        TokenKind::Ident => {
            // A constructor path `Type::new(...)` / `Type::with_capacity`:
            // classify the path's head segments as a type. Require a `::`
            // so a plain variable copy stays Unknown.
            if tokens.get(1).is_some_and(|t| is_punct(t, ":"))
                && tokens.get(2).is_some_and(|t| is_punct(t, ":"))
            {
                classify_type(tokens, aliases)
            } else {
                TypeApprox::Unknown
            }
        }
        _ => TypeApprox::Unknown,
    }
}

// ---- the item scan --------------------------------------------------------

/// Pending outer attributes seen since the last item.
#[derive(Default, Clone, Copy)]
struct PendingAttrs {
    cfg_test: bool,
    test: bool,
}

/// Builds the HIR of one file. Never fails: unrecognized constructs are
/// skipped, not rejected.
pub fn parse(tokens: &[Token]) -> FileHir {
    let mut hir = FileHir::default();
    // Local `type X = HashMap<...>` aliases, applied when classifying.
    let mut aliases: BTreeMap<String, TypeApprox> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if is_ident(t, "type")
            && tokens
                .get(i.saturating_add(1))
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && tokens
                .get(i.saturating_add(2))
                .is_some_and(|e| is_punct(e, "="))
        {
            let name = tokens
                .get(i.saturating_add(1))
                .map(|n| n.text.clone())
                .unwrap_or_default();
            let mut end = i.saturating_add(3);
            while tokens.get(end).is_some_and(|t| !is_punct(t, ";")) {
                end = end.saturating_add(1);
            }
            let ty = classify_type(
                tokens.get(i.saturating_add(3)..end).unwrap_or(&[]),
                &aliases,
            );
            if ty != TypeApprox::Unknown {
                aliases.insert(name, ty);
            }
        }
    }

    let mut pending = PendingAttrs::default();
    let mut i = 0usize;
    while let Some(t) = tokens.get(i) {
        // Outer attribute: `#[...]`. Record test markers, then skip it.
        if is_punct(t, "#") {
            let open = i.saturating_add(1);
            let is_inner = tokens.get(open).is_some_and(|t| is_punct(t, "!"));
            let group_at = if is_inner {
                open.saturating_add(1)
            } else {
                open
            };
            if tokens.get(group_at).is_some_and(|t| is_punct(t, "[")) {
                let end = skip_group(tokens, group_at);
                let attr = tokens.get(group_at..end).unwrap_or(&[]);
                let has = |name: &str| attr.iter().any(|t| is_ident(t, name));
                if !is_inner {
                    if has("cfg") && has("test") {
                        pending.cfg_test = true;
                    } else if has("test") {
                        pending.test = true;
                    }
                }
                i = end;
                continue;
            }
        }
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "struct" => {
                    let (def, next) = parse_struct(tokens, i, &aliases);
                    if pending.cfg_test || pending.test {
                        hir.test_spans.push((i, next));
                    }
                    if let Some(def) = def {
                        hir.structs.push(def);
                    }
                    pending = PendingAttrs::default();
                    i = next;
                    continue;
                }
                "impl" => {
                    if let Some((def, body_open)) = parse_impl_header(tokens, i) {
                        if pending.cfg_test || pending.test {
                            hir.test_spans.push((i, def.body.1));
                        }
                        pending = PendingAttrs::default();
                        hir.impls.push(def);
                        // Descend into the body: methods are picked up by
                        // the main loop.
                        i = body_open.saturating_add(1);
                        continue;
                    }
                }
                "fn" => {
                    let (def, next) = parse_fn(tokens, i, &aliases);
                    if pending.cfg_test || pending.test {
                        hir.test_spans.push((i, next));
                    }
                    pending = PendingAttrs::default();
                    if let Some(def) = def {
                        hir.fns.push(def);
                        // Descend: nested fns/closures are re-scanned, and
                        // debug_assert spans inside bodies must be found.
                        let open = def_body_open(&hir);
                        i = open.saturating_add(1);
                        continue;
                    }
                    i = next;
                    continue;
                }
                "mod" => {
                    // `mod name { ... }`: a #[cfg(test)] mod is a test span
                    // covering its whole body; otherwise descend normally.
                    let mut j = i.saturating_add(1);
                    while tokens
                        .get(j)
                        .is_some_and(|t| !is_punct(t, "{") && !is_punct(t, ";"))
                    {
                        j = j.saturating_add(1);
                    }
                    if tokens.get(j).is_some_and(|t| is_punct(t, "{")) {
                        if pending.cfg_test {
                            hir.test_spans.push((i, skip_group(tokens, j)));
                        }
                        pending = PendingAttrs::default();
                        i = j.saturating_add(1); // descend
                        continue;
                    }
                    pending = PendingAttrs::default();
                    i = j.saturating_add(1);
                    continue;
                }
                name if name.starts_with("debug_assert")
                    && tokens
                        .get(i.saturating_add(1))
                        .is_some_and(|t| is_punct(t, "!")) =>
                {
                    let open = i.saturating_add(2);
                    if tokens
                        .get(open)
                        .is_some_and(|t| is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{"))
                    {
                        let end = skip_group(tokens, open);
                        hir.debug_assert_spans.push((i, end));
                        i = end;
                        continue;
                    }
                }
                _ => {}
            }
        }
        i = i.saturating_add(1);
    }
    hir
}

/// The body-open token index of the most recently pushed fn.
fn def_body_open(hir: &FileHir) -> usize {
    hir.fns.last().map(|f| f.body.0).unwrap_or(0)
}

/// Parses `struct Name ... { fields }` starting at the `struct` keyword.
/// Returns the def (None for unnamed/unrecognized) and the index to resume
/// scanning at.
fn parse_struct(
    tokens: &[Token],
    kw: usize,
    aliases: &BTreeMap<String, TypeApprox>,
) -> (Option<StructDef>, usize) {
    let name_tok = match tokens.get(kw.saturating_add(1)) {
        Some(t) if t.kind == TokenKind::Ident => t,
        _ => return (None, kw.saturating_add(1)),
    };
    let line = tokens.get(kw).map(|t| t.line).unwrap_or(0);
    // Find the body `{`, a tuple `(`, or `;`, skipping generics and where
    // clauses (where clauses may contain `(` for Fn bounds; those are
    // skipped as groups).
    let mut j = kw.saturating_add(2);
    j = skip_angles(tokens, j);
    loop {
        match tokens.get(j) {
            None => return (None, j),
            Some(t) if is_punct(t, "{") => break,
            Some(t) if is_punct(t, ";") => {
                // Unit struct: no fields.
                return (
                    Some(StructDef {
                        name: name_tok.text.clone(),
                        line,
                        fields: Vec::new(),
                    }),
                    j.saturating_add(1),
                );
            }
            Some(t) if is_punct(t, "(") => {
                // Tuple struct: positional fields are out of scope for the
                // field table (no names to resolve).
                let end = skip_group(tokens, j);
                return (
                    Some(StructDef {
                        name: name_tok.text.clone(),
                        line,
                        fields: Vec::new(),
                    }),
                    end,
                );
            }
            Some(_) => j = j.saturating_add(1),
        }
    }
    let body_end = skip_group(tokens, j);
    let mut fields = Vec::new();
    // Fields: `[pub[(...)]] name : TYPE` at depth 1, separated by commas at
    // depth 1. Attributes on fields are skipped as groups.
    let mut k = j.saturating_add(1);
    while k < body_end.saturating_sub(1) {
        let t = match tokens.get(k) {
            Some(t) => t,
            None => break,
        };
        if is_punct(t, "#") {
            let open = k.saturating_add(1);
            if tokens.get(open).is_some_and(|t| is_punct(t, "[")) {
                k = skip_group(tokens, open);
                continue;
            }
        }
        if is_ident(t, "pub") {
            k = k.saturating_add(1);
            if tokens.get(k).is_some_and(|t| is_punct(t, "(")) {
                k = skip_group(tokens, k);
            }
            continue;
        }
        if t.kind == TokenKind::Ident
            && tokens
                .get(k.saturating_add(1))
                .is_some_and(|c| is_punct(c, ":"))
            && !tokens
                .get(k.saturating_add(2))
                .is_some_and(|c| is_punct(c, ":"))
        {
            // Scan the type up to the field's terminating comma (at this
            // depth) or the body close.
            let ty_start = k.saturating_add(2);
            let mut m = ty_start;
            let mut depth = 0i32;
            let mut angle = 0i32;
            while m < body_end.saturating_sub(1) {
                let u = match tokens.get(m) {
                    Some(u) => u,
                    None => break,
                };
                if u.kind == TokenKind::Punct {
                    match u.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "," if depth == 0 && angle <= 0 => break,
                        _ => {}
                    }
                }
                m = m.saturating_add(1);
            }
            fields.push(Field {
                name: t.text.clone(),
                ty: classify_type(tokens.get(ty_start..m).unwrap_or(&[]), aliases),
                line: t.line,
            });
            k = m.saturating_add(1);
            continue;
        }
        k = k.saturating_add(1);
    }
    (
        Some(StructDef {
            name: name_tok.text.clone(),
            line,
            fields,
        }),
        body_end,
    )
}

/// Parses an `impl` header starting at the `impl` keyword. Returns the def
/// and the index of the body `{`.
fn parse_impl_header(tokens: &[Token], kw: usize) -> Option<(ImplDef, usize)> {
    let line = tokens.get(kw)?.line;
    let mut j = skip_angles(tokens, kw.saturating_add(1));
    // Collect path segments until `for`, `{`, or `where`.
    let mut first_path_head: Option<String> = None;
    let mut second_path_head: Option<String> = None;
    let mut saw_for = false;
    loop {
        let t = tokens.get(j)?;
        if is_punct(t, "{") {
            break;
        }
        if is_ident(t, "where") {
            // Skip the where clause up to the body brace.
            while tokens.get(j).is_some_and(|t| !is_punct(t, "{")) {
                j = j.saturating_add(1);
            }
            break;
        }
        if is_ident(t, "for") {
            saw_for = true;
            j = j.saturating_add(1);
            continue;
        }
        if t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut" | "const") {
            let slot = if saw_for {
                &mut second_path_head
            } else {
                &mut first_path_head
            };
            // The head of a path is its last segment before generics;
            // later segments overwrite earlier ones.
            *slot = Some(t.text.clone());
            j = skip_angles(tokens, j.saturating_add(1));
            continue;
        }
        j = j.saturating_add(1);
    }
    let body_open = j;
    let body_end = skip_group(tokens, body_open);
    let (trait_name, self_ty) = if saw_for {
        (first_path_head, second_path_head?)
    } else {
        (None, first_path_head?)
    };
    Some((
        ImplDef {
            trait_name,
            self_ty,
            line,
            body: (body_open, body_end),
        },
        body_open,
    ))
}

/// Parses `fn name(params) ... { body }` starting at the `fn` keyword,
/// building the binding table from params and `let` statements. Returns
/// the def (None for bodyless trait-method signatures) and the resume
/// index.
fn parse_fn(
    tokens: &[Token],
    kw: usize,
    aliases: &BTreeMap<String, TypeApprox>,
) -> (Option<FnDef>, usize) {
    let name_tok = match tokens.get(kw.saturating_add(1)) {
        Some(t) if t.kind == TokenKind::Ident => t.clone(),
        _ => return (None, kw.saturating_add(1)),
    };
    let line = tokens.get(kw).map(|t| t.line).unwrap_or(0);
    let j = skip_angles(tokens, kw.saturating_add(2));
    if !tokens.get(j).is_some_and(|t| is_punct(t, "(")) {
        return (None, j);
    }
    let params_end = skip_group(tokens, j);
    let mut bindings = BTreeMap::new();
    parse_params(
        tokens
            .get(j.saturating_add(1)..params_end.saturating_sub(1))
            .unwrap_or(&[]),
        aliases,
        &mut bindings,
    );
    // Find the body `{` (skipping the return type and where clause) or a
    // terminating `;` (trait method signature).
    let mut k = params_end;
    loop {
        match tokens.get(k) {
            None => return (None, k),
            Some(t) if is_punct(t, "{") => break,
            Some(t) if is_punct(t, ";") => return (None, k.saturating_add(1)),
            Some(t) if is_punct(t, "(") || is_punct(t, "[") => k = skip_group(tokens, k),
            Some(t) if is_punct(t, "<") => k = skip_angles(tokens, k).max(k.saturating_add(1)),
            Some(_) => k = k.saturating_add(1),
        }
    }
    let body_open = k;
    let body_end = skip_group(tokens, body_open);
    collect_lets(
        tokens,
        body_open.saturating_add(1),
        body_end,
        aliases,
        &mut bindings,
    );
    (
        Some(FnDef {
            name: name_tok.text,
            line,
            body: (body_open, body_end),
            bindings,
        }),
        body_end,
    )
}

/// Parses a parameter list (the tokens between the parens) into bindings.
fn parse_params(
    params: &[Token],
    aliases: &BTreeMap<String, TypeApprox>,
    out: &mut BTreeMap<String, TypeApprox>,
) {
    // Split at commas at depth 0 (angle and bracket balanced).
    let mut start = 0usize;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut i = 0usize;
    loop {
        let at_end = i >= params.len();
        let split = at_end
            || (params.get(i).is_some_and(|t| {
                t.kind == TokenKind::Punct && t.text == "," && depth == 0 && angle <= 0
            }));
        if split {
            let param = params.get(start..i).unwrap_or(&[]);
            // `[mut] name : TYPE` — self receivers and patterns are skipped.
            let mut p = 0usize;
            if param.get(p).is_some_and(|t| is_ident(t, "mut")) {
                p += 1;
            }
            if let (Some(name), Some(colon)) = (param.get(p), param.get(p.saturating_add(1))) {
                if name.kind == TokenKind::Ident
                    && name.text != "self"
                    && is_punct(colon, ":")
                    && !param
                        .get(p.saturating_add(2))
                        .is_some_and(|t| is_punct(t, ":"))
                {
                    let ty =
                        classify_type(param.get(p.saturating_add(2)..).unwrap_or(&[]), aliases);
                    out.insert(name.text.clone(), ty);
                }
            }
            if at_end {
                break;
            }
            start = i.saturating_add(1);
        }
        if let Some(t) = params.get(i) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
            }
        }
        i = i.saturating_add(1);
    }
}

/// Scans a body token range for `let [mut] name [: TYPE] = EXPR`
/// statements and records their approximated types.
fn collect_lets(
    tokens: &[Token],
    start: usize,
    end: usize,
    aliases: &BTreeMap<String, TypeApprox>,
    out: &mut BTreeMap<String, TypeApprox>,
) {
    let mut i = start;
    while i < end {
        let t = match tokens.get(i) {
            Some(t) => t,
            None => break,
        };
        if !is_ident(t, "let") {
            i = i.saturating_add(1);
            continue;
        }
        let mut j = i.saturating_add(1);
        if tokens.get(j).is_some_and(|t| is_ident(t, "mut")) {
            j = j.saturating_add(1);
        }
        let name = match tokens.get(j) {
            Some(n) if n.kind == TokenKind::Ident => n.text.clone(),
            _ => {
                i = i.saturating_add(1);
                continue;
            }
        };
        // `let Some(x)` / `let (a, b)` destructuring: the next token after
        // the name being `(`/`{`/`::` means `name` was a pattern head.
        if tokens
            .get(j.saturating_add(1))
            .is_some_and(|t| is_punct(t, "(") || is_punct(t, "{"))
        {
            i = j.saturating_add(1);
            continue;
        }
        let mut declared: Option<TypeApprox> = None;
        let mut k = j.saturating_add(1);
        if tokens.get(k).is_some_and(|t| is_punct(t, ":"))
            && !tokens
                .get(k.saturating_add(1))
                .is_some_and(|t| is_punct(t, ":"))
        {
            // Declared type up to the `=` or `;` at depth 0.
            let ty_start = k.saturating_add(1);
            let mut m = ty_start;
            let mut depth = 0i32;
            let mut angle = 0i32;
            while m < end {
                let u = match tokens.get(m) {
                    Some(u) => u,
                    None => break,
                };
                if u.kind == TokenKind::Punct {
                    match u.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "=" | ";" if depth == 0 && angle <= 0 => break,
                        _ => {}
                    }
                }
                m = m.saturating_add(1);
            }
            declared = Some(classify_type(
                tokens.get(ty_start..m).unwrap_or(&[]),
                aliases,
            ));
            k = m;
        }
        let ty = match declared {
            Some(ty) if ty != TypeApprox::Unknown => ty,
            _ => {
                if tokens.get(k).is_some_and(|t| is_punct(t, "=")) {
                    // Initializer up to the statement `;` at depth 0.
                    let ex_start = k.saturating_add(1);
                    let mut m = ex_start;
                    let mut depth = 0i32;
                    while m < end {
                        let u = match tokens.get(m) {
                            Some(u) => u,
                            None => break,
                        };
                        if u.kind == TokenKind::Punct {
                            match u.text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                ";" if depth == 0 => break,
                                _ => {}
                            }
                        }
                        m = m.saturating_add(1);
                    }
                    classify_expr(tokens.get(ex_start..m).unwrap_or(&[]), aliases, None)
                } else {
                    TypeApprox::Unknown
                }
            }
        };
        out.insert(name, ty);
        i = k.saturating_add(1);
    }
}

/// Re-resolves `let` bindings whose initializers read `self.` fields, once
/// the workspace field table exists. Called as a second pass so field
/// lookups see every audited crate.
pub fn refine_bindings(tokens: &[Token], hir: &mut FileHir, fields: &FieldTable) {
    let aliases = BTreeMap::new();
    for f in hir.fns.iter_mut() {
        let (start, end) = f.body;
        let mut i = start;
        while i < end {
            let t = match tokens.get(i) {
                Some(t) => t,
                None => break,
            };
            if is_ident(t, "let") {
                let mut j = i.saturating_add(1);
                if tokens.get(j).is_some_and(|t| is_ident(t, "mut")) {
                    j = j.saturating_add(1);
                }
                if let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) {
                    if f.bindings.get(&name.text) == Some(&TypeApprox::Unknown)
                        && tokens
                            .get(j.saturating_add(1))
                            .is_some_and(|t| is_punct(t, "="))
                    {
                        let ex_start = j.saturating_add(2);
                        let mut m = ex_start;
                        let mut depth = 0i32;
                        while m < end {
                            let u = match tokens.get(m) {
                                Some(u) => u,
                                None => break,
                            };
                            if u.kind == TokenKind::Punct {
                                match u.text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    ";" if depth == 0 => break,
                                    _ => {}
                                }
                            }
                            m = m.saturating_add(1);
                        }
                        let ty = classify_expr(
                            tokens.get(ex_start..m).unwrap_or(&[]),
                            &aliases,
                            Some(fields),
                        );
                        if ty != TypeApprox::Unknown {
                            f.bindings.insert(name.text.clone(), ty);
                        }
                    }
                }
            }
            i = i.saturating_add(1);
        }
    }
}

// ---- receiver resolution --------------------------------------------------

/// Approximates the type of the receiver of a method call whose `.` sits at
/// token index `dot` (`RECV . method (...)`). Resolution order: float
/// literals, `self.field` lookups, the enclosing function's binding table,
/// then the workspace field table; anything else is `Unknown`.
pub fn receiver_approx(
    tokens: &[Token],
    dot: usize,
    hir: &FileHir,
    fields: &FieldTable,
) -> TypeApprox {
    let recv = dot.checked_sub(1).and_then(|i| tokens.get(i));
    let t = match recv {
        Some(t) => t,
        None => return TypeApprox::Unknown,
    };
    match t.kind {
        TokenKind::Literal if t.text.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
            if is_float_literal(&t.text) {
                TypeApprox::Float
            } else {
                // A non-float numeric literal: known non-float.
                TypeApprox::Named("{integer}".to_string())
            }
        }
        TokenKind::Ident => {
            let name = &t.text;
            // Field access: `something . name . method` — the token before
            // `name` is a `.`.
            let before = dot.checked_sub(2).and_then(|i| tokens.get(i));
            if before.is_some_and(|b| is_punct(b, ".")) {
                return fields.lookup(name);
            }
            if let Some(f) = hir.enclosing_fn(dot) {
                if let Some(ty) = f.bindings.get(name) {
                    if *ty != TypeApprox::Unknown {
                        return ty.clone();
                    }
                }
            }
            fields.lookup(name)
        }
        _ => TypeApprox::Unknown,
    }
}
