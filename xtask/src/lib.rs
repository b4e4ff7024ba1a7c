//! The determinism audit: `cargo xtask lint`.
//!
//! Every figure this repo produces must be byte-identical across runs,
//! machines, and `--threads` counts (DESIGN.md §7). The dynamic checks —
//! captured figure outputs, bench baselines, debug shadow cross-checks —
//! catch a violation only *after* it changed a schedule. This pass catches
//! the bug classes statically, the way deterministic-simulation stacks do.
//!
//! The analyzer has two layers (DESIGN.md §14): the hand-rolled tokenizer
//! in [`lexer`] (no external deps — the build environment is offline) and
//! a small item-level HIR in [`hir`] built over it — structs with typed
//! fields, impl blocks, functions with binding tables, and a workspace-wide
//! field table — so rules resolve *what a receiver is* instead of tracking
//! identifiers per file. Rules live in [`rules`], one module per family:
//!
//! | rule id            | contract |
//! |--------------------|----------|
//! | `unordered-iter`   | no iteration over `HashMap`/`HashSet` in deterministic crates unless annotated, folded through an order-insensitive sink, or collected and sorted in the same function |
//! | `wall-clock`       | no `Instant`/`SystemTime` in deterministic crates — virtual `Clock` time only |
//! | `float-ord`        | no raw ordering comparisons on float-typed receivers; route through the lossless `order_key` encoding in `crates/core/src/index.rs` |
//! | `unsafe-code`      | no `unsafe` anywhere (paired with `#![forbid(unsafe_code)]`) |
//! | `serialized-hash`  | no default-hasher container inside a `#[derive(Serialize)]` type (figure/bench output must not depend on hasher order) |
//! | `missing-forbid`   | every crate root carries `#![forbid(unsafe_code)]` |
//! | `clone-exhaustive` | a hand-written `impl Clone` must mention every declared field (the snapshot/fork deep-copy contract) |
//! | `panic-path`       | no unjustified `unwrap`/vacuous `expect`/computed slice index in deterministic code |
//!
//! Escape hatches, both with **mandatory justifications**:
//!
//! * a site annotation on the offending line or the line above:
//!   `// lint: allow(unordered-iter) — <why this order cannot matter>`
//! * a repo-level entry in `xtask/lint.allow`:
//!   `<rule-id> <path> <justification>` — unused entries are themselves
//!   violations (`unused-allow`), so the file cannot rot.
//!
//! The audit covers `crates/*/src`, the root crate's `src/`, and
//! `xtask/src` itself — the linter is subject to its own `panic-path` and
//! `unordered-iter` rules, so the tool cannot rot either.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod hir;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Lexed};
use rules::RuleCtx;

/// Crates whose code executes inside the deterministic simulation: the
/// strict rules apply here. `bench` (wall-clock measurement) and `metrics`
/// (post-hoc aggregation) are exempt from the simulation-path rules but
/// still checked for `unsafe` and serialized hash containers.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "engine",
    "faults",
    "migration",
    "model",
    "sim",
    "workload",
];

/// Lint rules. Ids are stable: annotations, the allowlist, and the JSON
/// report refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a default-hasher container in a deterministic crate.
    UnorderedIter,
    /// Wall-clock time source in a deterministic crate.
    WallClock,
    /// Raw float ordering comparison outside the `order_key` encoding.
    FloatOrd,
    /// An `unsafe` block or function.
    UnsafeCode,
    /// Hash container inside a `#[derive(Serialize)]` type.
    SerializedHash,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    MissingForbid,
    /// A manual `impl Clone` that skips a declared field.
    CloneExhaustive,
    /// Unjustified panic site in deterministic code.
    PanicPath,
    /// An allow annotation without a justification.
    BareAllow,
    /// An allowlist entry that matched nothing.
    UnusedAllow,
}

impl Rule {
    /// The stable rule id used in annotations and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::WallClock => "wall-clock",
            Rule::FloatOrd => "float-ord",
            Rule::UnsafeCode => "unsafe-code",
            Rule::SerializedHash => "serialized-hash",
            Rule::MissingForbid => "missing-forbid",
            Rule::CloneExhaustive => "clone-exhaustive",
            Rule::PanicPath => "panic-path",
            Rule::BareAllow => "bare-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "unordered-iter" => Rule::UnorderedIter,
            "wall-clock" => Rule::WallClock,
            "float-ord" => Rule::FloatOrd,
            "unsafe-code" => Rule::UnsafeCode,
            "serialized-hash" => Rule::SerializedHash,
            "missing-forbid" => Rule::MissingForbid,
            "clone-exhaustive" => Rule::CloneExhaustive,
            "panic-path" => Rule::PanicPath,
            _ => return None,
        })
    }

    /// Whether a site annotation / allowlist entry may silence this rule.
    /// `unsafe-code` and `missing-forbid` have no escape hatch: the
    /// determinism contract never needs either.
    pub fn allowable(self) -> bool {
        !matches!(
            self,
            Rule::UnsafeCode | Rule::MissingForbid | Rule::BareAllow | Rule::UnusedAllow
        )
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// How a file is classified for rule selection.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Simulation-path crate: the strict rules apply.
    pub deterministic: bool,
    /// A crate root that must carry `#![forbid(unsafe_code)]`.
    pub lib_root: bool,
    /// The linter's own source: self-audited for `panic-path` and
    /// `unordered-iter` (a nondeterministic or panicking audit would be
    /// its own bug class).
    pub xtask: bool,
}

// ---- annotations ----------------------------------------------------------

/// Site annotations parsed from a file's comments: `(line, rule)` pairs,
/// plus `bare-allow` findings for annotations with no justification.
struct Allows {
    at: Vec<(u32, Rule)>,
    bare: Vec<(u32, String)>,
}

const ALLOW_MARKER: &str = "lint: allow(";

fn parse_allows(comments: &[(u32, String)]) -> Allows {
    let mut at = Vec::new();
    let mut bare = Vec::new();
    for (line, text) in comments {
        let Some(pos) = text.find(ALLOW_MARKER) else {
            continue;
        };
        let rest = &text[pos + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            bare.push((*line, "unterminated lint: allow(...)".to_string()));
            continue;
        };
        let id = rest[..close].trim();
        let Some(rule) = Rule::from_id(id) else {
            bare.push((*line, format!("unknown rule `{id}` in allow annotation")));
            continue;
        };
        if !rule.allowable() {
            bare.push((*line, format!("rule `{id}` cannot be allowed")));
            continue;
        }
        // The justification: whatever follows the `)`, minus separator
        // punctuation, must contain a word.
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', ','])
            .trim();
        if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
            bare.push((
                *line,
                format!("allow({id}) needs a justification after the `)`"),
            ));
            continue;
        }
        at.push((*line, rule));
    }
    Allows { at, bare }
}

impl Allows {
    /// An annotation covers its own line (trailing comment) and the line
    /// directly below it (preceding-line comment).
    fn covers(&self, line: u32, rule: Rule) -> bool {
        self.at
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }
}

// ---- the allowlist file ---------------------------------------------------

/// The repo-level allowlist (`xtask/lint.allow`): one entry per line,
/// `<rule-id> <path> <justification>`. Justifications are mandatory and
/// unused entries are violations.
pub struct Allowlist {
    entries: Vec<(Rule, String, bool)>,
    /// Findings produced while parsing (bad entries).
    pub parse_findings: Vec<Finding>,
}

impl Allowlist {
    /// An empty allowlist.
    pub fn empty() -> Self {
        Allowlist {
            entries: Vec::new(),
            parse_findings: Vec::new(),
        }
    }

    /// Parses the allowlist text. `origin` names the file in findings.
    pub fn parse(text: &str, origin: &str) -> Self {
        let mut entries = Vec::new();
        let mut parse_findings = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i as u32 + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule_id = parts.next().unwrap_or_default();
            let path = parts.next().unwrap_or_default();
            let reason = parts.next().unwrap_or_default().trim();
            let bad = |msg: String| Finding {
                path: origin.to_string(),
                line: lineno,
                rule: Rule::BareAllow,
                message: msg,
            };
            let Some(rule) = Rule::from_id(rule_id) else {
                parse_findings.push(bad(format!("unknown rule `{rule_id}` in allowlist")));
                continue;
            };
            if !rule.allowable() {
                parse_findings.push(bad(format!("rule `{rule_id}` cannot be allowlisted")));
                continue;
            }
            if path.is_empty() {
                parse_findings.push(bad("allowlist entry missing a path".to_string()));
                continue;
            }
            if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
                parse_findings.push(bad(format!(
                    "allowlist entry for {path} needs a justification"
                )));
                continue;
            }
            entries.push((rule, path.to_string(), false));
        }
        Allowlist {
            entries,
            parse_findings,
        }
    }

    /// Whether an entry covers `(rule, path)`; marks it used.
    pub fn allows(&mut self, rule: Rule, path: &str) -> bool {
        let mut hit = false;
        for (r, p, used) in &mut self.entries {
            if *r == rule && p == path {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// `unused-allow` findings for entries that matched nothing.
    pub fn unused_findings(&self, origin: &str) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|(_, _, used)| !used)
            .map(|(rule, path, _)| Finding {
                path: origin.to_string(),
                line: 0,
                rule: Rule::UnusedAllow,
                message: format!(
                    "allowlist entry `{} {}` matched nothing — delete it",
                    rule.id(),
                    path
                ),
            })
            .collect()
    }
}

// ---- per-file driver ------------------------------------------------------

/// Runs the rule passes selected by `class` over one analyzed file.
fn rule_passes(class: &FileClass, ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if class.deterministic {
        rules::iter::unordered_iter(ctx, out);
        rules::tokens::wall_clock(ctx, out);
        rules::floats::float_ord(ctx, out);
        rules::clone::clone_exhaustive(ctx, out);
        rules::panics::panic_path(ctx, out);
    } else if class.xtask {
        rules::iter::unordered_iter(ctx, out);
        rules::panics::panic_path(ctx, out);
    }
    rules::tokens::unsafe_code(ctx, out);
    rules::tokens::serialized_hash(ctx, out);
    if class.lib_root {
        rules::tokens::missing_forbid(ctx, out);
    }
}

/// Lints one analyzed file against `class`, filtering findings through its
/// site annotations.
fn lint_analyzed(
    path: &str,
    lexed: &Lexed,
    hir: &hir::FileHir,
    fields: &hir::FieldTable,
    class: &FileClass,
) -> Vec<Finding> {
    let allows = parse_allows(&lexed.comments);
    let ctx = RuleCtx {
        path,
        tokens: &lexed.tokens,
        hir,
        fields,
    };
    let mut raw = Vec::new();
    rule_passes(class, &ctx, &mut raw);
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !(f.rule.allowable() && allows.covers(f.line, f.rule)))
        .collect();
    for (line, message) in allows.bare {
        findings.push(Finding {
            path: path.to_string(),
            line,
            rule: Rule::BareAllow,
            message,
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Lints one file's source in isolation: the field table is built from this
/// file alone. `path` is used for reporting and allowlist matching; `class`
/// selects the applicable rules. The workspace driver [`run_lint`] resolves
/// fields across every audited file instead — use it for real audits; this
/// entry point exists for tests and single-file tooling.
pub fn lint_source(path: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    let lexed = lex(src);
    let mut file_hir = hir::parse(&lexed.tokens);
    let mut fields = hir::FieldTable::default();
    fields.add_file(&file_hir);
    hir::refine_bindings(&lexed.tokens, &mut file_hir, &fields);
    lint_analyzed(path, &lexed, &file_hir, &fields, class)
}

// ---- machine-readable output ----------------------------------------------

/// Escapes a string for a JSON string literal. Hand-rolled because the
/// build environment is offline: no serde.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The source line a finding points at, re-read from disk under `root`.
/// Line-0 findings (allowlist-level) and unreadable files yield `None`.
fn snippet_for(
    root: &Path,
    cache: &mut std::collections::BTreeMap<String, Vec<String>>,
    f: &Finding,
) -> Option<String> {
    if f.line == 0 {
        return None;
    }
    if !cache.contains_key(&f.path) {
        let lines = std::fs::read_to_string(root.join(&f.path))
            .map(|src| src.lines().map(|l| l.to_string()).collect())
            .unwrap_or_default();
        cache.insert(f.path.clone(), lines);
    }
    cache
        .get(&f.path)
        .and_then(|lines| lines.get(f.line as usize - 1))
        .map(|l| l.trim_end().to_string())
}

/// Renders findings as the stable machine-readable document behind
/// `cargo xtask lint --format json`. Schema (version 1): `version`,
/// `clean`, and `findings[]` of `{rule, path, line, message, snippet,
/// allow_candidate}` — `snippet` is the offending source line re-read from
/// disk (null if unavailable), `allow_candidate` a paste-ready annotation
/// (null for rules with no escape hatch). Fields are only ever added;
/// `version` bumps if a field's meaning changes.
pub fn render_json(root: &Path, findings: &[Finding]) -> String {
    let mut cache = std::collections::BTreeMap::new();
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"clean\": {},\n", findings.is_empty()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"rule\": {},\n", json_str(f.rule.id())));
        out.push_str(&format!("      \"path\": {},\n", json_str(&f.path)));
        out.push_str(&format!("      \"line\": {},\n", f.line));
        out.push_str(&format!("      \"message\": {},\n", json_str(&f.message)));
        let snippet = snippet_for(root, &mut cache, f);
        out.push_str(&format!(
            "      \"snippet\": {},\n",
            snippet
                .as_deref()
                .map(json_str)
                .unwrap_or_else(|| "null".to_string())
        ));
        let candidate = if f.rule.allowable() {
            Some(format!("// lint: allow({}) — <reason>", f.rule.id()))
        } else {
            None
        };
        out.push_str(&format!(
            "      \"allow_candidate\": {}\n",
            candidate
                .as_deref()
                .map(json_str)
                .unwrap_or_else(|| "null".to_string())
        ));
        out.push_str("    }");
    }
    if !findings.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}");
    out
}

// ---- workspace walk -------------------------------------------------------

/// A file scheduled for linting.
#[derive(Debug)]
pub struct WorkItem {
    /// Absolute path.
    pub abs: PathBuf,
    /// Repo-relative display path.
    pub rel: String,
    /// Rule classification.
    pub class: FileClass,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Enumerates every file the audit covers: `crates/*/src`, the root crate's
/// `src/`, and `xtask/src` itself.
pub fn work_items(root: &Path) -> Vec<WorkItem> {
    let mut items = Vec::new();
    let mut push_tree = |src_dir: PathBuf, crate_name: String| {
        let deterministic = DETERMINISTIC_CRATES.contains(&crate_name.as_str());
        let xtask = crate_name == "xtask";
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files);
        for abs in files {
            let rel = abs
                .strip_prefix(root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            let class = FileClass {
                deterministic,
                lib_root: abs.file_name().is_some_and(|f| f == "lib.rs")
                    && abs.parent() == Some(src_dir.as_path()),
                xtask,
            };
            items.push(WorkItem { abs, rel, class });
        }
    };
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        push_tree(dir.join("src"), name);
    }
    push_tree(root.join("src"), "llumnix".to_string());
    push_tree(root.join("xtask").join("src"), "xtask".to_string());
    items
}

/// Runs the full audit over the workspace at `root`, applying the
/// allowlist at `xtask/lint.allow` if present. Two passes: the first lexes
/// and HIR-parses every audited file and folds struct fields into one
/// workspace [`hir::FieldTable`]; the second re-resolves bindings against
/// that table and runs the rules, so `self.states.iter()` in one crate
/// resolves against a `states: HashMap<..>` declared in another. Returns
/// all findings, sorted by path and line.
pub fn run_lint(root: &Path) -> Vec<Finding> {
    let allow_path = root.join("xtask").join("lint.allow");
    let allow_origin = "xtask/lint.allow";
    let mut allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text, allow_origin),
        Err(_) => Allowlist::empty(),
    };
    let mut findings: Vec<Finding> = allowlist.parse_findings.clone();

    // Pass 1: analyze every file, build the workspace field table.
    struct Analyzed {
        rel: String,
        class: FileClass,
        lexed: Lexed,
        hir: hir::FileHir,
    }
    let mut analyzed = Vec::new();
    let mut fields = hir::FieldTable::default();
    for item in work_items(root) {
        let Ok(src) = std::fs::read_to_string(&item.abs) else {
            continue;
        };
        let lexed = lex(&src);
        let file_hir = hir::parse(&lexed.tokens);
        // Only simulation-path structs feed field resolution: a bench or
        // xtask struct reusing a field name must not reclassify receivers
        // inside the deterministic crates.
        if item.class.deterministic {
            fields.add_file(&file_hir);
        }
        analyzed.push(Analyzed {
            rel: item.rel,
            class: item.class,
            lexed,
            hir: file_hir,
        });
    }

    // Pass 2: resolve bindings against the full table, run the rules.
    for a in &mut analyzed {
        hir::refine_bindings(&a.lexed.tokens, &mut a.hir, &fields);
        for f in lint_analyzed(&a.rel, &a.lexed, &a.hir, &fields, &a.class) {
            if f.rule.allowable() && allowlist.allows(f.rule, &f.path) {
                continue;
            }
            findings.push(f);
        }
    }
    findings.extend(allowlist.unused_findings(allow_origin));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}
