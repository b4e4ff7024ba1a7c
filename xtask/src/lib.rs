//! The determinism audit's token pass: `cargo xtask lint`.
//!
//! Every figure this repo produces must be byte-identical across runs,
//! machines and `--threads` counts (DESIGN.md §7). Most of the static
//! audit is the compiler's: `[workspace.lints]` in the root `Cargo.toml`
//! and the `clippy.toml` files ban `unsafe`, the wall clock, hash-container
//! iteration, bare `unwrap` and reasonless escape hatches (DESIGN.md §8).
//! This pass holds the rules that need no types, only tokens:
//!
//! | rule id            | contract |
//! |--------------------|----------|
//! | `float-ord`        | no `.partial_cmp(` / `.total_cmp(` call in the deterministic crates' non-test code unless annotated |
//! | `panic-path`       | no vacuous `expect` message and no computed index in the deterministic crates and `xtask/src` |
//! | `clone-exhaustive` | no hand-written `impl Clone for` in the deterministic crates: derive it (the snapshot/fork contract) |
//! | `lint-config`      | every member manifest opts into `[workspace.lints]`, and no deterministic crate shadows `crates/clippy.toml` with its own |
//! | `bare-allow`       | an annotation must name a rule of this pass and give a reason |
//! | `unused-allow`     | an annotation must silence something |
//!
//! The escape hatch is a site annotation on the offending line or the line
//! above, with a mandatory reason:
//! `// lint: allow(float-ord) — <why this comparison cannot misorder>`.
//! The compiler's rules take `#[expect(<lint>, reason = "..")]` instead.
//!
//! The pass reads `crates/*/src`, the root crate's `src/`, `xtask/src`
//! (the audit is subject to its own `panic-path` rule) and the manifests of
//! the root package, `crates/*` and `xtask`.

mod lexer;
mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose code executes inside the deterministic simulation. `bench`
/// (wall-clock measurement) and `metrics` (post-hoc aggregation) are not
/// among them; they carry their own `clippy.toml`.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "engine",
    "faults",
    "migration",
    "model",
    "sim",
    "workload",
];

/// Lint rules. Ids are stable: annotations and reports refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A raw float ordering call.
    FloatOrd,
    /// An unjustified panic site.
    PanicPath,
    /// A hand-written `impl Clone`.
    CloneExhaustive,
    /// A crate outside the workspace's lint configuration.
    LintConfig,
    /// An annotation without a reason, or for no rule of this pass.
    BareAllow,
    /// An annotation that silences nothing.
    UnusedAllow,
}

impl Rule {
    /// The stable rule id used in annotations and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatOrd => "float-ord",
            Rule::PanicPath => "panic-path",
            Rule::CloneExhaustive => "clone-exhaustive",
            Rule::LintConfig => "lint-config",
            Rule::BareAllow => "bare-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// The rules a site annotation may silence.
    fn allowable(id: &str) -> Option<Rule> {
        [Rule::FloatOrd, Rule::PanicPath, Rule::CloneExhaustive]
            .into_iter()
            .find(|r| r.id() == id)
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

/// Which source rules apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// A simulation crate: `float-ord`, `panic-path`, `clone-exhaustive`.
    pub deterministic: bool,
    /// The audit's own source: `panic-path`.
    pub xtask: bool,
}

const ALLOW_MARKER: &str = "lint: allow(";

/// A parsed site annotation: its line, its rule, and whether it silenced
/// anything.
struct Allow {
    line: u32,
    rule: Rule,
    used: bool,
}

/// Parses the site annotations among a file's comments. Malformed ones
/// become `bare-allow` findings in `bad`.
fn parse_allows(comments: &[(u32, String)], bad: &mut Vec<(u32, String)>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in comments {
        // The marker opens the comment, so prose that quotes it does not
        // count.
        let Some(rest) = text.strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        let Some((id, after)) = rest.split_once(')') else {
            bad.push((*line, "unterminated `lint: allow(..)`".to_string()));
            continue;
        };
        let id = id.trim();
        let Some(rule) = Rule::allowable(id) else {
            bad.push((
                *line,
                format!(
                    "`{id}` is no rule of this pass; the compiler's rules take \
                     `#[expect(<lint>, reason = \"..\")]` (DESIGN.md §8)"
                ),
            ));
            continue;
        };
        // The reason: whatever follows the `)`, minus separator punctuation,
        // must hold a word.
        let reason = after.trim_start_matches([' ', '\t', '—', '-', ':', ',']);
        if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
            bad.push((*line, format!("allow({id}) needs a reason after the `)`")));
            continue;
        }
        allows.push(Allow {
            line: *line,
            rule,
            used: false,
        });
    }
    allows
}

/// Lints one file's source. `path` is used for reporting; `class` selects
/// the rules.
pub fn lint_source(path: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut hits = Vec::new();
    if class.deterministic {
        rules::float_ord(&lexed.tokens, &mut hits);
        rules::clone_exhaustive(&lexed.tokens, &mut hits);
    }
    if class.deterministic || class.xtask {
        rules::panic_path(&lexed.tokens, &mut hits);
    }
    let mut bad = Vec::new();
    let mut allows = parse_allows(&lexed.comments, &mut bad);
    let finding = |line, rule, message| Finding {
        path: path.to_string(),
        line,
        rule,
        message,
    };
    let mut findings = Vec::new();
    for (line, rule, message) in hits {
        // An annotation covers its own line (a trailing comment) and the
        // line below it (a comment above the site).
        let cover = allows
            .iter_mut()
            .find(|a| a.rule == rule && (a.line == line || a.line.saturating_add(1) == line));
        match cover {
            Some(a) => a.used = true,
            None => findings.push(finding(line, rule, message)),
        }
    }
    for (line, message) in bad {
        findings.push(finding(line, Rule::BareAllow, message));
    }
    for a in allows.iter().filter(|a| !a.used) {
        findings.push(finding(
            a.line,
            Rule::UnusedAllow,
            format!("allow({}) silences nothing here; delete it", a.rule.id()),
        ));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Lints one member manifest: it must opt into the workspace lints, or
/// `unsafe_code = "forbid"` and the audit's clippy lints skip the crate.
pub fn lint_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![Finding {
        path: path.to_string(),
        line: 1,
        rule: Rule::LintConfig,
        message: "manifest does not opt into the workspace lints, so `unsafe_code = \
                  \"forbid\"` and the audit's clippy lints skip this crate; add \
                  `[lints]` with `workspace = true`"
            .to_string(),
    }]
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Runs the pass over the workspace at `root`. Returns every finding,
/// sorted by path and line.
pub fn run_lint(root: &Path) -> Vec<Finding> {
    let rel = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/")
    };
    // A package's sources under `src/`, then its manifest.
    let lint_package = |dir: &Path, class: FileClass| {
        let mut files = Vec::new();
        rs_files(&dir.join("src"), &mut files);
        let mut findings = Vec::new();
        for file in files {
            if let Ok(src) = std::fs::read_to_string(&file) {
                findings.extend(lint_source(&rel(&file), &src, &class));
            }
        }
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            findings.extend(lint_manifest(&rel(&manifest), &text));
        }
        findings
    };
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crates.sort();
    let mut findings = Vec::new();
    for dir in crates {
        let deterministic = dir
            .file_name()
            .is_some_and(|n| DETERMINISTIC_CRATES.iter().any(|d| n == *d));
        for own in ["clippy.toml", ".clippy.toml"].map(|f| dir.join(f)) {
            if deterministic && own.exists() {
                findings.push(Finding {
                    path: rel(&own),
                    line: 1,
                    rule: Rule::LintConfig,
                    message: "a deterministic crate's own clippy.toml replaces \
                              crates/clippy.toml and drops its wall-clock and \
                              hash-container bans; put the setting in crates/clippy.toml"
                        .to_string(),
                });
            }
        }
        let class = FileClass {
            deterministic,
            xtask: false,
        };
        findings.extend(lint_package(&dir, class));
    }
    findings.extend(lint_package(root, FileClass::default()));
    let xtask = FileClass {
        deterministic: false,
        xtask: true,
    };
    findings.extend(lint_package(&root.join("xtask"), xtask));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}
