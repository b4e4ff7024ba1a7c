//! The rule catalog, one module per rule family.
//!
//! Every pass receives a [`RuleCtx`] — the token stream, the file's HIR,
//! and the workspace-wide field table — and appends [`Finding`]s. Passes
//! never see annotations or the allowlist; the driver in `lib.rs` filters
//! findings against the escape hatches afterwards, so a rule module stays
//! a pure function of the code under audit.

pub mod clone;
pub mod floats;
pub mod iter;
pub mod panics;
pub mod tokens;

use crate::hir::{FieldTable, FileHir};
use crate::lexer::Token;
use crate::Finding;

/// Everything a rule pass may consult about one file.
pub struct RuleCtx<'a> {
    /// Repo-relative path, used in findings.
    pub path: &'a str,
    /// The file's code tokens.
    pub tokens: &'a [Token],
    /// The file's item-level HIR.
    pub hir: &'a FileHir,
    /// Struct fields resolved across the whole audited workspace.
    pub fields: &'a FieldTable,
}

impl RuleCtx<'_> {
    /// Pushes a finding at `line` for `rule`.
    pub fn emit(&self, out: &mut Vec<Finding>, line: u32, rule: crate::Rule, message: String) {
        out.push(Finding {
            path: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}
