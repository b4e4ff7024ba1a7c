//! Fixture-driven tests for the determinism audit: every rule has a
//! trigger fixture (must produce findings with the right rule id and
//! line) and a no-trigger fixture (must stay silent), plus the
//! allow-annotation escape hatch and the allowlist file format.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use xtask::{lint_source, run_lint, work_items, Allowlist, FileClass, Rule};

fn det() -> FileClass {
    FileClass {
        deterministic: true,
        ..Default::default()
    }
}

fn nondet() -> FileClass {
    FileClass::default()
}

fn rules_of(findings: &[xtask::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unordered_iter_triggers() {
    let src = include_str!("fixtures/unordered_iter_trigger.rs");
    let findings = lint_source("fixtures/unordered_iter_trigger.rs", src, &det());
    let unordered: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::UnorderedIter)
        .collect();
    // for-loop over a HashSet, .iter() on a HashMap, .keys() on an
    // alias-typed HashMap, and .retain() — all four sites.
    assert_eq!(unordered.len(), 4, "{findings:?}");
    assert!(unordered.iter().all(|f| f.line > 0));
    // Reported lines land on the iterating construct, in source order.
    let lines: Vec<u32> = unordered.iter().map(|f| f.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
}

#[test]
fn unordered_iter_spares_btrees_sinks_and_annotated_sites() {
    let src = include_str!("fixtures/unordered_iter_ok.rs");
    let findings = lint_source("fixtures/unordered_iter_ok.rs", src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unordered_iter_is_off_outside_deterministic_crates() {
    let src = include_str!("fixtures/unordered_iter_trigger.rs");
    let findings = lint_source("fixtures/unordered_iter_trigger.rs", src, &nondet());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_triggers() {
    let src = include_str!("fixtures/wall_clock_trigger.rs");
    let findings = lint_source("fixtures/wall_clock_trigger.rs", src, &det());
    assert!(
        findings.iter().any(|f| f.rule == Rule::WallClock),
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .all(|f| f.rule == Rule::WallClock && f.line > 0));
}

#[test]
fn wall_clock_ignores_comments_strings_and_virtual_time() {
    let src = include_str!("fixtures/wall_clock_ok.rs");
    let findings = lint_source("fixtures/wall_clock_ok.rs", src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_ord_triggers_on_partial_and_total_cmp() {
    let src = include_str!("fixtures/float_ord_trigger.rs");
    let findings = lint_source("fixtures/float_ord_trigger.rs", src, &det());
    // Unknown-receiver partial_cmp, closure-param total_cmp, and the
    // field-resolved f64 receiver.
    assert_eq!(
        rules_of(&findings),
        vec![Rule::FloatOrd, Rule::FloatOrd, Rule::FloatOrd]
    );
}

#[test]
fn float_ord_spares_order_key_definitions_and_annotations() {
    // Includes the known-non-float receiver (`u64` field), which the
    // lexer-era pass could only silence with an annotation or the
    // whole-file carve-out.
    let src = include_str!("fixtures/float_ord_ok.rs");
    let findings = lint_source("fixtures/float_ord_ok.rs", src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn the_order_key_file_passes_without_a_carve_out() {
    // PR 4 exempted crates/core/src/index.rs wholesale (BLESSED_FLOAT_FILE)
    // because the lexer could not tell bit-pattern comparisons from float
    // comparisons. The type-aware pass audits it like any other file.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let src = std::fs::read_to_string(root.join("crates/core/src/index.rs"))
        .expect("index.rs is part of the audited tree");
    let findings = lint_source("crates/core/src/index.rs", &src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_triggers_everywhere_and_cannot_be_allowed() {
    let src = include_str!("fixtures/unsafe_trigger.rs");
    for class in [det(), nondet()] {
        let findings = lint_source("fixtures/unsafe_trigger.rs", src, &class);
        assert!(
            findings.iter().any(|f| f.rule == Rule::UnsafeCode),
            "{findings:?}"
        );
        // The fixture's allow-annotation must be rejected as bare.
        assert!(
            findings.iter().any(|f| f.rule == Rule::BareAllow),
            "{findings:?}"
        );
    }
}

#[test]
fn serialized_hash_triggers_in_any_crate() {
    let src = include_str!("fixtures/serialized_hash_trigger.rs");
    let findings = lint_source("fixtures/serialized_hash_trigger.rs", src, &nondet());
    // HashMap field in the struct and HashSet payload in the enum.
    assert_eq!(
        rules_of(&findings),
        vec![Rule::SerializedHash, Rule::SerializedHash]
    );
}

#[test]
fn serialized_hash_spares_btrees_and_unserialized_types() {
    let src = include_str!("fixtures/serialized_hash_ok.rs");
    let findings = lint_source("fixtures/serialized_hash_ok.rs", src, &nondet());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn missing_forbid_triggers_only_on_lib_roots() {
    let trigger = include_str!("fixtures/missing_forbid_trigger.rs");
    let ok = include_str!("fixtures/missing_forbid_ok.rs");
    let root = FileClass {
        lib_root: true,
        ..Default::default()
    };
    let findings = lint_source("fixtures/missing_forbid_trigger.rs", trigger, &root);
    assert_eq!(rules_of(&findings), vec![Rule::MissingForbid]);
    assert_eq!(findings[0].line, 1);
    let findings = lint_source("fixtures/missing_forbid_ok.rs", ok, &root);
    assert!(findings.is_empty(), "{findings:?}");
    // The same file as a non-root module is not required to carry it.
    let findings = lint_source("fixtures/missing_forbid_trigger.rs", trigger, &nondet());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bare_allow_leaves_the_original_violation_standing() {
    let src = include_str!("fixtures/bare_allow_trigger.rs");
    let findings = lint_source("fixtures/bare_allow_trigger.rs", src, &det());
    assert!(
        findings.iter().any(|f| f.rule == Rule::UnorderedIter),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == Rule::BareAllow),
        "{findings:?}"
    );
}

#[test]
fn findings_render_as_path_line_rule() {
    let src = include_str!("fixtures/float_ord_trigger.rs");
    let findings = lint_source("crates/demo/src/x.rs", src, &det());
    let line = findings[0].to_string();
    assert!(
        line.starts_with("crates/demo/src/x.rs:") && line.contains("[float-ord]"),
        "{line}"
    );
}

#[test]
fn allowlist_requires_justifications_and_flags_unused_entries() {
    let text = "\
# comment lines and blanks are fine

unordered-iter crates/demo/src/a.rs values drained into a sorted vec
float-ord crates/demo/src/b.rs
unsafe-code crates/demo/src/c.rs reasons do not help here
bogus-rule crates/demo/src/d.rs whatever
";
    let mut list = Allowlist::parse(text, "xtask/lint.allow");
    // Three bad entries: missing reason, unallowable rule, unknown rule.
    assert_eq!(list.parse_findings.len(), 3, "{:?}", list.parse_findings);
    assert!(list
        .parse_findings
        .iter()
        .all(|f| f.rule == Rule::BareAllow));
    // The good entry silences its (rule, path) pair...
    assert!(list.allows(Rule::UnorderedIter, "crates/demo/src/a.rs"));
    // ...but not other paths or rules.
    assert!(!list.allows(Rule::UnorderedIter, "crates/demo/src/z.rs"));
    assert!(!list.allows(Rule::WallClock, "crates/demo/src/a.rs"));
    // Used entries produce no unused-allow findings.
    assert!(list.unused_findings("xtask/lint.allow").is_empty());

    let mut stale = Allowlist::parse(
        "wall-clock crates/demo/src/never.rs left over from a refactor\n",
        "xtask/lint.allow",
    );
    assert!(!stale.allows(Rule::FloatOrd, "crates/demo/src/never.rs"));
    let unused = stale.unused_findings("xtask/lint.allow");
    assert_eq!(rules_of(&unused), vec![Rule::UnusedAllow]);
}

#[test]
fn clone_exhaustive_triggers_on_skipped_fields() {
    let src = include_str!("fixtures/clone_exhaustive_trigger.rs");
    let findings = lint_source("fixtures/clone_exhaustive_trigger.rs", src, &det());
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::CloneExhaustive)
        .collect();
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert!(
        hits[0].message.contains("rng_state"),
        "the rest-filled clone names its skipped field: {}",
        hits[0].message
    );
    assert!(
        hits[1].message.contains("epoch") && hits[1].message.contains("seen"),
        "the delegating clone names every skipped field: {}",
        hits[1].message
    );
}

#[test]
fn clone_exhaustive_spares_mentions_derives_and_tests() {
    let src = include_str!("fixtures/clone_exhaustive_ok.rs");
    let findings = lint_source("fixtures/clone_exhaustive_ok.rs", src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn deleting_a_field_from_the_serving_sim_clone_fails_the_lint() {
    // The acceptance check for the snapshot/fork contract: the lint — not
    // just the compiler — must catch a field dropped from ServingSim's
    // manual deep clone.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let src = std::fs::read_to_string(root.join("crates/core/src/serving.rs"))
        .expect("serving.rs is part of the audited tree");
    let sabotage = "crash_lost_at: self.crash_lost_at.clone(),";
    assert!(
        src.contains(sabotage),
        "the clone line this test deletes must exist in serving.rs"
    );
    let broken = src.replacen(sabotage, "", 1);
    let findings = lint_source("crates/core/src/serving.rs", &broken, &det());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::CloneExhaustive && f.message.contains("crash_lost_at")),
        "dropping a clone line must trip clone-exhaustive: {findings:?}"
    );
    // And the unmodified file passes, so the finding is the deletion's.
    let clean = lint_source("crates/core/src/serving.rs", &src, &det());
    assert!(
        !clean.iter().any(|f| f.rule == Rule::CloneExhaustive),
        "{clean:?}"
    );
}

#[test]
fn panic_path_triggers_on_unjustified_sites() {
    let src = include_str!("fixtures/panic_path_trigger.rs");
    let findings = lint_source("fixtures/panic_path_trigger.rs", src, &det());
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicPath)
        .collect();
    // Bare unwrap, vacuous expect, and two computed Vec indexes.
    assert_eq!(hits.len(), 4, "{findings:?}");
}

#[test]
fn panic_path_spares_justified_sites() {
    let src = include_str!("fixtures/panic_path_ok.rs");
    let findings = lint_source("fixtures/panic_path_ok.rs", src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_path_and_unordered_iter_audit_xtask_itself() {
    let class = FileClass {
        xtask: true,
        ..Default::default()
    };
    let src = "struct W { q: Vec<u64> }\n\
               fn f(w: &W, i: usize) -> u64 { w.q[i + 1].max(w.q.first().copied().unwrap()) }\n";
    let findings = lint_source("xtask/src/demo.rs", src, &class);
    assert!(
        findings.iter().any(|f| f.rule == Rule::PanicPath),
        "{findings:?}"
    );
    // ...but the simulation-only rules stay off for the linter's own code.
    let float = "fn g(a: f64, b: f64) { a.partial_cmp(&b); }";
    let findings = lint_source("xtask/src/demo.rs", float, &class);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hir_round_trips_every_audited_file() {
    // The HIR item scan must never choke on real code: every audited file
    // lexes, parses, and resolves without panicking, and files known to
    // define items actually surface them (guarding against a parser that
    // "succeeds" by finding nothing).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let items = work_items(&root);
    assert!(items.len() >= 10, "suspiciously few audited files");
    let mut fields = xtask::hir::FieldTable::default();
    let mut parsed = Vec::new();
    for item in &items {
        let src = std::fs::read_to_string(&item.abs).expect("audited file is readable");
        let lexed = xtask::lexer::lex(&src);
        let hir = xtask::hir::parse(&lexed.tokens);
        let has_fn = src.contains("fn ");
        assert!(
            !has_fn || !hir.fns.is_empty(),
            "{}: source declares functions but the HIR found none",
            item.rel
        );
        fields.add_file(&hir);
        parsed.push((item.rel.clone(), lexed, hir));
    }
    for (_, lexed, hir) in &mut parsed {
        xtask::hir::refine_bindings(&lexed.tokens, hir, &fields);
    }
    // Spot-check workspace resolution: ServingSim's hash-container field
    // and the float load fields must be classified from their declarations.
    assert!(
        fields.may_be_hash("crash_lost_at")
            || fields.lookup("crash_lost_at") != xtask::hir::TypeApprox::Unknown,
        "serving.rs fields must reach the table"
    );
}

#[test]
fn json_report_carries_the_stable_schema() {
    // CI consumes this document (artifact + problem matcher): rule id,
    // path, line, message, snippet, allow-candidate, in that shape.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let findings = vec![
        xtask::Finding {
            path: "crates/core/src/serving.rs".to_string(),
            line: 1,
            rule: Rule::UnorderedIter,
            message: "demo \"quoted\" message".to_string(),
        },
        xtask::Finding {
            path: "crates/core/src/serving.rs".to_string(),
            line: 0,
            rule: Rule::UnsafeCode,
            message: "no escape hatch".to_string(),
        },
    ];
    let doc = xtask::render_json(&root, &findings);
    assert!(doc.contains("\"version\": 1"), "{doc}");
    assert!(doc.contains("\"clean\": false"), "{doc}");
    assert!(doc.contains("\"rule\": \"unordered-iter\""), "{doc}");
    assert!(
        doc.contains("\"path\": \"crates/core/src/serving.rs\""),
        "{doc}"
    );
    assert!(doc.contains("\"line\": 1"), "{doc}");
    assert!(
        doc.contains("demo \\\"quoted\\\" message"),
        "quotes are escaped: {doc}"
    );
    // Line 1 of serving.rs is a doc comment — the snippet is re-read from
    // the real file, not invented.
    assert!(doc.contains("\"snippet\": \"//!"), "{doc}");
    assert!(
        doc.contains("\"allow_candidate\": \"// lint: allow(unordered-iter) — <reason>\""),
        "{doc}"
    );
    // Unallowable rules and line-0 findings degrade to null, not garbage.
    assert!(doc.contains("\"allow_candidate\": null"), "{doc}");
    assert!(doc.contains("\"snippet\": null"), "{doc}");
    // An empty report is explicit about being clean.
    let clean = xtask::render_json(&root, &[]);
    assert!(clean.contains("\"clean\": true"), "{clean}");
    assert!(clean.contains("\"findings\": []"), "{clean}");
}

#[test]
fn the_real_tree_is_clean() {
    // The audit over the actual workspace must pass: this is the same
    // check CI runs via `cargo xtask lint`, enforced here so plain
    // `cargo test` catches a regression too.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let findings = run_lint(&root);
    assert!(
        findings.is_empty(),
        "determinism audit found violations:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
