//! Fixture-driven tests for both halves of the determinism audit: the token
//! pass (`xtask::lint_source`) and the compiler's, clippy under the
//! repository's own `[workspace.lints]` and clippy.toml files. A fixture
//! names what it must produce with a `// fires: ..` (or `/* fires: .. */`)
//! comment on each offending line: kebab-case rule ids for the token pass,
//! lint names or error codes for the compiler. The tests compare those with
//! what each half reports.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use serde::{Deserialize, Value};
use xtask::{lint_manifest, lint_source, run_lint, FileClass, Rule};

/// `(line, rule id or lint name)` pairs.
type Hits = BTreeSet<(u32, String)>;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits in the workspace root")
        .to_path_buf()
}

fn fixture_path(file: &str) -> PathBuf {
    root().join("xtask/tests/fixtures").join(file)
}

fn fixture(file: &str) -> String {
    std::fs::read_to_string(fixture_path(file)).expect("fixture exists")
}

fn det() -> FileClass {
    FileClass {
        deterministic: true,
        xtask: false,
    }
}

/// A fixture's `fires:` markers: `(token-pass rules, compiler lints)`.
fn markers(file: &str) -> (Hits, Hits) {
    let (mut rules, mut lints) = (Hits::new(), Hits::new());
    for (line, text) in (1u32..).zip(fixture(file).lines()) {
        let Some((_, names)) = text
            .split_once("// fires:")
            .or_else(|| text.split_once("/* fires:"))
        else {
            continue;
        };
        let names = names.split("*/").next().unwrap_or_default();
        for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let hit = (line, name.to_string());
            if name.contains('-') {
                rules.insert(hit);
            } else {
                lints.insert(hit);
            }
        }
    }
    (rules, lints)
}

fn token_pass(file: &str, class: FileClass) -> Hits {
    lint_source(file, &fixture(file), &class)
        .into_iter()
        .map(|f| (f.line, f.rule.id().to_string()))
        .collect()
}

/// A clippy.toml the compiled fixtures are checked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conf {
    /// crates/clippy.toml: the simulation crates.
    Det,
    /// crates/bench/clippy.toml: a crate outside the simulation.
    Bench,
    /// xtask/clippy.toml: the audit's own code.
    Xtask,
}

impl Conf {
    fn dir(self) -> &'static str {
        match self {
            Conf::Det => "det",
            Conf::Bench => "bench",
            Conf::Xtask => "xtask",
        }
    }

    fn source(self) -> &'static str {
        match self {
            Conf::Det => "crates/clippy.toml",
            Conf::Bench => "crates/bench/clippy.toml",
            Conf::Xtask => "xtask/clippy.toml",
        }
    }
}

/// Every fixture crate the compiler checks, and the configuration it is
/// checked under.
const COMPILED: &[(Conf, &str)] = &[
    (Conf::Det, "unordered_iter_trigger"),
    (Conf::Det, "unordered_iter_ok"),
    (Conf::Det, "wall_clock_trigger"),
    (Conf::Det, "wall_clock_ok"),
    (Conf::Det, "panic_path_trigger"),
    (Conf::Det, "panic_path_ok"),
    (Conf::Det, "bare_allow_trigger"),
    (Conf::Det, "unsafe_trigger"),
    (Conf::Bench, "unsafe_trigger"),
    (Conf::Bench, "serialized_hash_trigger"),
    (Conf::Bench, "serialized_hash_ok"),
    (Conf::Bench, "unordered_iter_trigger"),
    (Conf::Bench, "wall_clock_trigger"),
    (Conf::Xtask, "unordered_iter_trigger"),
    (Conf::Xtask, "panic_path_trigger"),
];

fn crate_name(conf: Conf, fixture: &str) -> String {
    format!("{}_{fixture}", conf.dir())
}

/// Writes `text` to `path` unless it already holds it, so an unchanged
/// fixture crate stays fresh for cargo.
fn write_if_changed(path: &Path, text: &str) {
    if std::fs::read_to_string(path).is_ok_and(|old| old == text) {
        return;
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("fixture directory can be created");
    }
    std::fs::write(path, text).expect("fixture file can be written");
}

/// One JSON record of cargo's `--message-format=json` stream.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn str_at<'a>(value: &'a Value, path: &[&str]) -> Option<&'a str> {
    let mut v = value;
    for key in path {
        v = v.get(key)?;
    }
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The primary span's first line.
fn primary_line(diagnostic: &Value) -> Option<u32> {
    let Some(Value::Arr(spans)) = diagnostic.get("spans") else {
        return None;
    };
    let span = spans
        .iter()
        .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))?;
    match span.get("line_start")? {
        Value::U64(n) => u32::try_from(*n).ok(),
        _ => None,
    }
}

/// Builds one workspace holding every fixture crate in [`COMPILED`] and
/// runs clippy over it once. The workspace copies the repository's
/// `[workspace.lints]` tables and clippy.toml files when it is generated,
/// so the fixtures are checked under exactly the configuration the tree
/// is. Returns each crate's error-level diagnostics: every audit lint is
/// denied, so an error is exactly an audit finding or a failed build.
fn check_fixtures() -> BTreeMap<String, Hits> {
    let root = root();
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint-fixtures");
    let manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("the root manifest is readable");
    let mut lints = String::new();
    let mut keep = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints");
        }
        if keep {
            lints.push_str(line);
            lints.push('\n');
        }
    }
    assert!(
        lints.contains("[workspace.lints.rust]") && lints.contains("[workspace.lints.clippy]"),
        "the root manifest declares the audit's workspace lints"
    );
    for conf in [Conf::Det, Conf::Bench, Conf::Xtask] {
        let toml = std::fs::read_to_string(root.join(conf.source())).expect("clippy.toml exists");
        write_if_changed(&work.join(conf.dir()).join("clippy.toml"), &toml);
    }
    let mut members = Vec::new();
    let mut found = BTreeMap::new();
    for &(conf, fixture) in COMPILED {
        let name = crate_name(conf, fixture);
        let package = format!(
            "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[lib]\npath = \"{}\"\n\n[dependencies]\n\
             serde = {{ path = \"{}\" }}\n\n[lints]\nworkspace = true\n",
            fixture_path(&format!("{fixture}.rs")).display(),
            root.join("vendor/serde").display(),
        );
        write_if_changed(
            &work.join(conf.dir()).join(fixture).join("Cargo.toml"),
            &package,
        );
        members.push(format!("\"{}/{fixture}\"", conf.dir()));
        found.insert(name, Hits::new());
    }
    let workspace = format!(
        "[workspace]\nmembers = [{}]\nresolver = \"2\"\n\n{lints}",
        members.join(", ")
    );
    write_if_changed(&work.join("Cargo.toml"), &workspace);

    let output = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .args(["--keep-going", "--message-format=json", "--manifest-path"])
        .arg(work.join("Cargo.toml"))
        // A target dir of its own: the outer `cargo test` may hold the lock
        // on the workspace's.
        .env("CARGO_TARGET_DIR", work.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo can be started");
    let mut seen = BTreeSet::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let Ok(Json(record)) = serde_json::from_str::<Json>(line) else {
            continue;
        };
        let Some(target) = str_at(&record, &["target", "name"]) else {
            continue;
        };
        seen.insert(target.to_string());
        let Some(diagnostic) = record.get("message") else {
            continue;
        };
        if str_at(diagnostic, &["level"]) != Some("error") {
            continue;
        }
        let (Some(code), Some(line)) = (
            str_at(diagnostic, &["code", "code"]),
            primary_line(diagnostic),
        ) else {
            continue;
        };
        if let Some(hits) = found.get_mut(target) {
            hits.insert((line, code.to_string()));
        }
    }
    let missing: Vec<&String> = found.keys().filter(|k| !seen.contains(*k)).collect();
    assert!(
        missing.is_empty(),
        "clippy reported nothing for {missing:?}; is the clippy component installed?\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    found
}

/// The compiler's errors for one fixture crate.
fn compiled(conf: Conf, fixture: &str) -> Hits {
    static RUN: OnceLock<BTreeMap<String, Hits>> = OnceLock::new();
    RUN.get_or_init(check_fixtures)
        .get(&crate_name(conf, fixture))
        .cloned()
        .expect("the fixture is listed in COMPILED")
}

/// Checks both halves against the fixture's markers: the token pass under
/// `class`, and the compiler under `conf` when given.
fn assert_fires(file: &str, class: FileClass, conf: Option<Conf>) {
    let (rules, lints) = markers(file);
    assert_eq!(token_pass(file, class), rules, "token pass on {file}");
    if let Some(conf) = conf {
        let stem = file.trim_end_matches(".rs");
        assert_eq!(compiled(conf, stem), lints, "compiler on {file} ({conf:?})");
    } else {
        assert!(lints.is_empty(), "{file} is not compiled");
    }
}

#[test]
fn unordered_iter_triggers() {
    assert_fires("unordered_iter_trigger.rs", det(), Some(Conf::Det));
    let (_, lints) = markers("unordered_iter_trigger.rs");
    for lint in [
        "clippy::iter_over_hash_type",
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
    ] {
        assert!(lints.iter().any(|(_, l)| l == lint), "{lint} is exercised");
    }
}

#[test]
fn unordered_iter_spares_btrees_and_expected_sites() {
    // The sites that now fire are the fixture's marked "stricter" section.
    assert_fires("unordered_iter_ok.rs", det(), Some(Conf::Det));
}

#[test]
fn only_for_loops_over_hash_types_fail_outside_deterministic_crates() {
    // `iter_over_hash_type` is a workspace lint, so it holds in every crate;
    // the method and type bans live in crates/clippy.toml, which bench and
    // metrics replace with their own.
    let (_, lints) = markers("unordered_iter_trigger.rs");
    let loops: Hits = lints
        .into_iter()
        .filter(|(_, l)| l == "clippy::iter_over_hash_type")
        .collect();
    assert!(!loops.is_empty());
    assert_eq!(compiled(Conf::Bench, "unordered_iter_trigger"), loops);
    assert_eq!(compiled(Conf::Bench, "wall_clock_trigger"), Hits::new());
}

#[test]
fn wall_clock_triggers() {
    assert_fires("wall_clock_trigger.rs", det(), Some(Conf::Det));
}

#[test]
fn wall_clock_ignores_comments_strings_and_virtual_time() {
    assert_fires("wall_clock_ok.rs", det(), Some(Conf::Det));
}

#[test]
fn float_ord_triggers_on_partial_and_total_cmp() {
    assert_fires("float_ord_trigger.rs", det(), None);
    assert_eq!(markers("float_ord_trigger.rs").0.len(), 3);
}

#[test]
fn float_ord_spares_order_key_definitions_and_annotations() {
    // The one site that fires is the non-float receiver the old
    // type-approximating rule let through.
    assert_fires("float_ord_ok.rs", det(), None);
}

#[test]
fn the_order_key_file_passes_without_a_carve_out() {
    // `order_key` compares bit patterns (`to_bits`), not floats, so the
    // file that defines it needs neither a carve-out nor an annotation.
    let src = std::fs::read_to_string(root().join("crates/core/src/index.rs"))
        .expect("index.rs is part of the audited tree");
    let findings = lint_source("crates/core/src/index.rs", &src, &det());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_triggers_everywhere_and_cannot_be_allowed() {
    // `unsafe_code = "forbid"` fails the build in any crate, an `#[expect]`
    // of a forbidden lint is itself an error (E0453), and the token pass
    // rejects an annotation for it.
    assert_fires("unsafe_trigger.rs", det(), Some(Conf::Det));
    assert_fires("unsafe_trigger.rs", FileClass::default(), Some(Conf::Bench));
}

#[test]
fn serialized_hash_triggers_in_any_crate() {
    // Checked under bench's configuration, which bans no hash container:
    // the build fails because the vendored serde serializes no hash type.
    assert_fires(
        "serialized_hash_trigger.rs",
        FileClass::default(),
        Some(Conf::Bench),
    );
    assert!(!markers("serialized_hash_trigger.rs").1.is_empty());
}

#[test]
fn serialized_hash_spares_btrees_and_unserialized_types() {
    assert_fires(
        "serialized_hash_ok.rs",
        FileClass::default(),
        Some(Conf::Bench),
    );
}

#[test]
fn lint_config_triggers_on_manifests_without_the_opt_in() {
    let trigger = lint_manifest("demo/Cargo.toml", &fixture("lint_config_trigger.toml"));
    assert_eq!(
        trigger.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
        [(1, Rule::LintConfig)]
    );
    let ok = lint_manifest("demo/Cargo.toml", &fixture("lint_config_ok.toml"));
    assert!(ok.is_empty(), "{ok:?}");
    // Every real member manifest opts in, and so does the root package.
    for manifest in ["Cargo.toml", "xtask/Cargo.toml", "crates/core/Cargo.toml"] {
        let text = std::fs::read_to_string(root().join(manifest)).expect("manifest exists");
        assert!(lint_manifest(manifest, &text).is_empty(), "{manifest}");
    }
}

#[test]
fn bare_allow_leaves_the_original_violation_standing() {
    // The reasonless `// lint: allow(unordered-iter)` is rejected, and the
    // `.keys()` call below it still fails clippy.
    assert_fires("bare_allow_trigger.rs", det(), Some(Conf::Det));
    let (rules, lints) = markers("bare_allow_trigger.rs");
    let annotation = rules
        .iter()
        .find(|(_, r)| r == "bare-allow")
        .map(|(l, _)| *l)
        .expect("the fixture holds a bare annotation");
    assert!(lints.contains(&(annotation + 1, "clippy::disallowed_methods".to_string())));
}

#[test]
fn findings_render_as_path_line_rule() {
    let findings = lint_source(
        "crates/demo/src/x.rs",
        &fixture("float_ord_trigger.rs"),
        &det(),
    );
    let line = findings.first().expect("the fixture fires").to_string();
    assert!(
        line.starts_with("crates/demo/src/x.rs:") && line.contains(": [float-ord] "),
        "{line}"
    );
}

#[test]
fn allowlist_requires_justifications_and_flags_unused_entries() {
    // The escape hatches of both halves need a reason and must silence
    // something: `#[expect]` without a reason, an `#[allow]` (which cannot
    // go stale visibly) and an unfulfilled `#[expect]` fail clippy; an
    // unused `// lint: allow` fails the token pass.
    let (rules, lints) = markers("bare_allow_trigger.rs");
    for lint in [
        "clippy::allow_attributes_without_reason",
        "clippy::allow_attributes",
        "unfulfilled_lint_expectations",
    ] {
        assert!(lints.iter().any(|(_, l)| l == lint), "{lint} is exercised");
    }
    assert!(rules.iter().any(|(_, r)| r == "unused-allow"));
    assert_fires("bare_allow_trigger.rs", det(), Some(Conf::Det));
}

#[test]
fn clone_exhaustive_triggers_on_skipped_fields() {
    assert_fires("clone_exhaustive_trigger.rs", det(), None);
    assert_eq!(markers("clone_exhaustive_trigger.rs").0.len(), 3);
}

#[test]
fn clone_exhaustive_spares_derives_and_tests() {
    // The two sites that fire are the fixture's marked "stricter" section.
    assert_fires("clone_exhaustive_ok.rs", det(), None);
}

#[test]
fn deleting_a_field_from_the_serving_sim_clone_fails_the_lint() {
    // ServingSim's clone is derived, so it copies every field. Leaving one
    // out takes a hand-written clone in its place, which the audit rejects.
    let src = std::fs::read_to_string(root().join("crates/core/src/serving.rs"))
        .expect("serving.rs is part of the audited tree");
    let derive = "#[derive(Clone)]\npub struct ServingSim {";
    assert!(src.contains(derive), "ServingSim derives Clone");
    let broken = src.replacen(derive, "pub struct ServingSim {", 1)
        + "\nimpl Clone for ServingSim {\n    fn clone(&self) -> Self {\n        \
           let mut sim = ServingSim::new(self.config.clone(), self.trace.clone());\n        \
           sim.now = self.now;\n        sim\n    }\n}\n";
    let findings = lint_source("crates/core/src/serving.rs", &broken, &det());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::CloneExhaustive && f.message.contains("ServingSim")),
        "a hand-written ServingSim clone must trip clone-exhaustive: {findings:?}"
    );
    let clean = lint_source("crates/core/src/serving.rs", &src, &det());
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn panic_path_triggers_on_unjustified_sites() {
    assert_fires("panic_path_trigger.rs", det(), Some(Conf::Det));
}

#[test]
fn panic_path_spares_justified_sites() {
    // The one site that fires is the unwrap inside a debug_assert, which
    // the token pass skips and clippy does not.
    assert_fires("panic_path_ok.rs", det(), Some(Conf::Det));
}

#[test]
fn panic_path_and_unordered_iter_audit_xtask_itself() {
    // The token pass holds the audit's own code to `panic-path`, and the
    // workspace lints plus xtask/clippy.toml hold it to `unwrap_used` and
    // to no hash containers at all.
    let xtask = FileClass {
        deterministic: false,
        xtask: true,
    };
    let (rules, lints) = markers("panic_path_trigger.rs");
    assert_eq!(token_pass("panic_path_trigger.rs", xtask), rules);
    assert_eq!(compiled(Conf::Xtask, "panic_path_trigger"), lints);
    let (_, lints) = markers("unordered_iter_trigger.rs");
    let no_methods: Hits = lints
        .into_iter()
        .filter(|(_, l)| l != "clippy::disallowed_methods")
        .collect();
    assert_eq!(compiled(Conf::Xtask, "unordered_iter_trigger"), no_methods);
    // ...but the simulation-only rules stay off for the audit's own code.
    let float = "fn g(a: f64, b: f64) { a.partial_cmp(&b); }";
    let findings = lint_source("xtask/src/demo.rs", float, &xtask);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn the_real_tree_is_clean() {
    // The token pass over the actual workspace must pass: the same check CI
    // runs as `cargo xtask lint`, here so plain `cargo test` catches a
    // regression too. The compiler's half is clippy over the workspace.
    let findings = run_lint(&root());
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
