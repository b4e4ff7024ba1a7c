//! `cargo xtask` — workspace automation. The only subcommand is `lint`,
//! the token pass of the determinism audit (see lib.rs for its rules and
//! DESIGN.md §8 for the compiler's half).
//!
//! `lint` prints one `path:line: [rule-id] message` line per finding, which
//! CI's problem matcher turns into inline annotations, and exits nonzero
//! when there is any.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => lint(),
        Some("lint") => usage("`lint` takes no arguments"),
        Some(other) => usage(&format!("unknown xtask subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("usage: cargo xtask lint");
    ExitCode::from(2)
}

fn lint() -> ExitCode {
    // xtask lives at <root>/xtask, so the workspace root is one up from this
    // crate's manifest.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(&manifest);
    let findings = xtask::run_lint(root);
    if findings.is_empty() {
        println!("xtask lint: determinism audit clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "xtask lint: {} violation{} of the byte-identical-schedule contract (DESIGN.md §8)",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}
