//! Input validation of `llumnix-cli`: a malformed or out-of-range flag value,
//! a flag without a value, a flag the command does not read, or a stray
//! argument in `trace-gen`, `run`, `compare`, `sweep` or `info` prints
//! `error: …` and exits 1 before any simulation starts, instead of
//! panicking, writing to a file named `true` or running with the default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    cli_in(Path::new("."), args)
}

fn cli_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llumnix-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("llumnix-cli runs")
}

/// An empty working directory, so a command that wrongly succeeds cannot
/// leave its output file in the repository.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Leftovers of an earlier run would hide a file this run writes.
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("scratch directory can be emptied");
    }
    std::fs::create_dir_all(&dir).expect("scratch directory can be created");
    dir
}

/// Asserts a clean exit 1 whose error names `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    assert_rejected_in(Path::new("."), args, flag);
}

fn assert_rejected_in(dir: &Path, args: &[&str], flag: &str) {
    let out = cli_in(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: stderr: {stderr}");
}

const TRACE: [&str; 6] = ["--preset", "S-S", "--rate", "2", "--requests", "20"];

#[test]
fn zero_instances_exits_1() {
    for command in ["run", "compare", "sweep"] {
        let mut args = vec![command, "--instances", "0", "--rates", "2"];
        args.extend(TRACE);
        assert_rejected(&args, "--instances");
    }
}

#[test]
fn unparsable_values_exit_1() {
    for command in ["run", "compare", "sweep"] {
        let mut args = vec![command, "--instances", "abc", "--rates", "2"];
        args.extend(TRACE);
        assert_rejected(&args, "--instances");
    }
    let mut args = vec!["run", "--seed", "x1"];
    args.extend(TRACE);
    assert_rejected(&args, "--seed");
    for rates in ["2,fast", "2,0"] {
        let sweep = ["sweep", "--preset", "S-S", "--requests", "20"];
        assert_rejected(&[&sweep[..], &["--rates", rates]].concat(), "--rates");
    }
}

#[test]
fn non_finite_or_out_of_range_floats_exit_1() {
    let preset = ["--preset", "S-S", "--requests", "20"];
    for command in ["trace-gen", "run", "compare"] {
        for rate in ["nan", "inf", "-inf", "0", "-1"] {
            let args = [&[command][..], &preset, &["--rate", rate]].concat();
            assert_rejected(&args, "--rate");
        }
    }
    for (flag, values) in [
        ("--cv", &["inf", "nan", "-1"][..]),
        ("--high-frac", &["2", "nan", "-0.5", "inf"][..]),
    ] {
        for &value in values {
            let args = [&["run"][..], &TRACE, &[flag, value]].concat();
            assert_rejected(&args, flag);
        }
    }
    for rates in ["inf", "2,inf", "nan"] {
        let sweep = ["sweep", "--preset", "S-S", "--requests", "20"];
        assert_rejected(&[&sweep[..], &["--rates", rates]].concat(), "--rates");
    }
}

#[test]
fn in_range_floats_still_run() {
    let args = [&["run"][..], &TRACE, &["--cv", "0", "--high-frac", "1"]].concat();
    let out = cli(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: stderr: {stderr}");
}

#[test]
fn a_flag_without_a_value_exits_1_and_writes_nothing() {
    // Each of these wrote its output to a file named `true` and exited 0.
    let dir = scratch("cli-flag-without-value");
    let sweep = [
        "sweep",
        "--preset",
        "S-S",
        "--requests",
        "20",
        "--rates",
        "2",
    ];
    for (args, flag) in [
        ([&["run"][..], &TRACE, &["--json"]].concat(), "--json"),
        ([&["run"][..], &["--json"], &TRACE].concat(), "--json"),
        ([&sweep[..], &["--csv"]].concat(), "--csv"),
        ([&["trace-gen"][..], &TRACE, &["--out"]].concat(), "--out"),
    ] {
        assert_rejected_in(&dir, &args, flag);
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch directory is readable")
        .collect();
    assert!(written.is_empty(), "{written:?}");
}

#[test]
fn unknown_flags_and_stray_arguments_exit_1() {
    let dir = scratch("cli-unknown-flags");
    // A typo of --instances served the default 16 instances.
    let typo = [&["run"][..], &TRACE, &["--instance", "3"]].concat();
    assert_rejected_in(&dir, &typo, "--instance");
    // Another command's flag: sweep reads --rates, and trace-gen schedules
    // nothing.
    let sweep = [
        "sweep",
        "--preset",
        "S-S",
        "--requests",
        "20",
        "--rates",
        "2",
    ];
    assert_rejected_in(&dir, &[&sweep[..], &["--rate", "3"]].concat(), "--rate");
    let out = ["--out", "trace.json", "--scheduler", "llumnix"];
    let trace_gen = [&["trace-gen"][..], &TRACE, &out].concat();
    assert_rejected_in(&dir, &trace_gen, "--scheduler");
    assert_rejected_in(&dir, &["info", "--verbose", "1"], "--verbose");
    // A stray positional argument was ignored.
    let stray = [&["run"][..], &TRACE, &["stray"]].concat();
    assert_rejected_in(&dir, &stray, "stray");
    let given_twice = [&["compare"][..], &TRACE, &["--rate", "3"]].concat();
    assert_rejected_in(&dir, &given_twice, "--rate");
}

#[test]
fn zero_requests_exit_1() {
    // An empty trace served nothing and printed a table of zeros.
    let dir = scratch("cli-zero-requests");
    let empty = ["--preset", "S-S", "--rate", "2", "--requests", "0"];
    for command in ["run", "compare"] {
        assert_rejected_in(&dir, &[&[command][..], &empty].concat(), "--requests");
    }
    let trace_gen = [&["trace-gen"][..], &empty, &["--out", "t.json"]].concat();
    assert_rejected_in(&dir, &trace_gen, "--requests");
    let sweep = [
        "sweep",
        "--preset",
        "S-S",
        "--rates",
        "2",
        "--requests",
        "0",
    ];
    assert_rejected_in(&dir, &sweep, "--requests");
}

#[test]
fn usage_lists_every_flag_each_command_reads() {
    let help = cli(&["help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let trace = [
        "--preset",
        "--rate",
        "--requests",
        "--cv",
        "--high-frac",
        "--seed",
    ];
    for (command, flags) in [
        ("trace-gen", [&trace[..], &["--out"]].concat()),
        (
            "run",
            [&trace[..], &["--trace", "--scheduler", "--instances"]].concat(),
        ),
        // `run`'s output flags, which USAGE left out `--csv` of.
        ("run", vec!["--autoscale", "--json", "--csv"]),
        (
            "compare",
            [&trace[..], &["--trace", "--instances"]].concat(),
        ),
        (
            "sweep",
            vec![
                "--preset",
                "--rates",
                "--requests",
                "--instances",
                "--seed",
                "--csv",
            ],
        ),
    ] {
        // A command's entry runs from its name to the next command's.
        let start = usage
            .find(&format!("llumnix-cli {command} "))
            .unwrap_or_else(|| panic!("USAGE has no `{command}` entry"));
        let rest = &usage[start + "llumnix-cli ".len()..];
        let entry = rest.split("llumnix-cli ").next().unwrap_or_default();
        for flag in flags {
            assert!(
                entry.contains(&format!("{flag} <")),
                "USAGE for `{command}` omits {flag}:\n{entry}"
            );
        }
    }
    // The flags USAGE used to omit are read.
    let dir = scratch("cli-documented-flags");
    for args in [
        [&["run"][..], &TRACE, &["--csv", "timeline.csv"]].concat(),
        [
            &["compare"][..],
            &TRACE,
            &["--cv", "0.5", "--high-frac", "0.1", "--seed", "3"],
        ]
        .concat(),
        vec![
            "sweep",
            "--preset",
            "S-S",
            "--requests",
            "20",
            "--rates",
            "2",
            "--seed",
            "4",
        ],
    ] {
        let out = cli_in(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: stderr: {stderr}");
    }
}
