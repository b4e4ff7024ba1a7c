//! Input validation of `llumnix-cli`: a malformed or out-of-range flag value
//! in `trace-gen`, `run`, `compare` or `sweep` prints `error: …` and exits 1
//! before any simulation starts, instead of panicking or running with the
//! default.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llumnix-cli"))
        .args(args)
        .output()
        .expect("llumnix-cli runs")
}

/// Asserts a clean exit 1 whose error names `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = cli(args);
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
