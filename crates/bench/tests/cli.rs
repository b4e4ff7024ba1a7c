//! Exit-code contract of the figure binaries, checked on `fig04_decode_latency`
//! (it evaluates the cost model only, so it is instant even in debug): a
//! malformed flag exits 2, and a `--json` file that cannot be written exits 1
//! instead of leaving a stale result file in place.

use std::path::Path;
use std::process::{Command, Output};

fn fig04(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig04_decode_latency"))
        .args(args)
        .output()
        .expect("fig04_decode_latency runs")
}

#[test]
fn unwritable_json_path_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let path = dir.join("fig04.json");
    let out = fig04(&[
        "--scale",
        "0.01",
        "--json",
        path.to_str().expect("UTF-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: could not write"),
        "stderr: {stderr}"
    );
}

#[test]
fn malformed_scale_exits_2() {
    let out = fig04(&["--scale", "abc"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--scale"), "stderr: {stderr}");
}
