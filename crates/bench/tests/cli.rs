//! Exit-code contract of the figure binaries, checked mostly on
//! `fig04_decode_latency` (it evaluates the cost model only, so it is instant
//! even in debug; it reads only `--json`): an argument the binary does not
//! read, common flags included, a flag given twice and a missing or
//! malformed value exit 2, and a `--json` file that cannot be written exits
//! 1 instead of leaving a stale result file in place.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn fig04(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_fig04_decode_latency"), args)
}

#[test]
fn unwritable_json_path_exits_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let path = dir.join("fig04.json");
    let out = fig04(&["--json", path.to_str().expect("UTF-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: could not write"),
        "stderr: {stderr}"
    );
}

#[test]
fn malformed_scale_exits_2() {
    let fig03 = env!("CARGO_BIN_EXE_fig03_preemption");
    let fig05 = env!("CARGO_BIN_EXE_fig05_fragmentation_motivation");
    for (bin, args) in [
        (fig03, &["--scale", "abc"][..]),
        (fig05, &["--scale", "0"]),
        (fig05, &["--scale"]),
    ] {
        assert_rejected(&run(bin, args), "--scale");
    }
}

/// Asserts that `out` is an exit-2 rejection naming `named`.
fn assert_rejected(out: &Output, named: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{named}: stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "{named}: stderr: {stderr}");
    assert!(stderr.contains(named), "{named}: stderr: {stderr}");
}

#[test]
fn unread_arguments_exit_2() {
    for (args, named) in [
        // fig16 and fig17 read `--huge`; fig04 does not.
        (&["--huge"][..], "--huge"),
        (&["stray"], "stray"),
        (&["--jsn", "fig04.json"], "--jsn"),
    ] {
        assert_rejected(&fig04(args), named);
    }
    let fig03 = env!("CARGO_BIN_EXE_fig03_preemption");
    assert_rejected(
        &run(fig03, &["--scale", "0.01", "--scale", "0.02"]),
        "--scale",
    );
}

/// A common flag a binary does not read is rejected like any other unread
/// argument, so no run silently ignores its seed, scale or JSON path.
#[test]
fn unread_common_flags_exit_2() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unread-common-flags");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("rows.json");
    let _ = std::fs::remove_file(&json);
    let json = json.to_str().expect("UTF-8 path");
    let fig04 = env!("CARGO_BIN_EXE_fig04_decode_latency");
    let fig10 = env!("CARGO_BIN_EXE_fig10_migration");
    for (bin, args, named) in [
        (
            env!("CARGO_BIN_EXE_ablations"),
            &["--scale", "0.01", "--json", json][..],
            "--json",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            &["--scale", "0.001", "--json", json],
            "--json",
        ),
        (fig04, &["--seed", "2"], "--seed"),
        (fig04, &["--scale", "0.01"], "--scale"),
        (fig04, &["--threads", "2"], "--threads"),
        (fig10, &["--seed", "2", "--scale", "0.01"], "--seed"),
        (fig10, &["--scale", "0.01"], "--scale"),
        (
            env!("CARGO_BIN_EXE_table1_distributions"),
            &["--scale", "0.01"],
            "--scale",
        ),
    ] {
        assert_rejected(&run(bin, args), named);
        assert!(!Path::new(json).exists(), "{named}: wrote {json}");
    }
}

#[test]
fn a_flag_is_not_a_value() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("flag-as-value");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let _ = std::fs::remove_file(dir.join("--seed"));
    let out = Command::new(env!("CARGO_BIN_EXE_fig04_decode_latency"))
        .args(["--json", "--seed"])
        .current_dir(&dir)
        .output()
        .expect("fig04_decode_latency runs");
    assert_rejected(&out, "--json");
    assert!(!dir.join("--seed").exists(), "wrote a file named --seed");
}

/// Figure rows carry no host time, so no binary has a flag to zero it, and
/// fig16 and fig17 each run one path, so neither has a flag to pick it.
#[test]
fn the_removed_canonical_flag_exits_2() {
    let fig16 = env!("CARGO_BIN_EXE_fig16_scalability");
    let fig17 = env!("CARGO_BIN_EXE_fig17_churn");
    for bin in [
        env!("CARGO_BIN_EXE_fig11_serving"),
        env!("CARGO_BIN_EXE_fig14_autoscaling"),
        env!("CARGO_BIN_EXE_fig15_cost_latency"),
        fig16,
        fig17,
        env!("CARGO_BIN_EXE_probe"),
    ] {
        assert_rejected(
            &run(bin, &["--scale", "0.001", "--canonical"]),
            "--canonical",
        );
    }
    for bin in [fig16, fig17] {
        assert_rejected(&run(bin, &["--scale", "0.001", "--forked"]), "--forked");
    }
}
