//! Tests of the benchmark itself: reduced-size runs of every workload pass
//! the output checks, metric names are well formed and match
//! `BENCHMARK.json`, traced and untraced runs produce the same output, the
//! kernel replays repeat their work exactly, and the pinned counts hold.
//!
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::time::Duration;

use llumnix_simbench::replay::{self, Sizes};
use llumnix_simbench::spans::Spans;
use llumnix_simbench::workload::{prepare, run, Workload, REFERENCE_SEED, WORKLOADS};
use llumnix_simbench::{measure, pinned, traced, END_TO_END, PER_LAYER};

/// Each workload at a size a test can afford: fewer requests, at most two
/// replicas.
fn reduced(name: &str) -> Workload {
    let w = Workload::by_name(name).expect("known workload");
    let requests = match name {
        "fleet1024_short" => 2_000,
        "churn256_forked" => 400,
        _ => 500,
    };
    w.with_requests(requests).with_replicas(w.replicas.min(2))
}

#[test]
fn reduced_runs_pass_every_output_check() {
    for name in WORKLOADS {
        let w = reduced(name);
        let report = measure(&w, 7, Duration::ZERO);
        assert!(report.correct, "{name}: {:?}", report.problems);
        assert_eq!(report.failed, 0, "{name}: failed requests");
        assert_eq!(
            report.completed, report.attempted,
            "{name}: aborted requests"
        );
        assert!(report.attempted >= 3 * w.requests as u64);
        report
            .json(&END_TO_END)
            .expect("every end-to-end metric measured");
    }
}

#[test]
fn traced_and_untraced_runs_produce_the_same_output() {
    for name in WORKLOADS {
        let w = reduced(name);
        let untraced = run(prepare(&w, 3, &mut Spans::off()), &mut Spans::off());
        let mut spans = Spans::on();
        let traced_run = run(prepare(&w, 3, &mut spans), &mut spans);
        assert_eq!(untraced.counts(), traced_run.counts(), "{name}");
        assert!(spans.total("core.serving.ramp") > 0.0, "{name}");
        assert_eq!(
            spans.total("core.snapshot.snapshot") > 0.0,
            w.forked(),
            "{name}: only the forked workload takes a snapshot"
        );
        let report = traced(&w, 3, Duration::ZERO);
        assert!(report.correct, "{name}: {:?}", report.problems);
        report
            .json(&PER_LAYER)
            .expect("every per-layer metric measured");
    }
}

#[test]
fn metric_names_are_well_formed_unique_and_listed() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !d.name.is_empty()
                && d.name.len() <= 64
                && d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            d.name
        );
        assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in WORKLOADS {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "{name}"
        );
    }
    let listed = manifest.matches("\"name\":").count();
    assert_eq!(listed, seen.len() + WORKLOADS.len(), "no extra entries");
}

#[test]
fn kernel_replays_repeat_their_work_exactly() {
    let w = reduced("llumnix16_mm");
    let outcome = run(prepare(&w, 5, &mut Spans::off()), &mut Spans::off());
    let sizes = Sizes::from_output(&outcome.outputs[0]);
    let first = replay::all(&sizes, true);
    let second = replay::all(&sizes, true);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!((a.name, a.work), (b.name, b.work), "work count moved");
        assert!(a.work > 0, "{} did no work", a.name);
        assert!(a.ns_per_op > 0.0, "{} took no time", a.name);
    }
    let names: Vec<&str> = first.iter().map(|k| k.name).collect();
    for name in names {
        assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} unlisted");
    }
}

#[test]
fn reference_run_reproduces_the_sim_throughput_baseline() {
    // `BENCH_sim_throughput.json`: 16 instances, M-M at 10 req/s, 10 000
    // requests, seed 20240710 -> 479 773 events.
    let w = Workload::by_name("llumnix16_mm")
        .expect("known workload")
        .with_replicas(1);
    let outcome = run(
        prepare(&w, REFERENCE_SEED, &mut Spans::off()),
        &mut Spans::off(),
    );
    assert_eq!(outcome.counts().events, 479_773);
    let pin = pinned::lookup(w.name(), REFERENCE_SEED, 10_000, 1).expect("reference pinned");
    assert_eq!(pin, outcome.counts());
}

#[test]
fn pinned_table_covers_every_workload() {
    let pins = pinned::all();
    for name in WORKLOADS {
        let w = Workload::by_name(name).expect("known workload");
        for seed in [REFERENCE_SEED, llumnix_simbench::workload::HELD_OUT_SEED] {
            assert!(
                pinned::lookup(name, seed, w.requests as u64, w.replicas).is_some(),
                "{name} seed {seed} not pinned"
            );
        }
    }
    for p in &pins {
        let w = Workload::by_name(&p.workload).expect("pinned workload exists");
        let outputs = (p.replicas * w.arms()) as u64;
        assert_eq!(p.counts.completed, p.counts.requests * outputs, "{p:?}");
    }
}
