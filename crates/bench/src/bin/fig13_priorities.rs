//! Figure 13: performance of high-priority and normal requests.
//!
//! Paper setup (§6.4): S-S lengths, Gamma arrivals with varying CV, 10% of
//! requests tagged with high scheduling *and* execution priority, a
//! 1,600-token target load for high-priority instances. Llumnix (priority-
//! aware) vs Llumnix-base (priority-agnostic). The paper reports 1.2–1.5×
//! mean request latency gains for high-priority requests (growing with CV),
//! up to 8.6×/10× mean/P99 prefill gains, 1.2–1.5×/1.3–2.2× decode gains,
//! and ≤4.5% degradation for normal requests.

use llumnix_bench::{build_trace, run_arms, ArmSpec, BenchOpts, Flag};
use llumnix_core::{SchedulerKind, ServingConfig};
use llumnix_metrics::{LatencyReport, RecordPriority, Table};
use llumnix_workload::Arrivals;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cv: f64,
    scheduler: String,
    class: String,
    e2e_mean: f64,
    prefill_mean: f64,
    prefill_p99: f64,
    decode_mean: f64,
    decode_p99: f64,
    decode_compute_mean: f64,
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json, Flag::Threads]);
    let n = opts.scaled(10_000);
    let rate = 20.0;
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Figure 13: priorities, S-S @ {rate} req/s, 10% high priority"),
        &[
            "cv",
            "scheduler",
            "class",
            "e2e mean",
            "prefill mean/p99",
            "decode mean/p99",
            "decode compute",
        ],
    );
    let mut combos = Vec::new();
    let mut arms = Vec::new();
    for cv in [2.0, 4.0, 6.0, 8.0] {
        for kind in [SchedulerKind::LlumnixBase, SchedulerKind::Llumnix] {
            combos.push((cv, kind));
            arms.push(ArmSpec {
                config: ServingConfig::new(kind, 16),
                trace: build_trace("S-S", n, Arrivals::gamma(rate, cv), 0.10, opts.seed),
                rate,
                cv,
            });
        }
    }
    let results = run_arms(arms);
    for (&(cv, kind), (_, out)) in combos.iter().zip(&results) {
        for class in [RecordPriority::High, RecordPriority::Normal] {
            let report = LatencyReport::for_priority(&out.records, class);
            let label = match class {
                RecordPriority::High => "high",
                RecordPriority::Normal => "normal",
            };
            table.row(&[
                format!("{cv}"),
                kind.label().to_string(),
                label.to_string(),
                format!("{:.2}s", report.e2e.mean),
                format!(
                    "{:.0}ms / {:.0}ms",
                    report.prefill.mean * 1e3,
                    report.prefill.p99 * 1e3
                ),
                format!(
                    "{:.1}ms / {:.1}ms",
                    report.decode.mean * 1e3,
                    report.decode.p99 * 1e3
                ),
                format!("{:.1}ms", report.decode_compute.mean * 1e3),
            ]);
            rows.push(Row {
                cv,
                scheduler: kind.label().to_string(),
                class: label.to_string(),
                e2e_mean: report.e2e.mean,
                prefill_mean: report.prefill.mean,
                prefill_p99: report.prefill.p99,
                decode_mean: report.decode.mean,
                decode_p99: report.decode.p99,
                decode_compute_mean: report.decode_compute.mean,
            });
        }
    }
    println!("{}", table.render());

    // Headline ratios: Llumnix vs Llumnix-base per CV, high-priority class.
    let mut summary = Table::new(
        "High-priority gains (llumnix-base / llumnix) and normal-request cost",
        &[
            "cv",
            "e2e",
            "prefill mean",
            "prefill p99",
            "decode mean",
            "normal e2e change",
        ],
    );
    for cv in [2.0, 4.0, 6.0, 8.0] {
        let get = |sched: &str, class: &str| {
            rows.iter()
                .find(|r| r.cv == cv && r.scheduler == sched && r.class == class)
                .expect("row exists")
        };
        let (hb, hl) = (get("llumnix-base", "high"), get("llumnix", "high"));
        let (nb, nl) = (get("llumnix-base", "normal"), get("llumnix", "normal"));
        summary.row(&[
            format!("{cv}"),
            format!("{:.2}x", hb.e2e_mean / hl.e2e_mean),
            format!("{:.2}x", hb.prefill_mean / hl.prefill_mean),
            format!("{:.2}x", hb.prefill_p99 / hl.prefill_p99),
            format!("{:.2}x", hb.decode_mean / hl.decode_mean),
            format!("{:+.1}%", (nl.e2e_mean / nb.e2e_mean - 1.0) * 100.0),
        ]);
    }
    println!("{}", summary.render());
    println!(
        "paper: e2e 1.2-1.5x, prefill mean 2.9-8.6x / p99 3.6-10x, decode 1.2-1.5x; normal +<=4.5%"
    );
    opts.maybe_write_json(&rows);
}
