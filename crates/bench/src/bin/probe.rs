//! Load probe: sweeps request rates and migration thresholds on the full
//! 16-instance cluster to find the operating range matching the paper's
//! criterion (§6.1: nearly no queuing at P50, tens of seconds at P99).
//! Not a paper figure — a calibration tool.

use llumnix_bench::{build_trace, run_arm, BenchOpts, Flag};
use llumnix_core::{MigrationThresholds, SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_sim::SimDuration;
use llumnix_workload::Arrivals;

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale]);
    let n = opts.scaled(10_000);
    let mut table = Table::new(
        "Threshold probe: 16×LLaMA-7B, M-M",
        &[
            "rate",
            "sched",
            "src/dst",
            "tick",
            "e2e mean",
            "prefill p50",
            "prefill p99",
            "decode p99",
            "preempt",
            "migr",
            "mem",
        ],
    );
    // INFaaS++ reference arm; every arm runs its 16 instances of the
    // default spec.
    let infaas = ServingConfig::new(SchedulerKind::InfaasPlusPlus, 16);
    let total_blocks = f64::from(infaas.spec.geometry.total_blocks * infaas.initial_instances);
    for (trace_name, rate) in [("M-M", 10.0), ("L-L", 4.0), ("S-L", 6.0)] {
        let trace = build_trace(trace_name, n, Arrivals::poisson(rate), 0.0, opts.seed);
        let (arm, out) = run_arm(infaas.clone(), trace.clone(), rate, 1.0);
        let mem = 1.0 - out.free_blocks.mean() / total_blocks;
        table.row(&[
            format!("{trace_name}@{rate}"),
            arm.scheduler.clone(),
            "-".into(),
            "-".into(),
            format!("{:.2}", arm.report.e2e.mean),
            format!("{:.3}", arm.report.prefill.p50),
            format!("{:.2}", arm.report.prefill.p99),
            format!("{:.4}", arm.report.decode.p99),
            format!("{}", arm.preemptions),
            format!("{}", arm.migrations),
            format!("{:.0}%", mem * 100.0),
        ]);
        let tick_ms = 100u64;
        for (src, dst) in [
            (30.0, 120.0),
            (30.0, 60.0),
            (20.0, 40.0),
            (50.0, 80.0),
            (60.0, 60.0),
        ] {
            {
                let mut config = ServingConfig::new(SchedulerKind::Llumnix, 16);
                config.migration_thresholds = MigrationThresholds {
                    source_below: src,
                    destination_above: dst,
                };
                config.migration_interval = SimDuration::from_millis(tick_ms);
                let (arm, out) = run_arm(config, trace.clone(), rate, 1.0);
                let mem = 1.0 - out.free_blocks.mean() / total_blocks;
                table.row(&[
                    format!("{trace_name}@{rate}"),
                    arm.scheduler.clone(),
                    format!("{src}/{dst}"),
                    format!("{tick_ms}ms"),
                    format!("{:.2}", arm.report.e2e.mean),
                    format!("{:.3}", arm.report.prefill.p50),
                    format!("{:.2}", arm.report.prefill.p99),
                    format!("{:.4}", arm.report.decode.p99),
                    format!("{}", arm.preemptions),
                    format!("{}", arm.migrations),
                    format!("{:.0}%", mem * 100.0),
                ]);
            }
        }
    }
    println!("{}", table.render());
}
