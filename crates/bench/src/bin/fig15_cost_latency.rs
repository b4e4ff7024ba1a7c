//! Figure 15: P99 prefill latencies vs average number of instances with
//! varying scaling thresholds.
//!
//! Paper setup (§6.5): the scaling-up threshold `t` sweeps and the range is
//! `[t, t+50]`; higher `t` uses more instances. Plotting P99 prefill latency
//! against the average instance count traces each system's cost–latency
//! frontier; the paper finds Llumnix achieves a ≈5 s P99 prefill at 36% less
//! cost than INFaaS++.

use llumnix_bench::{build_trace, run_arms, ArmResult, ArmSpec, BenchOpts, Flag};
use llumnix_core::{AutoScaleConfig, SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_workload::Arrivals;

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json, Flag::Threads]);
    let n = opts.scaled(10_000);
    let rate = 2.0;
    let mut arms: Vec<ArmSpec> = Vec::new();
    for t in [2.0, 5.0, 10.0, 20.0, 40.0] {
        for kind in [SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix] {
            arms.push(ArmSpec {
                config: ServingConfig::new(kind, 1)
                    .with_autoscale(AutoScaleConfig::paper_default(16).with_threshold(t)),
                trace: build_trace("L-L", n, Arrivals::gamma(rate, 4.0), 0.0, opts.seed),
                rate,
                // Reuse the cv field to carry the threshold in JSON.
                cv: t,
            });
        }
    }
    let all: Vec<ArmResult> = run_arms(arms).into_iter().map(|(arm, _)| arm).collect();

    let mut table = Table::new(
        format!("Figure 15: cost vs P99 prefill latency, L-L @ {rate} req/s (Gamma cv 4)"),
        &["threshold t", "scheduler", "p99 prefill", "avg instances"],
    );
    for arm in &all {
        table.row(&[
            format!("{}", arm.cv),
            arm.scheduler.clone(),
            format!("{:.2}s", arm.report.prefill.p99),
            format!("{:.2}", arm.avg_instances),
        ]);
    }
    println!("{}", table.render());

    // Iso-latency cost comparison: the latency target is the best P99
    // prefill INFaaS++ attains anywhere on its frontier; compare the
    // cheapest configuration of each system that reaches it.
    let infaas_best = all
        .iter()
        .filter(|a| a.scheduler == "infaas++")
        .map(|a| a.report.prefill.p99)
        .fold(f64::INFINITY, f64::min);
    let target = infaas_best * 1.05;
    let cheapest = |sched: &str| {
        all.iter()
            .filter(|a| a.scheduler == sched && a.report.prefill.p99 <= target)
            .map(|a| a.avg_instances)
            .fold(f64::INFINITY, f64::min)
    };
    let infaas_cost = cheapest("infaas++");
    let llumnix_cost = cheapest("llumnix");
    let llumnix_best = all
        .iter()
        .filter(|a| a.scheduler == "llumnix")
        .map(|a| a.report.prefill.p99)
        .fold(f64::INFINITY, f64::min);
    if llumnix_cost.is_finite() && infaas_cost.is_finite() {
        println!(
            "at INFaaS++'s best P99 prefill ({infaas_best:.1}s): infaas++ needs {infaas_cost:.1} \
             instances, llumnix {llumnix_cost:.1} -> {:.0}% cost saving (paper: 36% at iso-latency)",
            (1.0 - llumnix_cost / infaas_cost) * 100.0
        );
    }
    println!(
        "llumnix's own best P99 prefill on the frontier: {llumnix_best:.1}s ({:.1}x lower)",
        infaas_best / llumnix_best.max(1e-9)
    );
    opts.maybe_write_json(&all);
}
