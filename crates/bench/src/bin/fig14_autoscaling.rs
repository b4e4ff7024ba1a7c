//! Figure 14: auto-scaling of LLaMA-7B instances.
//!
//! Paper setup (§6.5): L-L lengths, up to 16 instances, scaling threshold
//! range [10, 60] on the average freeness for both systems; one sweep over
//! Poisson request rates and one over Gamma CVs at a fixed rate. Reported:
//! latencies and the average number of instances used (cost). The paper
//! measures up to 12.2×/11× P99 prefill gains and 16%/18% cost savings.

use llumnix_bench::{build_trace, mean_p99, run_arms, ArmResult, ArmSpec, BenchOpts, Flag};
use llumnix_core::{AutoScaleConfig, SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_workload::Arrivals;

fn scaled_config(kind: SchedulerKind) -> ServingConfig {
    // Both systems share the same scaling strategy and aggressiveness
    // (paper §6.5); start from one instance and let load drive growth.
    ServingConfig::new(kind, 1).with_autoscale(AutoScaleConfig::paper_default(16))
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json, Flag::Threads]);
    let n = opts.scaled(10_000);

    // Both sweeps fan out together; the rate sweep occupies the first
    // `rate_arms` result slots, the CV sweep the rest.
    let mut arms: Vec<ArmSpec> = Vec::new();
    for rate in [1.5, 2.0, 2.5, 3.0, 3.5] {
        for kind in [SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix] {
            arms.push(ArmSpec {
                config: scaled_config(kind),
                trace: build_trace("L-L", n, Arrivals::poisson(rate), 0.0, opts.seed),
                rate,
                cv: 1.0,
            });
        }
    }
    let rate_arms = arms.len();
    for cv in [2.0, 4.0, 6.0, 8.0] {
        for kind in [SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix] {
            arms.push(ArmSpec {
                config: scaled_config(kind),
                trace: build_trace("L-L", n, Arrivals::gamma(2.0, cv), 0.0, opts.seed),
                rate: 2.0,
                cv,
            });
        }
    }
    let all: Vec<ArmResult> = run_arms(arms).into_iter().map(|(arm, _)| arm).collect();

    let mut table = Table::new(
        "Figure 14 (top): auto-scaling vs request rate (Poisson, L-L)",
        &[
            "rate",
            "scheduler",
            "e2e mean/p99",
            "prefill mean/p99",
            "decode mean/p99",
            "avg inst",
        ],
    );
    for arm in &all[..rate_arms] {
        table.row(&[
            format!("{}", arm.rate),
            arm.scheduler.clone(),
            mean_p99(&arm.report.e2e),
            mean_p99(&arm.report.prefill),
            mean_p99(&arm.report.decode),
            format!("{:.2}", arm.avg_instances),
        ]);
    }
    println!("{}", table.render());

    let mut table = Table::new(
        "Figure 14 (bottom): auto-scaling vs burstiness (Gamma, L-L, rate 2)",
        &[
            "cv",
            "scheduler",
            "e2e mean/p99",
            "prefill mean/p99",
            "decode mean/p99",
            "avg inst",
        ],
    );
    for arm in &all[rate_arms..] {
        table.row(&[
            format!("{}", arm.cv),
            arm.scheduler.clone(),
            mean_p99(&arm.report.e2e),
            mean_p99(&arm.report.prefill),
            mean_p99(&arm.report.decode),
            format!("{:.2}", arm.avg_instances),
        ]);
    }
    println!("{}", table.render());

    // Headline: best P99 prefill gain, and the average cost saving over the
    // arms where Llumnix also delivered at-least-as-good tail prefill
    // latency (cost savings bought by worse latency do not count).
    let mut best_prefill: f64 = 0.0;
    let mut savings = Vec::new();
    for arm in all.iter().filter(|a| a.scheduler == "llumnix") {
        if let Some(base) = all
            .iter()
            .find(|b| b.scheduler == "infaas++" && b.rate == arm.rate && b.cv == arm.cv)
        {
            if arm.report.prefill.p99 > 1e-6 {
                best_prefill = best_prefill.max(base.report.prefill.p99 / arm.report.prefill.p99);
            }
            if base.avg_instances > 0.0 && arm.report.prefill.p99 <= base.report.prefill.p99 {
                savings.push(1.0 - arm.avg_instances / base.avg_instances);
            }
        }
    }
    let avg_saving = if savings.is_empty() {
        0.0
    } else {
        savings.iter().sum::<f64>() / savings.len() as f64
    };
    println!("best P99 prefill gain: {best_prefill:.1}x (paper: up to 12.2x)");
    println!(
        "average cost saving at no-worse tail latency: {:.0}% (paper: 16-18%)",
        avg_saving * 100.0
    );
    opts.maybe_write_json(&all);
}
