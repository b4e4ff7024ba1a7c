//! Figure 16: scheduling scalability with 64 instances — extended with
//! 128-, 256-, 512- and 1024-instance arms.
//!
//! Paper setup (§6.6): 64 LLaMA-7B instances (GPU execution replaced by
//! measured sleeps — exactly this repo's cost model), requests with 64-token
//! inputs and outputs at increasing rates. The centralized baseline extends
//! the vLLM scheduler to track every request and synchronizes per iteration,
//! producing scheduling stalls that reach ≈40 ms per iteration (a 1.7×
//! per-token slowdown); Llumnix's llumlets decide locally and report only
//! instance-level metrics, so its stalls stay near zero.
//!
//! Beyond the paper, the sweep doubles the fleet four times (128 through
//! 1024 instances) holding the per-instance peak rate fixed (550/64 ≈ 8.6
//! req/s per instance) and scaling the request count with the fleet,
//! probing whether the global scheduler's per-decision cost grows with
//! fleet size. Past 256 instances the simulator coarsens its periodic
//! sampling/migration ticks (2× at 512, 4× at 1024), so per-tick work per
//! instance stays flat while the schedule below 512 is bit-for-bit
//! unchanged.
//!
//! `--huge` appends 4096- and 10 240-instance arms, kept out of the default
//! sweep for their wall-clock cost.

use llumnix_bench::{run_arms, ArmResult, ArmSpec, BenchOpts, Flag};
use llumnix_core::{SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_sim::SimRng;
use llumnix_workload::{Arrivals, FixedLength, LengthDist, TraceSpec};

fn main() {
    let opts = BenchOpts::from_args(&[
        Flag::Seed,
        Flag::Scale,
        Flag::Json,
        Flag::Threads,
        Flag::Switch("--huge"),
    ]);
    // `--huge` extends the sweep past the doubling ladder to 4096 and 10 240
    // instances. Those fleets live behind the flag and scale the per-fleet
    // request count sub-linearly to fit the nightly budget.
    let huge = opts.switch("--huge");
    // (fleet size, arrival rates): the paper's rate sweep at 64 instances,
    // then the peak per-instance rate (550/64 ≈ 8.6 req/s) carried to the
    // larger fleets.
    let mut sweep: Vec<(usize, Vec<f64>)> = vec![
        (64, vec![150.0, 300.0, 450.0, 550.0]),
        (128, vec![1_100.0]),
        (256, vec![2_200.0]),
        (512, vec![4_400.0]),
        (1024, vec![8_800.0]),
    ];
    if huge {
        sweep.push((4_096, vec![35_200.0]));
        sweep.push((10_240, vec![88_000.0]));
    }
    let mut arms: Vec<ArmSpec> = Vec::new();
    for (instances, rates) in &sweep {
        let instances = *instances;
        // Request counts grow with the fleet up to 1024 (≈ 312 requests per
        // instance, the paper's steady-state shape); the huge arms probe
        // scheduler scaling rather than steady state and hold 32 requests
        // per instance so they fit the nightly budget.
        let n = opts.scaled(if instances > 1024 {
            32 * instances
        } else {
            20_000 * instances / 64
        });
        for &rate in rates {
            for kind in [SchedulerKind::Centralized, SchedulerKind::Llumnix] {
                let spec = TraceSpec::new(
                    format!("{instances}x64"),
                    n,
                    Arrivals::poisson(rate),
                    LengthDist::Fixed(FixedLength(64)),
                    LengthDist::Fixed(FixedLength(64)),
                );
                arms.push(ArmSpec {
                    config: ServingConfig::new(kind, instances as u32),
                    trace: spec.generate(&SimRng::new(opts.seed)),
                    rate,
                    cv: 1.0,
                });
            }
        }
    }
    let results = run_arms(arms);

    let mut table = Table::new(
        "Figure 16: 64-1024 instances, 64-token inputs/outputs",
        &[
            "fleet",
            "rate",
            "scheduler",
            "per-token mean/p99",
            "stall mean",
            "stall p99",
            "stall max",
        ],
    );
    for (arm, out) in &results {
        table.row(&[
            arm.trace.trim_end_matches("x64").to_string(),
            format!("{}", arm.rate),
            arm.scheduler.clone(),
            format!(
                "{:.1}ms / {:.1}ms",
                arm.report.decode.mean * 1e3,
                arm.report.decode.p99 * 1e3
            ),
            format!("{:.2}ms", out.stalls.mean * 1e3),
            format!("{:.2}ms", out.stalls.p99 * 1e3),
            format!("{:.2}ms", out.stalls.max * 1e3),
        ]);
    }
    println!("{}", table.render());
    let all: Vec<ArmResult> = results.into_iter().map(|(arm, _)| arm).collect();

    // Headline: the centralized slowdown at the highest rate.
    let high = all.iter().filter(|a| a.rate == 550.0).collect::<Vec<_>>();
    if let (Some(central), Some(llum)) = (
        high.iter().find(|a| a.scheduler == "centralized"),
        high.iter().find(|a| a.scheduler == "llumnix"),
    ) {
        println!(
            "per-token slowdown of centralized at peak: {:.2}x (paper: up to 1.7x)",
            central.report.decode.mean / llum.report.decode.mean
        );
    }
    opts.maybe_write_json(&all);
}
