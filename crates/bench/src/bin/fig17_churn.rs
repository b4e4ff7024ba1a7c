//! Figure 17 (extension): auto-scaling churn under fault injection, 64-1024
//! instances.
//!
//! The paper's fault-tolerance story (§4.3, §6) is qualitative: llumlets fail
//! independently of the global scheduler and vice versa. This sweep makes it
//! quantitative on the simulator. Each arm serves a bursty L-L workload
//! (Gamma arrivals, CV 4) on an auto-scaled fleet while a seeded
//! [`FaultPlan`] crashes instances (restarting them after 10 s), injects
//! transient stragglers (1.5-3x slowdowns for 10 s) and takes the migration
//! link down (5 s outages); faults stay active for twice the arrival
//! window. Crashed instances' queued and running requests
//! are redispatched through the normal dispatch path, so the headline
//! metrics are tail-latency inflation and recovery latency — not failed
//! requests.
//!
//! Fleet sizes extend Figures 14/15 (16 instances) to 64-1024. Both
//! schedulers run at 64 and 256 instances; 512 and 1024 run Llumnix only
//! (the InfaaS++ comparison is established by then and the arms are the
//! sweep's most expensive). Fault rates are per instance-hour so churn
//! pressure per instance is constant across fleet sizes.
//!
//! Every arm is checked for counter reconciliation: lost requests are
//! redispatched or aborted exactly once, failure aborts never exceed the
//! migration coordinator's abort count, and fault-free arms report zero
//! fault activity.
//!
//! Fault plans begin 1 s after the nominal arrival window (n / rate): the
//! fleet takes load fault-free, then crashes, stragglers and link outages
//! hit the fully loaded, draining fleet — where recovery actually has work
//! to redispatch. The fault-free prefix is identical across the three fault
//! profiles, so the sweep runs it once per (fleet, scheduler) pair and
//! forks the profiles from a snapshot ([`run_arms_forked`]). Each row is
//! byte-identical to a cold run configured with its plan from t = 0, and the
//! prefix is roughly half of each arm's compute.

use llumnix_bench::{
    build_trace, mean_p99, run_arms_forked, ArmResult, BenchOpts, Flag, ForkGroup,
};
use llumnix_core::{AutoScaleConfig, FaultPlan, FaultPlanConfig, SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::Arrivals;

/// Fault profiles: (label, crash rate per instance-hour). Slowdown and
/// link-failure rates are derived from the crash rate in [`fault_config`].
const PROFILES: [(&str, f64); 3] = [("none", 0.0), ("low", 2.0), ("high", 8.0)];

/// Per-arm request rate per instance (req/s), held constant across fleets.
const RATE_PER_INSTANCE: f64 = 0.15;

fn fault_config(per_instance_rate: f64, fleet: usize, horizon: SimDuration) -> FaultPlanConfig {
    if per_instance_rate <= 0.0 {
        return FaultPlanConfig::none();
    }
    let crash = per_instance_rate * fleet as f64;
    FaultPlanConfig::none()
        .with_crashes(crash, Some(SimDuration::from_secs(10)))
        .with_slowdowns(2.0 * crash, (1.5, 3.0), SimDuration::from_secs(10))
        .with_link_failures(crash, SimDuration::from_secs(5))
        .with_horizon(horizon)
}

/// One JSON row: the standard arm result plus the fault ledger.
#[derive(Debug, serde::Serialize)]
struct ChurnRow {
    fleet: usize,
    faults: String,
    planned_crashes: usize,
    arm: ArmResult,
    crashes: u64,
    crashes_skipped: u64,
    slowdowns: u64,
    link_failures: u64,
    requests_lost: u64,
    requests_redispatched: u64,
    requests_lost_aborted: u64,
    failure_aborts: u64,
    recovery_mean_secs: f64,
    recovery_p99_secs: f64,
}

fn main() {
    let opts = BenchOpts::from_args(&[
        Flag::Seed,
        Flag::Scale,
        Flag::Json,
        Flag::Threads,
        Flag::Switch("--huge"),
    ]);
    // `--huge` appends 4096- and 10 240-instance Llumnix arms, kept out of
    // the default sweep for their wall-clock cost.
    let huge = opts.switch("--huge");
    let mut fleets: Vec<(usize, &[SchedulerKind])> = vec![
        (64, &[SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix]),
        (
            256,
            &[SchedulerKind::InfaasPlusPlus, SchedulerKind::Llumnix],
        ),
        (512, &[SchedulerKind::Llumnix]),
        (1024, &[SchedulerKind::Llumnix]),
    ];
    if huge {
        fleets.push((4_096, &[SchedulerKind::Llumnix]));
        fleets.push((10_240, &[SchedulerKind::Llumnix]));
    }

    let mut groups: Vec<ForkGroup> = Vec::new();
    // Parallel to the flattened results: (fleet, profile, planned crashes, n).
    let mut meta: Vec<(usize, &str, usize, usize)> = Vec::new();
    for (fleet, kinds) in fleets.clone() {
        let n = opts.scaled(1_000 * fleet / 64);
        let rate = RATE_PER_INSTANCE * fleet as f64;
        // The shared fault-free prefix: the nominal arrival window
        // (n / rate). Every fault plan is translated to begin 1 s after it
        // (`with_start_offset` is a pure time translation), so each fork
        // faces the schedule a cold run configured with its plan would.
        let warmup_ms = (1_000.0 * n as f64 / rate) as u64;
        let warmup = SimTime::ZERO + SimDuration::from_millis(warmup_ms);
        let offset = SimDuration::from_millis(warmup_ms) + SimDuration::from_secs(1);
        // Faults stay active for twice the arrival window past the offset —
        // long enough to churn the loaded, draining fleet, short enough not
        // to spend the sweep crash-looping an idle one (the drained fleet
        // carries no requests to redispatch, so a longer horizon only adds
        // restart bookkeeping that dilutes the recovery metrics).
        let horizon = SimDuration::from_millis(2 * warmup_ms);
        // One plan per (fleet, profile), shared by both schedulers so they
        // face the identical fault schedule. Generated on the main thread
        // from a labelled split: the plan is a pure function of
        // (seed, fleet, profile), whatever the worker-thread count.
        let plans: Vec<(&str, FaultPlan)> = PROFILES
            .iter()
            .map(|&(profile, per_inst)| {
                let plan = FaultPlan::generate(
                    &fault_config(per_inst, fleet, horizon).with_start_offset(offset),
                    &SimRng::new(opts.seed).split(&format!("fig17/{fleet}/{profile}")),
                );
                (profile, plan)
            })
            .collect();
        for &kind in kinds {
            let mut scale_cfg = AutoScaleConfig::paper_default(fleet as u32);
            scale_cfg.min_instances = (fleet / 8).max(1) as u32;
            let config = ServingConfig::new(kind, (fleet / 4) as u32).with_autoscale(scale_cfg);
            let trace = build_trace("L-L", n, Arrivals::gamma(rate, 4.0), 0.0, opts.seed);
            groups.push(ForkGroup {
                config,
                trace,
                warmup,
                rate,
                cv: 4.0,
                arms: plans.iter().map(|(_, plan)| plan.clone()).collect(),
            });
            for (profile, plan) in &plans {
                meta.push((fleet, profile, plan.crash_count(), n));
            }
        }
    }
    let results = run_arms_forked(groups).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let mut table = Table::new(
        "Figure 17: auto-scaling churn under faults (L-L, Gamma CV 4)",
        &[
            "fleet",
            "faults",
            "scheduler",
            "e2e mean/p99",
            "prefill mean/p99",
            "avg inst",
            "crashes",
            "lost/redisp",
            "recovery p99",
        ],
    );
    let mut rows: Vec<ChurnRow> = Vec::new();
    for ((arm, out), &(fleet, profile, planned_crashes, n)) in results.iter().zip(&meta) {
        let fs = &out.fault_stats;

        // Reconciliation: these hold for every arm or the run is wrong.
        assert!(
            fs.consistent(),
            "{fleet}/{profile}/{}: lost {} != redispatched {} + aborted {}",
            arm.scheduler,
            fs.requests_lost,
            fs.requests_redispatched,
            fs.requests_lost_aborted
        );
        assert!(
            fs.failure_aborts() <= out.migration_stats.aborted,
            "{fleet}/{profile}/{}: failure aborts exceed migration aborts",
            arm.scheduler
        );
        assert!(
            fs.crashes as usize + fs.crashes_skipped as usize <= planned_crashes,
            "{fleet}/{profile}/{}: more crashes fired than planned",
            arm.scheduler
        );
        assert_eq!(
            out.records.len() + out.aborted as usize,
            n,
            "{fleet}/{profile}/{}: requests leaked",
            arm.scheduler
        );
        if profile == "none" {
            assert!(
                fs.quiet(),
                "{fleet}/none/{}: fault activity on a fault-free arm",
                arm.scheduler
            );
        } else if opts.scale >= 1.0 {
            assert!(
                fs.crashes > 0,
                "{fleet}/{profile}/{}: fault profile fired no crashes",
                arm.scheduler
            );
        }

        table.row(&[
            format!("{fleet}"),
            profile.to_string(),
            arm.scheduler.clone(),
            mean_p99(&arm.report.e2e),
            mean_p99(&arm.report.prefill),
            format!("{:.1}", arm.avg_instances),
            format!("{}", fs.crashes),
            format!("{}/{}", fs.requests_lost, fs.requests_redispatched),
            format!("{:.2}s", fs.recovery_latency.p99),
        ]);
        rows.push(ChurnRow {
            fleet,
            faults: profile.to_string(),
            planned_crashes,
            arm: arm.clone(),
            crashes: fs.crashes,
            crashes_skipped: fs.crashes_skipped,
            slowdowns: fs.slowdowns,
            link_failures: fs.link_failures,
            requests_lost: fs.requests_lost,
            requests_redispatched: fs.requests_redispatched,
            requests_lost_aborted: fs.requests_lost_aborted,
            failure_aborts: fs.failure_aborts(),
            recovery_mean_secs: fs.recovery_latency.mean,
            recovery_p99_secs: fs.recovery_latency.p99,
        });
    }
    println!("{}", table.render());

    // Headline: Llumnix tail inflation under high churn, per fleet size.
    for (fleet, _) in fleets {
        let find = |profile: &str| {
            rows.iter()
                .find(|r| r.fleet == fleet && r.faults == profile && r.arm.scheduler == "llumnix")
        };
        if let (Some(quiet), Some(churn)) = (find("none"), find("high")) {
            if quiet.arm.report.e2e.p99 > 1e-9 {
                println!(
                    "{fleet} instances: high churn inflates llumnix P99 e2e {:.2}x \
                     ({} crashes, {} requests redispatched, recovery p99 {:.2}s)",
                    churn.arm.report.e2e.p99 / quiet.arm.report.e2e.p99,
                    churn.crashes,
                    churn.requests_redispatched,
                    churn.recovery_p99_secs
                );
            }
        }
    }
    let redispatched: u64 = rows.iter().map(|r| r.requests_redispatched).sum();
    let lost_aborted: u64 = rows.iter().map(|r| r.requests_lost_aborted).sum();
    println!("redispatched {redispatched} crash-lost requests sweep-wide ({lost_aborted} aborted)");
    opts.maybe_write_json(&rows);
}
