//! The sweep harness's one work queue: a task that panics fails the sweep
//! instead of leaving the other workers waiting on it, a forked sweep
//! rejects a plan it cannot fork before any warmup runs, and its rows and
//! outputs match the cold runs', in group-then-arm order, at any worker
//! count and at the fleet shapes of Figures 16 and 17.

use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use llumnix_bench::{
    build_trace, run_arms, run_arms_forked, set_thread_override, ArmResult, ArmSpec, ForkError,
    ForkGroup,
};
use llumnix_core::{
    AutoScaleConfig, FaultKind, FaultPlan, FaultPlanConfig, PlannedFault, SchedulerKind,
    ServingConfig, ServingOutput,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::{Arrivals, FixedLength, LengthDist, Trace, TraceSpec};

/// The worker count is process-wide, so the tests here take turns.
static WORKERS: Mutex<()> = Mutex::new(());

/// Sets the worker count for the rest of the calling test.
fn workers(n: usize) -> MutexGuard<'static, ()> {
    let turn = WORKERS.lock().unwrap_or_else(PoisonError::into_inner);
    set_thread_override(n);
    turn
}

fn config() -> ServingConfig {
    ServingConfig::new(SchedulerKind::Llumnix, 3).with_spec(InstanceSpec::tiny_for_tests(2048))
}

/// `initial_instances = 0` fails `validate()`, so building its sim panics.
fn invalid_config() -> ServingConfig {
    let mut config = config();
    config.initial_instances = 0;
    config
}

fn trace(seed: u64) -> Trace {
    build_trace("S-S", 150, Arrivals::poisson(5.0), 0.0, seed)
}

const WARMUP_SECS: u64 = 8;

/// Crashes that start 2 s after the warmup, so a fork can activate them.
fn crashes(seed: u64) -> FaultPlan {
    let cfg = FaultPlanConfig::none()
        .with_crashes(900.0, Some(SimDuration::from_secs(2)))
        .with_horizon(SimDuration::from_secs(600))
        .with_start_offset(SimDuration::from_secs(WARMUP_SECS + 2));
    FaultPlan::generate(&cfg, &SimRng::new(seed))
}

/// One crash of instance rank 0 at `secs`.
fn crash_at(secs: u64) -> FaultPlan {
    FaultPlan::from_faults(vec![PlannedFault {
        at: SimTime::from_secs(secs),
        target_rank: 0,
        kind: FaultKind::Crash {
            restart_after: Some(SimDuration::from_secs(2)),
        },
    }])
}

fn group(config: ServingConfig, seed: u64, plans: Vec<FaultPlan>) -> ForkGroup {
    ForkGroup {
        config,
        trace: trace(seed),
        warmup: SimTime::from_secs(WARMUP_SECS),
        rate: seed as f64,
        cv: 1.0,
        arms: plans,
    }
}

/// Runs `sweep` on its own thread and returns the message it panicked with.
/// Fails if the sweep returns instead, or is still running after two
/// minutes: a worker is waiting on a task that can no longer finish.
fn panic_message(sweep: impl FnOnce() + Send + 'static) -> String {
    let (done, outcome) = mpsc::channel();
    // Not joined: a hung sweep must fail the test, not hang it too.
    std::thread::spawn(move || {
        let _ = done.send(std::panic::catch_unwind(AssertUnwindSafe(sweep)));
    });
    match outcome.recv_timeout(Duration::from_secs(120)) {
        Ok(Err(panic)) => panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
        Ok(Ok(())) => panic!("the sweep returned; one of its tasks should have panicked"),
        Err(_) => panic!("the sweep still runs two minutes after one of its tasks panicked"),
    }
}

#[test]
fn a_panicking_arm_fails_the_sweep() {
    let _turn = workers(2);
    let arm = |config| ArmSpec {
        config,
        trace: trace(1),
        rate: 5.0,
        cv: 1.0,
    };
    let message = panic_message(move || {
        run_arms(vec![arm(config()), arm(invalid_config()), arm(config())]);
    });
    assert!(message.contains("invalid serving config"), "{message}");
}

#[test]
fn a_panicking_warmup_fails_the_forked_sweep() {
    let _turn = workers(2);
    let message = panic_message(|| {
        let _ = run_arms_forked(vec![
            group(invalid_config(), 1, vec![FaultPlan::empty()]),
            group(config(), 2, vec![FaultPlan::empty(), crashes(2)]),
        ]);
    });
    assert!(message.contains("invalid serving config"), "{message}");
}

#[test]
fn a_bad_fork_plan_fails_before_any_warmup() {
    // Each sweep leads with a group whose warmup would panic, so an error
    // shows that no warmup ran.
    let doomed = || group(invalid_config(), 1, vec![FaultPlan::empty()]);
    let _turn = workers(2);
    // A crash at 1 s lies inside the 8 s prefix the arms share.
    let early = run_arms_forked(vec![
        doomed(),
        group(config(), 2, vec![FaultPlan::empty(), crash_at(1)]),
    ]);
    assert_eq!(
        early.err(),
        Some(ForkError::FaultBeforeWarmup { group: 1, arm: 1 })
    );
    let planned = config().with_faults(crashes(2));
    let shared = run_arms_forked(vec![doomed(), group(planned, 2, vec![FaultPlan::empty()])]);
    let error = shared.expect_err("a planned config cannot fork");
    assert_eq!(error, ForkError::PlanInConfig { group: 1 });
    assert!(error.to_string().starts_with("fork group 1:"), "{error}");
}

/// Runs `groups()` cold at one worker and forked at each worker count in
/// `widths`, and checks that every forked row serializes identically to its
/// cold row and every output processed as many events, ended at the same
/// time and kept the same fault ledger. Returns the cold results.
fn assert_forked_matches_cold(
    groups: impl Fn() -> Vec<ForkGroup>,
    widths: &[usize],
) -> Vec<(ArmResult, ServingOutput)> {
    let _turn = workers(1);
    // The equivalent cold arms, in group-then-arm order.
    let cold: Vec<ArmSpec> = groups()
        .into_iter()
        .flat_map(|g| {
            let (config, trace, rate, cv) = (g.config, g.trace, g.rate, g.cv);
            g.arms.into_iter().map(move |plan| ArmSpec {
                config: config.clone().with_faults(plan),
                trace: trace.clone(),
                rate,
                cv,
            })
        })
        .collect();
    let cold = run_arms(cold);
    let rows: Vec<&ArmResult> = cold.iter().map(|(row, _)| row).collect();
    let expect = llumnix_metrics::to_json(&rows);
    for &n in widths {
        set_thread_override(n);
        let forked = run_arms_forked(groups()).expect("every plan forks");
        let rows: Vec<&ArmResult> = forked.iter().map(|(row, _)| row).collect();
        assert_eq!(llumnix_metrics::to_json(&rows), expect, "{n} workers");
        for (i, ((_, c), (_, f))) in cold.iter().zip(&forked).enumerate() {
            assert_eq!(c.events_processed, f.events_processed, "arm {i}");
            assert_eq!(c.makespan, f.makespan, "arm {i}");
            assert_eq!(c.fault_stats, f.fault_stats, "arm {i}");
        }
    }
    set_thread_override(0);
    cold
}

#[test]
fn forked_rows_come_in_group_then_arm_order_at_any_width() {
    // Groups of 0, 1 and 3 arms; each group's seed is its row's rate label.
    // The last arm's crash fires exactly at the warmup, with a sample and a
    // migration tick.
    let groups = || {
        vec![
            group(config(), 1, Vec::new()),
            group(config(), 2, vec![crashes(2)]),
            group(
                config(),
                3,
                vec![FaultPlan::empty(), crashes(3), crash_at(WARMUP_SECS)],
            ),
        ]
    };
    let cold = assert_forked_matches_cold(groups, &[1, 2, 5]);
    let rates: Vec<f64> = cold.iter().map(|(row, _)| row.rate).collect();
    assert_eq!(rates, [2.0, 3.0, 3.0, 3.0]);
    let crashed: Vec<u64> = cold.iter().map(|(_, o)| o.fault_stats.crashes).collect();
    assert!(
        crashed[0] > 0 && crashed[2] > 0 && crashed[3] == 1,
        "{crashed:?}"
    );
    // The third group's rows differ, so a swap within it would show too.
    let rows: Vec<String> = cold
        .iter()
        .map(|(row, _)| llumnix_metrics::to_json(row))
        .collect();
    assert!(rows[1] != rows[2] && rows[2] != rows[3] && rows[1] != rows[3]);
}

#[test]
fn forked_rows_match_cold_at_fig16s_fleet_shape() {
    // Both of fig16's schedulers on 512 instances, where the sample and
    // migration ticks run at twice their configured interval, with 64-token
    // requests at fig16's per-instance rate. Every arm is fault-free: one
    // resumes from the snapshot, one continues the warmed sim.
    let groups = || {
        let spec = TraceSpec::new(
            "512x64",
            600,
            Arrivals::poisson(4_400.0),
            LengthDist::Fixed(FixedLength(64)),
            LengthDist::Fixed(FixedLength(64)),
        );
        [SchedulerKind::Centralized, SchedulerKind::Llumnix]
            .map(|kind| ForkGroup {
                config: ServingConfig::new(kind, 512),
                trace: spec.generate(&SimRng::new(16)),
                warmup: SimTime::from_millis(700),
                rate: 4_400.0,
                cv: 1.0,
                arms: vec![FaultPlan::empty(), FaultPlan::empty()],
            })
            .into()
    };
    let cold = assert_forked_matches_cold(groups, &[2]);
    for (row, out) in &cold {
        assert_eq!(row.report.e2e.count, 600, "{}", row.scheduler);
        let first_sample = out.fragmentation.points().first().map(|&(at, _)| at);
        assert_eq!(
            first_sample,
            Some(SimTime::from_secs(2)),
            "ticks coarsened 2x"
        );
    }
    assert!(
        cold[0].1.stalls.max > 0.0,
        "the centralized scheduler stalls"
    );
}

#[test]
fn forked_rows_match_cold_at_fig17s_churn_shape() {
    // An auto-scaled fleet on bursty L-L arrivals, forked at the end of
    // arrivals into a fault-free arm and an arm that crashes, slows and
    // cuts the links of instances from 1 s later on.
    const N: usize = 60;
    const RATE: f64 = 4.8;
    let warmup_ms = (1_000.0 * N as f64 / RATE) as u64;
    let groups = || {
        let mut scale = AutoScaleConfig::paper_default(32);
        scale.min_instances = 4;
        let churn = FaultPlanConfig::none()
            .with_crashes(400.0, Some(SimDuration::from_secs(10)))
            .with_slowdowns(800.0, (1.5, 3.0), SimDuration::from_secs(10))
            .with_link_failures(400.0, SimDuration::from_secs(5))
            .with_horizon(SimDuration::from_millis(2 * warmup_ms))
            .with_start_offset(SimDuration::from_millis(warmup_ms + 1_000));
        vec![ForkGroup {
            config: ServingConfig::new(SchedulerKind::Llumnix, 8).with_autoscale(scale),
            trace: build_trace("L-L", N, Arrivals::gamma(RATE, 4.0), 0.0, 17),
            warmup: SimTime::from_millis(warmup_ms),
            rate: RATE,
            cv: 4.0,
            arms: vec![
                FaultPlan::empty(),
                FaultPlan::generate(&churn, &SimRng::new(17)),
            ],
        }]
    };
    let cold = assert_forked_matches_cold(groups, &[2]);
    let fs = &cold[1].1.fault_stats;
    assert!(
        fs.crashes > 0 && fs.slowdowns > 0 && fs.link_failures > 0,
        "{fs:?}"
    );
    // The fault-free arm's fleet shrank, so the scaler terminated instances.
    assert!(cold[0].1.avg_instances < 8.0, "{}", cold[0].1.avg_instances);
}
