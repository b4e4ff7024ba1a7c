//! The sweep harness's one work queue: a task that panics fails the sweep
//! instead of leaving the other workers waiting on it, and a forked sweep
//! returns its rows in group-then-arm order at any worker count.

use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use llumnix_bench::{
    build_trace, run_arms, run_arms_forked, set_thread_override, ArmSpec, ForkArm, ForkGroup,
};
use llumnix_core::{
    FaultKind, FaultPlan, FaultPlanConfig, PlannedFault, SchedulerKind, ServingConfig,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::{Arrivals, Trace};

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

fn group(config: ServingConfig, seed: u64, plans: Vec<FaultPlan>) -> ForkGroup {
    ForkGroup {
        config,
        trace: trace(seed),
        warmup: SimTime::from_secs(WARMUP_SECS),
        rate: seed as f64,
        cv: 1.0,
        arms: plans.into_iter().map(|plan| ForkArm { plan }).collect(),
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
        run_arms_forked(vec![
            group(invalid_config(), 1, vec![FaultPlan::empty()]),
            group(config(), 2, vec![FaultPlan::empty(), crashes(2)]),
        ]);
    });
    assert!(message.contains("invalid serving config"), "{message}");
}

#[test]
fn a_panicking_fork_fails_the_forked_sweep() {
    // A crash at 1 s lies before the 8 s fork point, which
    // `activate_faults` rejects.
    let early = FaultPlan::from_faults(vec![PlannedFault {
        at: SimTime::from_secs(1),
        target_rank: 0,
        kind: FaultKind::Crash {
            restart_after: None,
        },
    }]);
    let _turn = workers(2);
    let message = panic_message(move || {
        run_arms_forked(vec![
            group(config(), 1, vec![early, FaultPlan::empty()]),
            group(config(), 2, vec![FaultPlan::empty(), crashes(2)]),
        ]);
    });
    assert!(message.contains("before the fork point"), "{message}");
}

#[test]
fn forked_rows_come_in_group_then_arm_order_at_any_width() {
    // Groups of 0, 1 and 3 arms; each group's seed is its row's rate label.
    let groups = || {
        vec![
            group(config(), 1, Vec::new()),
            group(config(), 2, vec![crashes(2)]),
            group(
                config(),
                3,
                vec![FaultPlan::empty(), crashes(3), crashes(4)],
            ),
        ]
    };
    // The equivalent cold arms, in group-then-arm order.
    let cold: Vec<ArmSpec> = groups()
        .into_iter()
        .flat_map(|g| {
            let (config, trace, rate) = (g.config, g.trace, g.rate);
            g.arms.into_iter().map(move |arm| ArmSpec {
                config: config.clone().with_faults(arm.plan),
                trace: trace.clone(),
                rate,
                cv: 1.0,
            })
        })
        .collect();
    let _turn = workers(1);
    let cold: Vec<_> = run_arms(cold).into_iter().map(|(row, _)| row).collect();
    let rates: Vec<f64> = cold.iter().map(|row| row.rate).collect();
    assert_eq!(rates, [2.0, 3.0, 3.0, 3.0]);
    // The third group's rows differ, so a swap within it would show too.
    let rows: Vec<String> = cold.iter().map(llumnix_metrics::to_json).collect();
    assert!(rows[1] != rows[2] && rows[2] != rows[3] && rows[1] != rows[3]);
    let expect = llumnix_metrics::to_json(&cold);
    for n in [1, 2, 5] {
        set_thread_override(n);
        let forked: Vec<_> = run_arms_forked(groups())
            .into_iter()
            .map(|(row, _)| row)
            .collect();
        assert_eq!(llumnix_metrics::to_json(&forked), expect, "{n} workers");
    }
    set_thread_override(0);
}
