//! Property tests for the serving sim's snapshot/fork capability.
//!
//! The resume invariant (DESIGN.md §13): for any point between two units of
//! work, snapshot → resume → run-to-completion is byte-identical to the
//! uninterrupted run. These tests fork full serving runs at random event
//! boundaries across random workloads, schedulers, and fault plans —
//! including forks landing mid-migration-handshake, mid-restart, and between
//! planned faults — and compare every observable of the output, float
//! accumulators and diagnostic counters included.

use llumnix_core::{
    FaultPlan, FaultPlanConfig, SchedulerKind, ServingConfig, ServingOutput, ServingSim,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::{presets, Arrivals, Trace};
use proptest::prelude::*;

/// One randomized serving scenario to fork.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    requests: usize,
    /// Arrival rate ×10 (integer so the strategy stays integral).
    rate_x10: u32,
    scheduler_idx: u8,
    faults: bool,
    /// Fork point in milliseconds of simulated time.
    fork_ms: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (0u64..1_000_000, 80usize..160, 30u32..80),
        (0u8..3, any::<bool>(), 500u64..25_000),
    )
        .prop_map(
            |((seed, requests, rate_x10), (scheduler_idx, faults, fork_ms))| Scenario {
                seed,
                requests,
                rate_x10,
                scheduler_idx,
                faults,
                fork_ms,
            },
        )
}

fn build(s: Scenario) -> (ServingConfig, Trace) {
    let scheduler = match s.scheduler_idx {
        0 => SchedulerKind::Llumnix,
        1 => SchedulerKind::RoundRobin,
        _ => SchedulerKind::InfaasPlusPlus,
    };
    let rate = f64::from(s.rate_x10) / 10.0;
    let trace = presets::by_name("S-S", s.requests, Arrivals::poisson(rate))
        .expect("preset")
        .with_max_total_tokens(2_000)
        .generate(&SimRng::new(s.seed));
    let mut cfg = ServingConfig::new(scheduler, 3).with_spec(InstanceSpec::tiny_for_tests(2048));
    if s.faults {
        // Dense churn (~1 crash / 4 s plus stragglers and link outages) so
        // forks routinely land between a crash and its restart.
        let fc = FaultPlanConfig::none()
            .with_crashes(900.0, Some(SimDuration::from_secs(2)))
            .with_slowdowns(1200.0, (1.5, 3.0), SimDuration::from_secs(5))
            .with_link_failures(600.0, SimDuration::from_secs(2))
            .with_horizon(SimDuration::from_secs(600));
        cfg = cfg.with_faults(FaultPlan::generate(&fc, &SimRng::new(s.seed ^ 0x5eed)));
    }
    (cfg, trace)
}

/// Byte-identical-output check over every public observable, including the
/// diagnostics the bench JSON omits (time series, stall summaries).
fn assert_same(a: &ServingOutput, b: &ServingOutput) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        prop_assert_eq!(x.id, y.id);
        prop_assert_eq!(x.first_token, y.first_token);
        prop_assert_eq!(x.finish, y.finish);
        prop_assert_eq!(x.preemptions, y.preemptions);
        prop_assert_eq!(x.preemption_loss, y.preemption_loss);
        prop_assert_eq!(x.migrations, y.migrations);
        prop_assert_eq!(x.migration_downtime, y.migration_downtime);
        prop_assert_eq!(x.max_token_gap, y.max_token_gap);
    }
    prop_assert_eq!(a.aborted, b.aborted);
    prop_assert_eq!(a.events_processed, b.events_processed);
    prop_assert_eq!(a.makespan, b.makespan);
    prop_assert_eq!(a.avg_instances, b.avg_instances);
    prop_assert_eq!(a.migration_stats.started, b.migration_stats.started);
    prop_assert_eq!(a.migration_stats.committed, b.migration_stats.committed);
    prop_assert_eq!(a.migration_stats.aborted, b.migration_stats.aborted);
    prop_assert_eq!(
        a.migration_stats.total_downtime,
        b.migration_stats.total_downtime
    );
    prop_assert_eq!(&a.fault_stats, &b.fault_stats);
    prop_assert_eq!(a.stalls, b.stalls);
    for (s, t) in [
        (&a.fragmentation, &b.fragmentation),
        (&a.free_blocks, &b.free_blocks),
        (&a.hol_satisfiable, &b.hol_satisfiable),
        (&a.queued, &b.queued),
        (&a.instances, &b.instances),
    ] {
        prop_assert_eq!(s.points(), t.points(), "series {} must match", &s.name);
    }
    Ok(())
}

proptest! {
    // Each case is three full serving runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot → resume → run is byte-identical to the uninterrupted run
    /// at a random event boundary, for random workloads, schedulers, and
    /// fault plans — and the donor sim is unharmed by being snapshotted.
    #[test]
    fn snapshot_resume_is_byte_identical(s in scenario()) {
        let (cfg, trace) = build(s);
        let cold = ServingSim::new(cfg.clone(), trace.clone()).run();
        let mut warm = ServingSim::new(cfg, trace);
        warm.run_until(SimTime::ZERO + SimDuration::from_millis(s.fork_ms));
        let snap = warm.snapshot();
        let resumed = ServingSim::resume(&snap).run();
        assert_same(&cold, &resumed)?;
        // The donor keeps running to the same output after the snapshot.
        assert_same(&cold, &warm.run())?;
    }
}
