//! Whole-system property tests: random workloads and random failure
//! injections through the full serving simulation.

use llumnix::prelude::*;
use proptest::prelude::*;

fn any_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::RoundRobin),
        Just(SchedulerKind::InfaasPlusPlus),
        Just(SchedulerKind::LlumnixBase),
        Just(SchedulerKind::Llumnix),
        Just(SchedulerKind::Centralized),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any scheduler over any small random workload conserves requests and
    /// produces well-ordered records.
    #[test]
    fn serving_conserves_requests(
        kind in any_scheduler(),
        seed in any::<u64>(),
        rate in 1.0f64..12.0,
        n in 20usize..120,
        instances in 1u32..5,
        high in 0.0f64..0.5,
    ) {
        let trace = trace_presets::by_name("S-S", n, Arrivals::poisson(rate))
            .expect("preset")
            .with_max_total_tokens(1_500)
            .with_high_priority_fraction(high)
            .generate(&SimRng::new(seed));
        let config = ServingConfig::new(kind, instances)
            .with_spec(InstanceSpec::tiny_for_tests(2_048));
        let out = run_serving(config, trace);
        prop_assert_eq!(out.records.len() as u64 + out.aborted, n as u64);
        prop_assert_eq!(out.aborted, 0, "no request should abort without failures");
        for r in &out.records {
            prop_assert!(r.arrival <= r.first_token && r.first_token <= r.finish);
        }
    }

    /// A crash, and optionally a scheduler outage before it, at any point
    /// of the arrival window never panics, never loses accounting, and the
    /// service keeps completing the surviving requests. Both faults fire at
    /// an arrival, so they land while the trace is still being served (the
    /// plan drops faults once serving has finished).
    #[test]
    fn failures_never_break_accounting(
        seed in any::<u64>(),
        fail_after in 1usize..119,
        crash_rank in 0u64..3,
        restart in any::<bool>(),
        global_fail in any::<bool>(),
    ) {
        let n = 120usize;
        let trace = trace_presets::by_name("S-S", n, Arrivals::poisson(6.0))
            .expect("preset")
            .with_max_total_tokens(1_500)
            .generate(&SimRng::new(seed));
        let mut faults = vec![PlannedFault {
            at: trace.requests[fail_after].arrival,
            target_rank: crash_rank,
            kind: FaultKind::Crash {
                restart_after: restart.then(|| SimDuration::from_secs(5)),
            },
        }];
        if global_fail {
            faults.push(PlannedFault {
                at: trace.requests[fail_after / 2].arrival,
                target_rank: 0,
                kind: FaultKind::SchedulerOutage {
                    duration: SimDuration::from_secs(15),
                },
            });
        }
        let config = ServingConfig::new(SchedulerKind::Llumnix, 3)
            .with_spec(InstanceSpec::tiny_for_tests(2_048))
            .with_faults(FaultPlan::from_faults(faults));
        let out = run_serving(config, trace);
        prop_assert_eq!(out.records.len() as u64 + out.aborted, n as u64);
        // Both faults fired, and the lost-request ledger balances.
        let fs = &out.fault_stats;
        prop_assert_eq!(fs.crashes, 1);
        prop_assert_eq!(fs.scheduler_outages, u64::from(global_fail));
        prop_assert!(fs.consistent());
        // Migration accounting stays balanced.
        let stats = out.migration_stats;
        prop_assert_eq!(stats.started, stats.committed + stats.aborted);
    }

    /// Auto-scaling never exceeds its configured bounds.
    #[test]
    fn autoscaling_respects_bounds(
        seed in any::<u64>(),
        rate in 2.0f64..10.0,
        max in 2u32..6,
    ) {
        let trace = trace_presets::by_name("M-M", 150, Arrivals::poisson(rate))
            .expect("preset")
            .with_max_total_tokens(1_500)
            .generate(&SimRng::new(seed));
        let scale = AutoScaleConfig {
            min_instances: 1,
            max_instances: max,
            freeness_low: 10.0,
            freeness_high: 60.0,
            sustain: llumnix::sim::SimDuration::from_secs(2),
            startup_delay: llumnix::sim::SimDuration::from_secs(2),
        };
        let config = ServingConfig::new(SchedulerKind::Llumnix, 1)
            .with_spec(InstanceSpec::tiny_for_tests(2_048))
            .with_autoscale(scale);
        let out = run_serving(config, trace);
        prop_assert!(out.instances.max() <= max as f64 + 1e-9);
        for &(_, v) in out.instances.points() {
            prop_assert!(v >= 1.0);
        }
        prop_assert_eq!(out.records.len() as u64 + out.aborted, 150);
    }
}
