//! Regression tests for defects found during development — each encodes a
//! specific interleaving that once leaked a request or stranded state.

use llumnix::prelude::*;
use llumnix::sim::SimTime;

fn capped_trace(n: usize, rate: f64, seed: u64) -> Trace {
    trace_presets::by_name("S-S", n, Arrivals::poisson(rate))
        .expect("preset")
        .with_max_total_tokens(1_500)
        .generate(&SimRng::new(seed))
}

fn tiny(kind: SchedulerKind, n: u32) -> ServingConfig {
    ServingConfig::new(kind, n).with_spec(InstanceSpec::tiny_for_tests(2_048))
}

/// A crash of `rank` at `secs` with no restart, scripted as a fault plan.
fn crash_at(secs: u64, rank: u64) -> FaultPlan {
    FaultPlan::from_faults(vec![PlannedFault {
        at: SimTime::from_secs(secs),
        target_rank: rank,
        kind: FaultKind::Crash {
            restart_after: None,
        },
    }])
}

/// Requests inside an *in-flight prefill step* are in neither the running
/// batch nor the pending list; an instance crash at that instant must still
/// count them as lost and redispatch them (found by proptest, seed
/// 9194729304982698691).
#[test]
fn failure_counts_requests_inside_prefill_steps() {
    let trace = capped_trace(120, 6.0, 9194729304982698691);
    let config = tiny(SchedulerKind::Llumnix, 3).with_faults(crash_at(9, 2));
    let out = run_serving(config, trace);
    assert_eq!(out.records.len() as u64 + out.aborted, 120);
    assert_eq!(out.fault_stats.crashes, 1);
}

/// Request and migration accounting stay balanced when instance 0 crashes
/// at 17 s on this seed (found by proptest, seed 7820411515648217046, when an
/// aborted migration left its drain pending and stranded the request in
/// `Draining`). This run cannot tell whether the coordinator cancels the
/// drain: the serving loop undrains a request whose migration is gone. The
/// coordinator tests `abort_while_awaiting_drain_cancels_pending_drain` and
/// `destination_failure_while_awaiting_drain_cancels_pending_drain` guard
/// the cancel itself.
#[test]
fn aborted_migration_cancels_pending_drain() {
    let trace = capped_trace(120, 6.0, 7820411515648217046);
    let config = tiny(SchedulerKind::Llumnix, 3).with_faults(crash_at(17, 0));
    let out = run_serving(config, trace);
    assert_eq!(out.records.len() as u64 + out.aborted, 120);
    assert_eq!(out.fault_stats.crashes, 1);
    let stats = out.migration_stats;
    assert_eq!(stats.started, stats.committed + stats.aborted);
}

/// A terminating instance must not be torn down while it is the
/// *destination* of an in-flight migration — the commit would dangle and
/// the migrating request would be lost (found by proptest, seed
/// 9674038497135260553).
#[test]
fn termination_waits_for_inbound_migrations() {
    let trace = capped_trace(150, 6.72, 9674038497135260553);
    let scale = AutoScaleConfig {
        min_instances: 1,
        max_instances: 3,
        freeness_low: 10.0,
        freeness_high: 60.0,
        sustain: llumnix::sim::SimDuration::from_secs(2),
        startup_delay: llumnix::sim::SimDuration::from_secs(2),
    };
    let config = tiny(SchedulerKind::Llumnix, 1).with_autoscale(scale);
    let out = run_serving(config, trace);
    assert_eq!(out.records.len() as u64 + out.aborted, 150);
    assert_eq!(out.aborted, 0, "no failures were injected");
}

/// A preempted request whose regrown footprint can never fit the instance
/// again must be aborted exactly once — not double-counted as both a record
/// and an abort (it already emitted tokens before preemption).
#[test]
fn midlife_abort_counts_once() {
    // One tiny instance; a request whose input fits but whose growth
    // exceeds the whole instance.
    let spec = TraceSpec::new(
        "overgrow",
        3,
        Arrivals::poisson(0.2),
        LengthDist::Fixed(llumnix::workload::FixedLength(1_200)),
        LengthDist::Fixed(llumnix::workload::FixedLength(1_500)),
    );
    let trace = spec.generate(&SimRng::new(1));
    let out = run_serving(tiny(SchedulerKind::RoundRobin, 1), trace);
    // Capacity 2,048 < 2,700 final length: every request eventually aborts.
    assert_eq!(out.records.len(), 0);
    assert_eq!(out.aborted, 3);
}

/// Priority-aware dispatch: high-priority arrivals must not be repelled by
/// their own class's headroom (they dispatch by headroom-free freeness).
#[test]
fn high_priority_dispatch_ignores_own_headroom() {
    use llumnix::core::{Dispatcher, LoadReport, SchedulerKind};
    let mut d = Dispatcher::new();
    let reports = vec![
        // Instance 0 hosts a high request: huge headroom makes its unified
        // freeness very negative, but physically it is nearly empty.
        LoadReport {
            id: InstanceId(0),
            freeness: -500.0,
            freeness_physical: 12_000.0,
            memory_load: 0.1,
            num_running: 1,
            num_waiting: 0,
            terminating: false,
            starting: false,
        },
        // Instance 1 is physically busier but has no headroom.
        LoadReport {
            id: InstanceId(1),
            freeness: 300.0,
            freeness_physical: 300.0,
            memory_load: 0.6,
            num_running: 12,
            num_waiting: 0,
            terminating: false,
            starting: false,
        },
    ];
    // A normal request avoids the protected instance...
    assert_eq!(
        d.dispatch_for(SchedulerKind::Llumnix, &reports, false),
        Some(InstanceId(1))
    );
    // ...a high-priority request goes to the physically freest one.
    assert_eq!(
        d.dispatch_for(SchedulerKind::Llumnix, &reports, true),
        Some(InstanceId(0))
    );
}
