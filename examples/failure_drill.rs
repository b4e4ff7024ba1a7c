//! Fault-tolerance drill (paper §5).
//!
//! Injects an instance crash and a global-scheduler outage into a serving
//! run, each as a scripted fault plan. The expectations: the requests the
//! crashed instance held are lost and redispatched to the survivors, and
//! in-flight migrations touching it abort cleanly via the handshake; during
//! the global-scheduler outage the frontends fall back to scheduler-bypass
//! round-robin dispatch and migration pauses, so availability is preserved.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! ```

use llumnix::prelude::*;

/// A one-fault plan: `kind` fires at `secs`, on instance `rank` of a fleet
/// that has lost no instance yet.
fn scripted(secs: u64, rank: u64, kind: FaultKind) -> FaultPlan {
    FaultPlan::from_faults(vec![PlannedFault {
        at: SimTime::from_secs(secs),
        target_rank: rank,
        kind,
    }])
}

fn main() {
    let spec = trace_presets::by_name("S-S", 3_000, Arrivals::poisson(12.0)).expect("preset");
    let trace = spec.generate(&SimRng::new(3));

    println!("baseline (no failures):");
    let out = run_serving(ServingConfig::new(SchedulerKind::Llumnix, 8), trace.clone());
    let report = LatencyReport::from_records(&out.records);
    println!(
        "  {} completed, {} aborted, prefill p99 {}",
        out.records.len(),
        out.aborted,
        fmt_secs(report.prefill.p99)
    );

    println!("\ninstance 3 crashes at t=60s and is restarted 10s later:");
    let crash = FaultKind::Crash {
        restart_after: Some(SimDuration::from_secs(10)),
    };
    let config = ServingConfig::new(SchedulerKind::Llumnix, 8).with_faults(scripted(60, 3, crash));
    let out = run_serving(config, trace.clone());
    let report = LatencyReport::from_records(&out.records);
    let fs = &out.fault_stats;
    println!(
        "  {} completed, {} aborted, prefill p99 {}",
        out.records.len(),
        out.aborted,
        fmt_secs(report.prefill.p99)
    );
    println!(
        "  {} requests lost with the instance, {} redispatched, recovery p99 {}",
        fs.requests_lost,
        fs.requests_redispatched,
        fmt_secs(fs.recovery_latency.p99)
    );
    println!(
        "  migrations: {} committed, {} aborted by the handshake",
        out.migration_stats.committed, out.migration_stats.aborted
    );

    println!("\nglobal scheduler down from t=30s to t=90s (scheduler-bypass mode):");
    let outage = FaultKind::SchedulerOutage {
        duration: SimDuration::from_secs(60),
    };
    let config = ServingConfig::new(SchedulerKind::Llumnix, 8).with_faults(scripted(30, 0, outage));
    let out = run_serving(config, trace);
    let report = LatencyReport::from_records(&out.records);
    println!(
        "  {} completed, {} aborted — availability preserved; prefill p99 {} \
         (degraded while dispatch was round-robin and migration paused)",
        out.records.len(),
        out.aborted,
        fmt_secs(report.prefill.p99)
    );
}
