//! Behavioural tests of the serving loop's scheduler mechanics: queue-order
//! policies end-to-end, preemption-mode effects, scale-down redispatch, and
//! the engine knobs' visibility through the serving configuration.

use llumnix::engine::{PreemptionMode, QueueOrder};
use llumnix::prelude::*;

fn capped(name: &str, n: usize, rate: f64, seed: u64) -> Trace {
    trace_presets::by_name(name, n, Arrivals::poisson(rate))
        .expect("preset")
        .with_max_total_tokens(1_800)
        .generate(&SimRng::new(seed))
}

fn tiny(kind: SchedulerKind) -> ServingConfig {
    ServingConfig::new(kind, 3).with_spec(InstanceSpec::tiny_for_tests(2_048))
}

/// Shortest-first local queues cut mean prefill latency under head-of-line
/// pressure (at the cost of delaying the longest prompts).
#[test]
fn shortest_first_reduces_mean_queuing() {
    let trace = capped("L-S", 400, 14.0, 1);
    let mut fcfs = tiny(SchedulerKind::InfaasPlusPlus);
    fcfs.engine.queue_order = QueueOrder::Fcfs;
    let mut sjf = tiny(SchedulerKind::InfaasPlusPlus);
    sjf.engine.queue_order = QueueOrder::ShortestFirst;
    let out_fcfs = run_serving(fcfs, trace.clone());
    let out_sjf = run_serving(sjf, trace);
    let r_fcfs = LatencyReport::from_records(&out_fcfs.records);
    let r_sjf = LatencyReport::from_records(&out_sjf.records);
    // Both conserve requests.
    assert_eq!(out_fcfs.records.len(), 400);
    assert_eq!(out_sjf.records.len(), 400);
    // SJF cannot be meaningfully worse on *mean* prefill; usually better.
    assert!(
        r_sjf.prefill.mean <= r_fcfs.prefill.mean * 1.05,
        "sjf mean prefill {:.3}s vs fcfs {:.3}s",
        r_sjf.prefill.mean,
        r_fcfs.prefill.mean
    );
}

/// Swap-mode preemption conserves tokens end-to-end through a full serving
/// run with migrations in the mix.
#[test]
fn swap_mode_serving_conserves_tokens() {
    let trace = capped("M-M", 300, 8.0, 2);
    let mut config = tiny(SchedulerKind::Llumnix);
    config.engine.preemption_mode = PreemptionMode::Swap;
    let out = run_serving(config, trace.clone());
    assert_eq!(out.records.len() as u64 + out.aborted, 300);
    for r in &out.records {
        let expected = trace
            .requests
            .iter()
            .find(|q| q.id == r.id)
            .expect("in trace");
        assert_eq!(r.output_len, expected.output_len, "request {}", r.id);
    }
}

/// Scale-down redispatches the terminating instance's queued requests rather
/// than stranding them, and the instance disappears once drained.
#[test]
fn scale_down_redispatches_waiting_requests() {
    // A burst fills the queues, then silence forces a scale-down.
    let trace = capped("S-S", 250, 20.0, 3);
    let scale = AutoScaleConfig {
        min_instances: 1,
        max_instances: 3,
        freeness_low: 5.0,
        freeness_high: 40.0,
        sustain: llumnix::sim::SimDuration::from_secs(2),
        startup_delay: llumnix::sim::SimDuration::from_secs(1),
    };
    let config = tiny(SchedulerKind::Llumnix).with_autoscale(scale);
    let out = run_serving(config, trace);
    assert_eq!(out.records.len() as u64 + out.aborted, 250);
    assert_eq!(out.aborted, 0);
    // The fleet shrank at the end.
    let last = out.instances.points().last().expect("samples").1;
    assert!(
        last <= 2.0,
        "fleet should shrink after the burst, got {last}"
    );
}

/// The centralized baseline's stall penalty is visible in per-token decode
/// latencies: a run with the same freeness dispatch and no stalls is
/// strictly faster. `LlumnixBase` with thresholds no instance can cross is
/// that run: it dispatches like `Centralized` and never migrates.
///
/// Uses the Figure 16 workload shape — fixed 64-token inputs and outputs —
/// so the two runs batch near-identically and the comparison isolates the
/// stall penalty instead of length-mix batching noise (with a variable-length
/// trace the ~ms stall signal can be swamped by divergent batch composition).
#[test]
fn centralized_stalls_surface_in_latency() {
    use llumnix::workload::{FixedLength, LengthDist, TraceSpec};
    let trace = TraceSpec::new(
        "stall-probe",
        500,
        Arrivals::poisson(25.0),
        LengthDist::Fixed(FixedLength(64)),
        LengthDist::Fixed(FixedLength(64)),
    )
    .generate(&SimRng::new(5));
    let stalled = run_serving(
        ServingConfig::new(SchedulerKind::Centralized, 4)
            .with_spec(InstanceSpec::tiny_for_tests(2_048)),
        trace.clone(),
    );
    let mut free_config = ServingConfig::new(SchedulerKind::LlumnixBase, 4)
        .with_spec(InstanceSpec::tiny_for_tests(2_048));
    free_config.migration_thresholds = MigrationThresholds {
        source_below: f64::NEG_INFINITY,
        destination_above: f64::INFINITY,
    };
    let free = run_serving(free_config, trace);
    let rs = LatencyReport::from_records(&stalled.records);
    let rf = LatencyReport::from_records(&free.records);
    assert!(stalled.stalls.mean > 0.0);
    assert_eq!(free.stalls.mean, 0.0);
    assert_eq!(free.migration_stats.started, 0);
    assert!(
        rs.decode.mean > rf.decode.mean,
        "stalls should slow decode: {:.4}s vs {:.4}s",
        rs.decode.mean,
        rf.decode.mean
    );
}
