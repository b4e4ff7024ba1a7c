//! The parallel sweep harness must be a pure reordering of work: running the
//! same arms serially and across worker threads yields byte-identical
//! results.

use llumnix_bench::{
    build_trace, run_arm, run_arms, set_thread_override, ArmResult, ArmSpec, DEFAULT_SEED,
};
use llumnix_core::{SchedulerKind, ServingConfig};
use llumnix_model::InstanceSpec;
use llumnix_workload::Arrivals;

fn arm_specs() -> Vec<ArmSpec> {
    let mut arms = Vec::new();
    for (trace, rate) in [("S-S", 4.0), ("M-M", 2.0), ("L-L", 1.5)] {
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::InfaasPlusPlus,
            SchedulerKind::Llumnix,
        ] {
            arms.push(ArmSpec {
                config: ServingConfig::new(kind, 4).with_spec(InstanceSpec::tiny_for_tests(4096)),
                trace: build_trace(trace, 80, Arrivals::poisson(rate), 0.1, DEFAULT_SEED),
                rate,
                cv: 1.0,
            });
        }
    }
    arms
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    let serial: Vec<ArmResult> = arm_specs()
        .into_iter()
        .map(|arm| run_arm(arm.config, arm.trace, arm.rate, arm.cv).0)
        .collect();
    let serial_json = llumnix_metrics::to_json(&serial);

    for threads in [1, 2, 4, 7] {
        set_thread_override(threads);
        let parallel: Vec<ArmResult> = run_arms(arm_specs())
            .into_iter()
            .map(|(arm, _)| arm)
            .collect();
        assert_eq!(
            llumnix_metrics::to_json(&parallel),
            serial_json,
            "run_arms diverged from the serial sweep at {threads} threads"
        );
    }
    set_thread_override(0);
}
