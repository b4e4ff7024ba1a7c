//! Property tests for fault-plan generation: the schedule must be a pure,
//! sorted function of (seed, config) for any rates.

use llumnix_faults::{FaultKind, FaultPlan, FaultPlanConfig};
use llumnix_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn cfg(crash: f64, slow: f64, link: f64, horizon_secs: u64) -> FaultPlanConfig {
    FaultPlanConfig::none()
        .with_crashes(crash, Some(SimDuration::from_secs(5)))
        .with_slowdowns(slow, (1.2, 4.0), SimDuration::from_secs(8))
        .with_link_failures(link, SimDuration::from_secs(3))
        .with_horizon(SimDuration::from_secs(horizon_secs))
}

proptest! {
    /// Regenerating with the same seed reproduces the schedule exactly, and
    /// the schedule is sorted and confined to the horizon.
    #[test]
    fn plan_is_pure_sorted_and_bounded(
        seed in 0u64..1_000_000,
        crash in 0.0f64..200.0,
        slow in 0.0f64..200.0,
        link in 0.0f64..200.0,
        horizon_secs in 1u64..7_200,
    ) {
        let c = cfg(crash, slow, link, horizon_secs);
        let a = FaultPlan::generate(&c, &SimRng::new(seed));
        let b = FaultPlan::generate(&c, &SimRng::new(seed));
        prop_assert_eq!(&a, &b);

        let end = SimTime::ZERO + c.horizon;
        let mut prev = SimTime::ZERO;
        for f in a.iter() {
            prop_assert!(f.at >= prev);
            prop_assert!(f.at < end);
            prev = f.at;
            if let FaultKind::Slowdown { factor, .. } = f.kind {
                prop_assert!((1.2..=4.0).contains(&factor));
            }
        }
    }

    /// Disabling a class removes exactly that class and nothing else.
    #[test]
    fn disabling_one_class_preserves_the_others(seed in 0u64..100_000) {
        let full = FaultPlan::generate(&cfg(40.0, 40.0, 40.0, 3600), &SimRng::new(seed));
        let no_link = FaultPlan::generate(&cfg(40.0, 40.0, 0.0, 3600), &SimRng::new(seed));
        let keep: Vec<_> = full
            .iter()
            .filter(|f| !matches!(f.kind, FaultKind::LinkFailure { .. }))
            .copied()
            .collect();
        let got: Vec<_> = no_link.iter().copied().collect();
        prop_assert_eq!(keep, got);
    }
}
