//! Seeded fault-injection plans.
//!
//! A [`FaultPlan`] is a precomputed, sorted schedule of faults — instance
//! crashes, transient slowdowns (stragglers), migration-link failures and
//! global-scheduler outages — generated entirely from an experiment seed
//! before the simulation starts ([`FaultPlan::generate`]), or scripted entry
//! by entry ([`FaultPlan::from_faults`]). The serving loop replays the plan
//! as first-class events; nothing about fault timing or targeting is decided
//! at runtime.
//!
//! ## Determinism rules
//!
//! The plan inherits the repo-wide byte-identical-schedule contract:
//!
//! - Generation draws from [`SimRng`] streams split by *label*
//!   (`faults/crash`, `faults/slowdown`, `faults/link`), so adding a fault
//!   class never perturbs the others and the plan depends only on the seed
//!   and the [`FaultPlanConfig`] — never on thread count, wall clock, or
//!   fleet state.
//! - Targets are stored as abstract *ranks* ([`PlannedFault::target_rank`]),
//!   resolved against the live instance roster (insertion-order walk, modulo
//!   fleet size) only at fire time. The plan itself is fleet-agnostic.
//! - [`FaultPlan::fingerprint`] folds every field into a stable 64-bit hash
//!   so tests and benches can assert byte-identical schedules cheaply.
//!
//! Each fault class is an independent Poisson process: inter-arrival gaps are
//! exponential with the configured fleet-wide rate, truncated at the horizon.

use llumnix_sim::{SimDuration, SimRng, SimTime};
use llumnix_workload::exponential;
use serde::Serialize;

/// Rates and shapes for generating a [`FaultPlan`].
///
/// Rates are *fleet-wide* events per simulated hour; a rate of `0.0` disables
/// that fault class. The default plan is fault-free.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlanConfig {
    /// Instance crashes per simulated hour across the whole fleet.
    pub crash_rate_per_hour: f64,
    /// Delay before a crashed instance rejoins the fleet; `None` means the
    /// instance never restarts (permanent capacity loss).
    pub restart_delay: Option<SimDuration>,
    /// Transient slowdown (straggler) events per simulated hour.
    pub slowdown_rate_per_hour: f64,
    /// Inclusive range of step-latency multipliers for slowdowns.
    pub slowdown_factor: (f64, f64),
    /// How long each slowdown lasts.
    pub slowdown_duration: SimDuration,
    /// Migration-link failures per simulated hour.
    pub link_failure_rate_per_hour: f64,
    /// How long a failed link stays down.
    pub link_down_duration: SimDuration,
    /// Faults are only scheduled in `[start_offset, start_offset + horizon)`.
    pub horizon: SimDuration,
    /// Shifts the whole schedule: no fault fires before this offset. A pure
    /// time translation of the `[0, horizon)` schedule — the inter-arrival
    /// draws, targets, and class independence are untouched — so a sweep can
    /// keep its warmup fault-free and fork fault arms from a shared snapshot
    /// (the serving sim's `activate_faults` requires every fault to fire
    /// after the fork point).
    pub start_offset: SimDuration,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            crash_rate_per_hour: 0.0,
            restart_delay: Some(SimDuration::from_secs(10)),
            slowdown_rate_per_hour: 0.0,
            slowdown_factor: (1.5, 3.0),
            slowdown_duration: SimDuration::from_secs(10),
            link_failure_rate_per_hour: 0.0,
            link_down_duration: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(4 * 3600),
            start_offset: SimDuration::ZERO,
        }
    }
}

impl FaultPlanConfig {
    /// A plan config with every fault class disabled.
    pub fn none() -> Self {
        FaultPlanConfig::default()
    }

    /// Sets the crash rate (per simulated hour, fleet-wide).
    pub fn with_crashes(mut self, rate_per_hour: f64, restart: Option<SimDuration>) -> Self {
        self.crash_rate_per_hour = rate_per_hour;
        self.restart_delay = restart;
        self
    }

    /// Sets the slowdown rate and straggler shape.
    pub fn with_slowdowns(
        mut self,
        rate_per_hour: f64,
        factor: (f64, f64),
        duration: SimDuration,
    ) -> Self {
        self.slowdown_rate_per_hour = rate_per_hour;
        self.slowdown_factor = factor;
        self.slowdown_duration = duration;
        self
    }

    /// Sets the migration-link failure rate and outage length.
    pub fn with_link_failures(mut self, rate_per_hour: f64, down_for: SimDuration) -> Self {
        self.link_failure_rate_per_hour = rate_per_hour;
        self.link_down_duration = down_for;
        self
    }

    /// Sets the scheduling horizon.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Delays the whole schedule so no fault fires before `offset`.
    pub fn with_start_offset(mut self, offset: SimDuration) -> Self {
        self.start_offset = offset;
        self
    }

    /// True when no fault class has a positive rate.
    pub fn is_fault_free(&self) -> bool {
        self.crash_rate_per_hour <= 0.0
            && self.slowdown_rate_per_hour <= 0.0
            && self.link_failure_rate_per_hour <= 0.0
    }
}

/// What a planned fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// The target instance dies: in-flight migrations abort, its requests
    /// are lost and must be redispatched. Optionally restarts later.
    Crash {
        /// Delay before the replacement instance comes up, if any.
        restart_after: Option<SimDuration>,
    },
    /// The target instance becomes a straggler: engine steps take
    /// `factor`× their modeled latency until the slowdown expires.
    Slowdown {
        /// Step-latency multiplier (≥ 1.0).
        factor: f64,
        /// How long the straggler phase lasts.
        duration: SimDuration,
    },
    /// The target instance's migration link goes down: new migrations
    /// touching it are refused and in-flight ones abort at the next stage
    /// boundary with `AbortReason::LinkFailed`.
    LinkFailure {
        /// How long the link stays down.
        duration: SimDuration,
    },
    /// The global scheduler fails (§5): frontends fall back to
    /// scheduler-bypass round-robin dispatch, and migration pairing and
    /// auto-scaling pause until it recovers. Ignores `target_rank`.
    SchedulerOutage {
        /// How long the scheduler stays down.
        duration: SimDuration,
    },
}

impl FaultKind {
    fn class_tag(&self) -> u64 {
        match self {
            FaultKind::Crash { .. } => 0,
            FaultKind::Slowdown { .. } => 1,
            FaultKind::LinkFailure { .. } => 2,
            FaultKind::SchedulerOutage { .. } => 3,
        }
    }
}

/// One scheduled fault.
///
/// `target_rank` is resolved against the live roster at fire time
/// (`rank % fleet_size` into the insertion-order walk), which keeps the plan
/// independent of autoscaling decisions while still being fully seeded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PlannedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// Abstract target, resolved modulo the live fleet size at fire time.
    pub target_rank: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A sorted, seeded schedule of faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A scripted plan. The stable sort by fire time keeps entries that
    /// share a timestamp in their given order.
    pub fn from_faults(mut faults: Vec<PlannedFault>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }

    /// Generates the schedule for `cfg` from `rng`.
    ///
    /// Each fault class draws from its own labeled split of `rng`, so the
    /// classes are independent and the result depends only on the seed and
    /// `cfg`. The returned plan is sorted by fire time (stable within a
    /// timestamp: crashes, then slowdowns, then link failures).
    pub fn generate(cfg: &FaultPlanConfig, rng: &SimRng) -> Self {
        let mut faults = Vec::new();
        let mut crash = rng.split("faults/crash");
        Self::poisson_stream(
            cfg.crash_rate_per_hour,
            cfg.start_offset,
            cfg.horizon,
            &mut crash,
            |_| FaultKind::Crash {
                restart_after: cfg.restart_delay,
            },
        )
        .append_to(&mut faults);

        let mut slow = rng.split("faults/slowdown");
        let (lo, hi) = cfg.slowdown_factor;
        Self::poisson_stream(
            cfg.slowdown_rate_per_hour,
            cfg.start_offset,
            cfg.horizon,
            &mut slow,
            |r| FaultKind::Slowdown {
                factor: r.uniform_range(lo, hi),
                duration: cfg.slowdown_duration,
            },
        )
        .append_to(&mut faults);

        let mut link = rng.split("faults/link");
        Self::poisson_stream(
            cfg.link_failure_rate_per_hour,
            cfg.start_offset,
            cfg.horizon,
            &mut link,
            |_| FaultKind::LinkFailure {
                duration: cfg.link_down_duration,
            },
        )
        .append_to(&mut faults);

        // Stable sort: within a timestamp the class order above is preserved,
        // so the merged schedule is a pure function of (seed, cfg).
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }

    fn poisson_stream(
        rate_per_hour: f64,
        start_offset: SimDuration,
        horizon: SimDuration,
        rng: &mut SimRng,
        mut kind: impl FnMut(&mut SimRng) -> FaultKind,
    ) -> Stream {
        let mut out = Vec::new();
        if rate_per_hour <= 0.0 {
            return Stream(out);
        }
        let rate_per_sec = rate_per_hour / 3600.0;
        // The offset translates the whole window: the same exponential draws
        // produce the same gaps, just starting later.
        let end = SimTime::ZERO + start_offset + horizon;
        let mut t = SimTime::ZERO + start_offset;
        loop {
            t += SimDuration::from_secs_f64(exponential(rng, rate_per_sec));
            if t >= end {
                break;
            }
            let target_rank = rng.next_u64();
            out.push(PlannedFault {
                at: t,
                target_rank,
                kind: kind(rng),
            });
        }
        Stream(out)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault at position `i` (plan order = fire order).
    pub fn get(&self, i: usize) -> Option<&PlannedFault> {
        self.faults.get(i)
    }

    /// Iterates the schedule in fire order.
    pub fn iter(&self) -> impl Iterator<Item = &PlannedFault> {
        self.faults.iter()
    }

    /// Scheduled crashes (used by benches to reconcile observed counts).
    pub fn crash_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Crash { .. }))
            .count()
    }

    /// A stable 64-bit digest of the whole schedule (FNV-1a over every
    /// field). Two plans are byte-identical iff their fingerprints match,
    /// which is how tests assert the seed → schedule contract.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.faults.len() as u64);
        for f in &self.faults {
            h.write(f.at.as_micros());
            h.write(f.target_rank);
            h.write(f.kind.class_tag());
            match f.kind {
                FaultKind::Crash { restart_after } => {
                    h.write(restart_after.map_or(u64::MAX, SimDuration::as_micros));
                }
                FaultKind::Slowdown { factor, duration } => {
                    h.write(factor.to_bits());
                    h.write(duration.as_micros());
                }
                FaultKind::LinkFailure { duration } | FaultKind::SchedulerOutage { duration } => {
                    h.write(duration.as_micros());
                }
            }
        }
        h.finish()
    }
}

struct Stream(Vec<PlannedFault>);

impl Stream {
    fn append_to(mut self, out: &mut Vec<PlannedFault>) {
        out.append(&mut self.0);
    }
}

/// Minimal FNV-1a over u64 words; explicit constants, no platform hashers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_cfg() -> FaultPlanConfig {
        FaultPlanConfig::none()
            .with_crashes(60.0, Some(SimDuration::from_secs(10)))
            .with_slowdowns(120.0, (1.5, 3.0), SimDuration::from_secs(10))
            .with_link_failures(60.0, SimDuration::from_secs(5))
            .with_horizon(SimDuration::from_secs(3600))
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = churn_cfg();
        let a = FaultPlan::generate(&cfg, &SimRng::new(42));
        let b = FaultPlan::generate(&cfg, &SimRng::new(42));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = churn_cfg();
        let a = FaultPlan::generate(&cfg, &SimRng::new(42));
        let b = FaultPlan::generate(&cfg, &SimRng::new(43));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let cfg = FaultPlanConfig::none();
        assert!(cfg.is_fault_free());
        let plan = FaultPlan::generate(&cfg, &SimRng::new(7));
        assert!(plan.is_empty());
        assert_eq!(plan.crash_count(), 0);
    }

    #[test]
    fn schedule_is_sorted_and_within_horizon() {
        let cfg = churn_cfg();
        let plan = FaultPlan::generate(&cfg, &SimRng::new(9));
        let end = SimTime::ZERO + cfg.horizon;
        let mut prev = SimTime::ZERO;
        for f in plan.iter() {
            assert!(f.at >= prev, "plan must be sorted by fire time");
            assert!(f.at < end, "fault scheduled past the horizon");
            prev = f.at;
        }
    }

    #[test]
    fn classes_are_independent_streams() {
        // Turning one class off must not perturb the others' schedules.
        let full = FaultPlan::generate(&churn_cfg(), &SimRng::new(11));
        let mut no_slow = churn_cfg();
        no_slow.slowdown_rate_per_hour = 0.0;
        let partial = FaultPlan::generate(&no_slow, &SimRng::new(11));
        let crashes_full: Vec<_> = full
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Crash { .. }))
            .collect();
        let crashes_partial: Vec<_> = partial
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Crash { .. }))
            .collect();
        assert_eq!(crashes_full, crashes_partial);
    }

    #[test]
    fn start_offset_is_a_pure_translation() {
        let base = FaultPlan::generate(&churn_cfg(), &SimRng::new(17));
        let offset = SimDuration::from_secs(450);
        let shifted = FaultPlan::generate(&churn_cfg().with_start_offset(offset), &SimRng::new(17));
        assert_eq!(base.len(), shifted.len());
        assert_eq!(base.crash_count(), shifted.crash_count());
        for (b, s) in base.iter().zip(shifted.iter()) {
            assert_eq!(b.at + offset, s.at, "same schedule, translated");
            assert_eq!(b.target_rank, s.target_rank);
            assert_eq!(b.kind, s.kind);
        }
        // Nothing fires before the offset, nothing at or past offset+horizon.
        let start = SimTime::ZERO + offset;
        let end = start + churn_cfg().horizon;
        for f in shifted.iter() {
            assert!(f.at >= start && f.at < end);
        }
    }

    #[test]
    fn scripted_plans_sort_stably_and_fingerprint_every_kind() {
        let at = |secs| SimTime::from_secs(secs);
        let down = SimDuration::from_secs(5);
        let fault = |secs, target_rank, kind| PlannedFault {
            at: at(secs),
            target_rank,
            kind,
        };
        let outage = fault(4, 0, FaultKind::SchedulerOutage { duration: down });
        let crash = fault(
            4,
            1,
            FaultKind::Crash {
                restart_after: None,
            },
        );
        let link = fault(2, 2, FaultKind::LinkFailure { duration: down });
        let plan = FaultPlan::from_faults(vec![outage, crash, link]);
        // Sorted by fire time; the two 4 s entries keep their given order.
        let order: Vec<_> = plan.iter().copied().collect();
        assert_eq!(order, vec![link, outage, crash]);
        let swapped = FaultPlan::from_faults(vec![crash, outage, link]);
        assert_eq!(
            swapped.iter().copied().collect::<Vec<_>>(),
            vec![link, crash, outage]
        );
        // An outage and a link failure of the same duration, time and rank
        // differ only in their kind, and the fingerprint tells them apart.
        let as_link =
            FaultPlan::from_faults(vec![fault(4, 0, FaultKind::LinkFailure { duration: down })]);
        let as_outage = FaultPlan::from_faults(vec![outage]);
        assert_ne!(as_link.fingerprint(), as_outage.fingerprint());
    }

    #[test]
    fn rate_roughly_matches_expectation() {
        let cfg = FaultPlanConfig::none()
            .with_crashes(120.0, None)
            .with_horizon(SimDuration::from_secs(3600));
        let plan = FaultPlan::generate(&cfg, &SimRng::new(3));
        // Poisson(120) over one hour: extremely unlikely to stray this far.
        assert!(
            plan.len() > 60 && plan.len() < 200,
            "got {} crashes for a 120/h rate",
            plan.len()
        );
    }
}
