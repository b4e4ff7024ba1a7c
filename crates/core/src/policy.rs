//! Scheduling policies: dispatch, migration pairing, and auto-scaling.
//!
//! These are the pure decision functions of the global scheduler (§4.3): it
//! never tracks individual requests, only instance-level loads, and leaves
//! request selection and migration execution to the llumlets.

use llumnix_engine::InstanceId;
use llumnix_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::index::DispatchIndex;

/// Which scheduler drives the cluster — Llumnix or one of the paper's
/// baselines (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Round-robin dispatching, no migration (production-default baseline).
    RoundRobin,
    /// INFaaS++: memory-load-aware dispatching (counting queued demand) and
    /// load-aware auto-scaling; no migration.
    InfaasPlusPlus,
    /// Llumnix without priorities: migration, de-fragmentation, auto-scaling,
    /// but every request treated as normal priority.
    LlumnixBase,
    /// Full Llumnix: everything plus priority support.
    Llumnix,
    /// A centralized scheduler that synchronously tracks every request
    /// (the §6.6 scalability baseline); load-aware dispatch, no migration,
    /// per-step scheduling stalls.
    Centralized,
}

impl SchedulerKind {
    /// Whether this scheduler reschedules requests via live migration.
    pub fn uses_migration(&self) -> bool {
        matches!(self, SchedulerKind::LlumnixBase | SchedulerKind::Llumnix)
    }

    /// Whether request priorities are honored (scheduling + execution).
    pub fn uses_priorities(&self) -> bool {
        matches!(self, SchedulerKind::Llumnix)
    }

    /// Whether per-step centralized scheduling stalls apply.
    pub fn has_central_stalls(&self) -> bool {
        matches!(self, SchedulerKind::Centralized)
    }

    /// Display label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::InfaasPlusPlus => "infaas++",
            SchedulerKind::LlumnixBase => "llumnix-base",
            SchedulerKind::Llumnix => "llumnix",
            SchedulerKind::Centralized => "centralized",
        }
    }
}

/// One instance's load report to the global scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Reporting instance.
    pub id: InstanceId,
    /// Freeness in decode steps (Llumnix) or the INFaaS equivalent.
    pub freeness: f64,
    /// Freeness without execution-priority headroom (physical + queue
    /// demand only). High-priority dispatch uses this: the headroom exists
    /// to repel *normal* load, not the protected class itself.
    pub freeness_physical: f64,
    /// Memory load fraction (INFaaS++ dispatch signal).
    pub memory_load: f64,
    /// Number of running requests (termination victim selection).
    pub num_running: usize,
    /// Number of queued requests.
    pub num_waiting: usize,
    /// Whether the instance is draining for termination.
    pub terminating: bool,
    /// Whether the instance is still starting up (not yet serving).
    pub starting: bool,
}

/// Dispatch state (round-robin counter lives here).
#[derive(Debug, Default, Clone)]
pub struct Dispatcher {
    rr_counter: u64,
}

impl Dispatcher {
    /// Creates a dispatcher.
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// Picks the instance for a new request. Terminating and starting
    /// instances are excluded. Returns `None` when no instance is available.
    pub fn dispatch(&mut self, kind: SchedulerKind, reports: &[LoadReport]) -> Option<InstanceId> {
        self.dispatch_for(kind, reports, false)
    }

    /// Like [`Dispatcher::dispatch`], for a request of known class: high
    /// execution priority dispatches by headroom-free freeness.
    pub fn dispatch_for(
        &mut self,
        kind: SchedulerKind,
        reports: &[LoadReport],
        high_priority: bool,
    ) -> Option<InstanceId> {
        let eligible: Vec<&LoadReport> = reports
            .iter()
            .filter(|r| !r.terminating && !r.starting)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        match kind {
            SchedulerKind::RoundRobin => {
                let idx = (self.rr_counter as usize) % eligible.len();
                self.rr_counter += 1;
                Some(eligible[idx].id)
            }
            SchedulerKind::InfaasPlusPlus => eligible
                .iter()
                .min_by(|a, b| {
                    a.memory_load
                        // lint: allow(float-ord) — loads are finite and ties fall through to the id tiebreaker below
                        .partial_cmp(&b.memory_load)
                        .expect("loads finite")
                        .then(a.id.cmp(&b.id))
                })
                .map(|r| r.id),
            SchedulerKind::LlumnixBase | SchedulerKind::Llumnix | SchedulerKind::Centralized => {
                let key = |r: &LoadReport| {
                    if high_priority {
                        r.freeness_physical
                    } else {
                        r.freeness
                    }
                };
                eligible
                    .iter()
                    .max_by(|a, b| {
                        key(a)
                            // lint: allow(float-ord) — freeness is finite and ties fall through to the id tiebreaker below
                            .partial_cmp(&key(b))
                            .expect("freeness is never NaN")
                            .then(b.id.cmp(&a.id))
                    })
                    .map(|r| r.id)
            }
        }
    }

    /// Like [`Dispatcher::dispatch_for`], but selecting from the incremental
    /// [`DispatchIndex`] instead of scanning a report slice: same decisions,
    /// same tie-breaks, O(log N). The round-robin counter advances exactly
    /// when the slice path would have advanced it (some instance is
    /// eligible).
    pub fn dispatch_indexed(
        &mut self,
        kind: SchedulerKind,
        index: &DispatchIndex,
        high_priority: bool,
    ) -> Option<InstanceId> {
        let len = index.serving_len();
        if len == 0 {
            return None;
        }
        match kind {
            SchedulerKind::RoundRobin => {
                let idx = (self.rr_counter as usize) % len;
                self.rr_counter += 1;
                index.serving_at(idx)
            }
            SchedulerKind::InfaasPlusPlus => index.least_memory_load(),
            SchedulerKind::LlumnixBase | SchedulerKind::Llumnix | SchedulerKind::Centralized => {
                index.freest(high_priority)
            }
        }
    }
}

/// Which running request a migration-source llumlet moves out first.
///
/// The paper's rule is [`VictimPolicy::LowPriorityShortest`] (§4.4.3: "the
/// llumlet prefers the requests with lower priorities and shorter sequence
/// lengths"); the alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VictimPolicy {
    /// Lowest execution priority first, then shortest sequence (paper).
    #[default]
    LowPriorityShortest,
    /// Shortest sequence regardless of priority.
    Shortest,
    /// Longest sequence (moves the most memory per migration).
    Longest,
    /// Lowest request id (oldest resident request).
    Oldest,
}

/// Migration-pairing thresholds (freeness in decode steps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationThresholds {
    /// Instances below this freeness become migration sources.
    pub source_below: f64,
    /// Instances above this freeness become migration destinations.
    pub destination_above: f64,
}

impl Default for MigrationThresholds {
    fn default() -> Self {
        // Tuned on the M-M/L-L/S-L probes: a source threshold of 30 steps
        // starts rescues early enough to beat the ≈0.3 s migration latency,
        // and a destination threshold of 60 keeps destinations available at
        // high load (a wide dead band starves pairing exactly when load
        // balancing matters most).
        MigrationThresholds {
            source_below: 30.0,
            destination_above: 60.0,
        }
    }
}

/// Pairs migration sources with destinations (§4.4.3): candidates beyond the
/// thresholds, lowest freeness matched with highest, repeatedly. Terminating
/// instances are always sources (their fake request gives them `-∞`
/// freeness) — even when still inside their startup delay, as happens under
/// fast scale-up-then-down churn; starting instances are never destinations
/// and only become ordinary sources once serving.
pub fn pair_migrations(
    reports: &[LoadReport],
    thresholds: MigrationThresholds,
) -> Vec<(InstanceId, InstanceId)> {
    let mut sources: Vec<&LoadReport> = reports
        .iter()
        .filter(|r| r.terminating || (!r.starting && r.freeness < thresholds.source_below))
        .collect();
    let mut dests: Vec<&LoadReport> = reports
        .iter()
        .filter(|r| !r.starting && !r.terminating && r.freeness > thresholds.destination_above)
        .collect();
    sources.sort_by(|a, b| {
        a.freeness
            // lint: allow(float-ord) — freeness is finite and ties fall through to the id tiebreaker below
            .partial_cmp(&b.freeness)
            .expect("freeness totally ordered")
            .then(a.id.cmp(&b.id))
    });
    dests.sort_by(|a, b| {
        b.freeness
            // lint: allow(float-ord) — freeness is finite and ties fall through to the id tiebreaker below
            .partial_cmp(&a.freeness)
            .expect("freeness totally ordered")
            .then(a.id.cmp(&b.id))
    });
    sources
        .into_iter()
        .zip(dests)
        .map(|(s, d)| (s.id, d.id))
        .collect()
}

/// Auto-scaling configuration (§4.4.3, §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoScaleConfig {
    /// Minimum instances kept alive.
    pub min_instances: u32,
    /// Maximum instances (the paper caps at 16).
    pub max_instances: u32,
    /// Scale *up* when average freeness stays below this.
    pub freeness_low: f64,
    /// Scale *down* when average freeness stays above this.
    pub freeness_high: f64,
    /// How long the average must stay out of range before acting.
    pub sustain: SimDuration,
    /// Startup delay before a new instance serves (model load etc.).
    pub startup_delay: SimDuration,
}

impl AutoScaleConfig {
    /// The paper's default `[10, 60]` threshold range.
    pub fn paper_default(max_instances: u32) -> Self {
        AutoScaleConfig {
            min_instances: 1,
            max_instances,
            freeness_low: 10.0,
            freeness_high: 60.0,
            sustain: SimDuration::from_secs(10),
            startup_delay: SimDuration::from_secs(30),
        }
    }

    /// The §6.5 threshold sweep: range `[t, t+50]`.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.freeness_low = t;
        self.freeness_high = t + 50.0;
        self
    }
}

/// A scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Launch a new instance.
    Up,
    /// Drain and terminate one instance.
    Down,
}

/// Sustained-threshold auto-scaler.
///
/// Observations are averaged over a rolling window of length `sustain`
/// before being compared to the thresholds, so a single transient sample in
/// range cannot mask sustained pressure (queue-driven freeness flickers
/// between negative and positive as head-of-line requests get admitted).
/// After each action the window clears, enforcing a cooldown of `sustain`.
#[derive(Debug, Clone)]
pub struct AutoScaler {
    config: AutoScaleConfig,
    window: Vec<(SimTime, f64)>,
    window_start: Option<SimTime>,
    last_up: Option<SimTime>,
}

impl AutoScaler {
    /// Creates a scaler.
    pub fn new(config: AutoScaleConfig) -> Self {
        AutoScaler {
            config,
            window: Vec::new(),
            window_start: None,
            last_up: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AutoScaleConfig {
        &self.config
    }

    /// Feeds one observation of the cluster's average freeness over
    /// non-terminating instances; returns an action when the windowed mean
    /// has stayed beyond a threshold for the sustain period.
    ///
    /// `alive` is every paid-for instance (serving + starting + draining) and
    /// bounds scale-up; `active` excludes draining instances and bounds
    /// scale-down, so capacity already being drained is not double-counted.
    pub fn observe_counts(
        &mut self,
        avg_freeness: f64,
        alive: u32,
        active: u32,
        now: SimTime,
    ) -> Option<ScaleAction> {
        let cfg = self.config;
        self.window_start.get_or_insert(now);
        self.window.push((now, avg_freeness));
        self.window.retain(|&(t, _)| now.since(t) <= cfg.sustain);
        // The window must span the full sustain period since the last reset.
        let spanned = self
            .window_start
            .is_some_and(|s| now.since(s) >= cfg.sustain);
        if !spanned || self.window.is_empty() {
            return None;
        }
        let mean = self.window.iter().map(|&(_, v)| v).sum::<f64>() / self.window.len() as f64;
        // Scale-down is suppressed while recently launched capacity is still
        // starting up and filling — an empty instance reports a huge
        // freeness that would otherwise be misread as global overprovision.
        let down_cooldown = cfg.sustain + cfg.startup_delay + cfg.sustain;
        let down_allowed = self.last_up.is_none_or(|t| now.since(t) >= down_cooldown);
        let action = if mean < cfg.freeness_low && alive < cfg.max_instances {
            Some(ScaleAction::Up)
        } else if mean > cfg.freeness_high && active > cfg.min_instances && down_allowed {
            Some(ScaleAction::Down)
        } else {
            None
        };
        if action.is_some() {
            self.window.clear();
            self.window_start = Some(now);
            if action == Some(ScaleAction::Up) {
                self.last_up = Some(now);
            }
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u32, freeness: f64, load: f64) -> LoadReport {
        LoadReport {
            id: InstanceId(id),
            freeness,
            freeness_physical: freeness,
            memory_load: load,
            num_running: 0,
            num_waiting: 0,
            terminating: false,
            starting: false,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut d = Dispatcher::new();
        let reports = vec![
            report(0, 0.0, 0.0),
            report(1, 0.0, 0.0),
            report(2, 0.0, 0.0),
        ];
        let picks: Vec<u32> = (0..6)
            .map(|_| {
                d.dispatch(SchedulerKind::RoundRobin, &reports)
                    .expect("some")
                    .0
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn llumnix_dispatches_to_freest() {
        let mut d = Dispatcher::new();
        let reports = vec![
            report(0, 10.0, 0.9),
            report(1, 500.0, 0.2),
            report(2, 90.0, 0.5),
        ];
        assert_eq!(
            d.dispatch(SchedulerKind::Llumnix, &reports),
            Some(InstanceId(1))
        );
        // Negative freeness (queuing/high-priority instances) loses.
        let reports = vec![report(0, -5.0, 0.9), report(1, 2.0, 0.2)];
        assert_eq!(
            d.dispatch(SchedulerKind::Llumnix, &reports),
            Some(InstanceId(1))
        );
    }

    #[test]
    fn infaas_dispatches_to_lowest_load() {
        let mut d = Dispatcher::new();
        let reports = vec![
            report(0, 0.0, 0.9),
            report(1, 0.0, 0.2),
            report(2, 0.0, 0.5),
        ];
        assert_eq!(
            d.dispatch(SchedulerKind::InfaasPlusPlus, &reports),
            Some(InstanceId(1))
        );
    }

    #[test]
    fn dispatch_skips_terminating_and_starting() {
        let mut d = Dispatcher::new();
        let mut r0 = report(0, 1000.0, 0.0);
        r0.terminating = true;
        let mut r1 = report(1, 1000.0, 0.0);
        r1.starting = true;
        let r2 = report(2, 1.0, 0.99);
        let reports = vec![r0, r1, r2];
        assert_eq!(
            d.dispatch(SchedulerKind::Llumnix, &reports),
            Some(InstanceId(2))
        );
        assert_eq!(
            d.dispatch(SchedulerKind::InfaasPlusPlus, &reports),
            Some(InstanceId(2))
        );
        let all_out = vec![r0, r1];
        assert_eq!(d.dispatch(SchedulerKind::Llumnix, &all_out), None);
    }

    #[test]
    fn pairing_matches_extremes() {
        let reports = vec![
            report(0, 25.0, 0.0),  // source
            report(1, 100.0, 0.0), // dest
            report(2, -3.0, 0.0),  // source (worse)
            report(3, 70.0, 0.0),  // dest (weaker)
            report(4, 30.0, 0.0),  // neither
        ];
        let pairs = pair_migrations(&reports, MigrationThresholds::default());
        assert_eq!(
            pairs,
            vec![
                (InstanceId(2), InstanceId(1)),
                (InstanceId(0), InstanceId(3)),
            ]
        );
    }

    #[test]
    fn pairing_includes_terminating_sources() {
        let mut term = report(0, f64::NEG_INFINITY, 0.0);
        term.terminating = true;
        let reports = vec![term, report(1, 100.0, 0.0)];
        let pairs = pair_migrations(&reports, MigrationThresholds::default());
        assert_eq!(pairs, vec![(InstanceId(0), InstanceId(1))]);
        // A terminating instance is never a destination.
        let mut term_free = report(0, f64::NEG_INFINITY, 0.0);
        term_free.terminating = true;
        let reports = vec![term_free, report(1, 5.0, 0.0)];
        let pairs = pair_migrations(&reports, MigrationThresholds::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn pairing_empty_when_balanced() {
        let reports = vec![report(0, 30.0, 0.0), report(1, 40.0, 0.0)];
        assert!(pair_migrations(&reports, MigrationThresholds::default()).is_empty());
    }

    #[test]
    fn autoscaler_requires_sustained_breach() {
        let cfg = AutoScaleConfig::paper_default(16);
        let mut s = AutoScaler::new(cfg);
        let t0 = SimTime::from_secs(100);
        assert_eq!(s.observe_counts(5.0, 4, 4, t0), None);
        // Recovers before the sustain period: no action.
        assert_eq!(
            s.observe_counts(30.0, 4, 4, t0 + SimDuration::from_secs(5)),
            None
        );
        assert_eq!(
            s.observe_counts(5.0, 4, 4, t0 + SimDuration::from_secs(6)),
            None
        );
        // Now sustained for 10 s.
        assert_eq!(
            s.observe_counts(5.0, 4, 4, t0 + SimDuration::from_secs(16)),
            Some(ScaleAction::Up)
        );
        // Timer reset after the action.
        assert_eq!(
            s.observe_counts(5.0, 5, 5, t0 + SimDuration::from_secs(17)),
            None
        );
    }

    #[test]
    fn autoscaler_scale_down_and_limits() {
        let cfg = AutoScaleConfig::paper_default(16);
        let mut s = AutoScaler::new(cfg);
        let t0 = SimTime::from_secs(0);
        assert_eq!(s.observe_counts(100.0, 2, 2, t0), None);
        assert_eq!(
            s.observe_counts(100.0, 2, 2, t0 + SimDuration::from_secs(10)),
            Some(ScaleAction::Down)
        );
        // At min instances, no scale-down fires.
        let mut s = AutoScaler::new(cfg);
        assert_eq!(s.observe_counts(100.0, 1, 1, t0), None);
        assert_eq!(
            s.observe_counts(100.0, 1, 1, t0 + SimDuration::from_secs(20)),
            None
        );
        // At max instances, no scale-up fires.
        let mut s = AutoScaler::new(cfg);
        assert_eq!(s.observe_counts(1.0, 16, 16, t0), None);
        assert_eq!(
            s.observe_counts(1.0, 16, 16, t0 + SimDuration::from_secs(20)),
            None
        );
    }

    #[test]
    fn threshold_sweep_builder() {
        let cfg = AutoScaleConfig::paper_default(16).with_threshold(25.0);
        assert_eq!(cfg.freeness_low, 25.0);
        assert_eq!(cfg.freeness_high, 75.0);
    }

    #[test]
    fn kind_properties() {
        assert!(SchedulerKind::Llumnix.uses_migration());
        assert!(SchedulerKind::LlumnixBase.uses_migration());
        assert!(!SchedulerKind::InfaasPlusPlus.uses_migration());
        assert!(SchedulerKind::Llumnix.uses_priorities());
        assert!(!SchedulerKind::LlumnixBase.uses_priorities());
        assert!(SchedulerKind::Centralized.has_central_stalls());
        assert_eq!(SchedulerKind::RoundRobin.label(), "round-robin");
    }
}
