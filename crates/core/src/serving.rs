//! The end-to-end serving simulation.
//!
//! [`ServingSim`] binds a workload trace, a cluster of engine instances
//! (wrapped in llumlets), the migration coordinator, and a scheduling policy
//! into one deterministic event-driven run. Every benchmark binary, example,
//! and integration test drives experiments through this type.
//!
//! The event loop mirrors the paper's architecture (§4.3): the global
//! scheduler dispatches new requests to the freest instance, periodically
//! pairs migration sources with destinations by freeness, and auto-scales on
//! the cluster-average freeness; llumlets make all per-request decisions
//! locally (admission, preemption, victim selection) and execute migrations
//! through the Figure 7 handshake.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use llumnix_engine::{
    EngineConfig, EngineEvent, InstanceEngine, InstanceId, PriorityPair, RequestId, RequestMeta,
    SeqState,
};
use llumnix_faults::{FaultKind, FaultPlan};
use llumnix_metrics::{FaultStats, RecordPriority, RequestRecord, SummaryAccumulator, TimeSeries};
use llumnix_migration::{
    AbortReason, CommitResult, CoordinatorStats, MigrationConfig, MigrationCoordinator,
    MigrationId, StageOutcome, StartOutcome,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{EventQueue, SimDuration, SimTime};
use llumnix_workload::Trace;

use crate::central::{CentralScheduler, CentralSchedulerModel};
use crate::index::{DispatchIndex, IndexPolicy};
use crate::llumlet::Llumlet;
use crate::policy::{
    AutoScaleConfig, AutoScaler, Dispatcher, MigrationThresholds, ScaleAction, SchedulerKind,
    VictimPolicy,
};
use crate::store::InstanceStore;
use crate::virtual_usage::{HeadroomConfig, QueuingRule};

/// Full configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Scheduling policy under test.
    pub scheduler: SchedulerKind,
    /// Instance type for every instance.
    pub spec: InstanceSpec,
    /// Engine tunables.
    pub engine: EngineConfig,
    /// Migration tunables.
    pub migration: MigrationConfig,
    /// Instances at t = 0.
    pub initial_instances: u32,
    /// Execution-priority headroom (only honored by `Llumnix`).
    pub headroom: HeadroomConfig,
    /// How often migration pairing re-runs.
    pub migration_interval: SimDuration,
    /// Freeness thresholds for pairing.
    pub migration_thresholds: MigrationThresholds,
    /// Which request a source llumlet migrates out first.
    pub victim_policy: VictimPolicy,
    /// Auto-scaling configuration, if enabled.
    pub autoscale: Option<AutoScaleConfig>,
    /// Timeline sampling (and scaling-observation) interval.
    pub sample_interval: SimDuration,
    /// Centralized-scheduler stall model (used by `Centralized` only).
    pub central: CentralSchedulerModel,
    /// Fault schedule replayed as first-class events (crashes, stragglers,
    /// migration-link failures, global-scheduler outages), seeded with
    /// [`FaultPlan::generate`] or scripted with [`FaultPlan::from_faults`].
    /// Empty by default. Requests lost to a crash are *re-dispatched*
    /// through the main dispatcher, not aborted.
    pub fault_plan: FaultPlan,
    /// Hard wall-clock cap on the simulation (guards runaway configs).
    pub max_sim_time: SimTime,
}

impl ServingConfig {
    /// A sensible default: `n` LLaMA-7B instances, no auto-scaling.
    pub fn new(scheduler: SchedulerKind, n: u32) -> Self {
        ServingConfig {
            scheduler,
            spec: InstanceSpec::llama_7b_a10(),
            engine: EngineConfig::default(),
            migration: MigrationConfig::default(),
            initial_instances: n,
            headroom: if scheduler.uses_priorities() {
                HeadroomConfig::paper_default()
            } else {
                HeadroomConfig::DISABLED
            },
            migration_interval: SimDuration::from_millis(100),
            migration_thresholds: MigrationThresholds::default(),
            victim_policy: VictimPolicy::default(),
            autoscale: None,
            sample_interval: SimDuration::from_secs(1),
            central: CentralSchedulerModel::default(),
            fault_plan: FaultPlan::empty(),
            max_sim_time: SimTime::from_secs(24 * 3600),
        }
    }

    /// Enables auto-scaling.
    pub fn with_autoscale(mut self, cfg: AutoScaleConfig) -> Self {
        self.autoscale = Some(cfg);
        self
    }

    /// Replays a seeded fault schedule during the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Uses a different instance spec.
    pub fn with_spec(mut self, spec: InstanceSpec) -> Self {
        self.spec = spec;
        self
    }
}

/// Everything measured by one serving run.
#[derive(Debug, Clone)]
pub struct ServingOutput {
    /// Scheduler that produced this output.
    pub scheduler: SchedulerKind,
    /// One record per completed request.
    pub records: Vec<RequestRecord>,
    /// Requests aborted: their footprint can never fit an instance, or no
    /// dispatch target existed when they were redispatched.
    pub aborted: u64,
    /// Fragmented-memory proportion over time (Figure 12's definition).
    pub fragmentation: TimeSeries,
    /// Total free blocks over time (Figure 5).
    pub free_blocks: TimeSeries,
    /// Head-of-line demands satisfiable by total free memory (Figure 5).
    pub hol_satisfiable: TimeSeries,
    /// Total queued requests over time.
    pub queued: TimeSeries,
    /// Alive instance count over time (cost metric, Figures 14/15).
    pub instances: TimeSeries,
    /// Time-weighted average instance count.
    pub avg_instances: f64,
    /// Migration counters.
    pub migration_stats: CoordinatorStats,
    /// Scheduling-stall summary per engine step, in seconds (Figure 16).
    pub stalls: llumnix_metrics::Summary,
    /// Batch sizes of decode steps that contained a high-execution-priority
    /// request (diagnostic for the §6.4 isolation mechanism).
    pub high_step_batches: llumnix_metrics::Summary,
    /// When the last request finished.
    pub makespan: SimTime,
    /// Simulation events processed by the event loop (throughput metric).
    pub events_processed: u64,
    /// Failure/recovery accounting for the fault-injection subsystem.
    pub fault_stats: FaultStats,
}

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival(usize),
    StepDone(InstanceId),
    MigrationStage(MigrationId),
    MigrationCommit(MigrationId),
    MigrationTick,
    Sample,
    PlannedFault(usize),
    InstanceRestart,
}

/// The running simulation.
///
/// `Clone` is derived: a clone is a structural copy of every field, the
/// basis of [`ServingSim::snapshot`]. The audit rejects a hand-written
/// `Clone` in the simulation crates, so a field added later cannot be left
/// out of a snapshot.
#[derive(Clone)]
pub struct ServingSim {
    config: ServingConfig,
    trace: Trace,
    high_ids: BTreeSet<u64>,
    queue: EventQueue<Event>,
    now: SimTime,
    store: InstanceStore,
    index: DispatchIndex,
    /// Effective headroom config for this run (constant: derived from the
    /// scheduler kind and config only).
    headroom: HeadroomConfig,
    /// Under the `Gradual` queuing rule reports drift with time alone, so
    /// every refresh must revisit the whole fleet instead of the dirty set.
    refresh_all: bool,
    /// `(serving_from, id)` for instances still in their startup delay: the
    /// starting → serving transition happens by time passing, not by an
    /// engine event, so the refresh re-checks them when their deadline hits.
    starting_queue: Vec<(SimTime, InstanceId)>,
    dirty_scratch: Vec<InstanceId>,
    next_instance: u32,
    dispatcher: Dispatcher,
    bypass_dispatcher: Dispatcher,
    coordinator: MigrationCoordinator,
    /// Current migration pairing (source → destination). A `BTreeMap` so the
    /// per-tick `continue_pair` sweep visits sources in id order: the sweep
    /// pushes stage events whose timestamps can collide, and the queue breaks
    /// ties by push order, so the visit order is part of the schedule.
    pairs: BTreeMap<InstanceId, InstanceId>,
    scaler: Option<AutoScaler>,
    central: CentralScheduler,
    /// The global scheduler is down until this time (§5). Overlapping
    /// outages keep the later end.
    scheduler_down_until: SimTime,
    undispatched: VecDeque<usize>,
    records: Vec<RequestRecord>,
    aborted: u64,
    stalls_acc: SummaryAccumulator,
    fragmentation: TimeSeries,
    free_blocks: TimeSeries,
    hol_satisfiable: TimeSeries,
    queued: TimeSeries,
    instances_ts: TimeSeries,
    arrivals_done: bool,
    makespan: SimTime,
    /// Failure/recovery counters for the fault-injection subsystem.
    fault_stats: FaultStats,
    /// First-token-after-crash latencies for redispatched requests.
    recovery_acc: SummaryAccumulator,
    /// Request id → time of the crash that lost it (drained into
    /// `recovery_acc` when the redispatched request produces a token).
    crash_lost_at: BTreeMap<u64, SimTime>,
    /// Instances whose migration link is down, and until when.
    link_down_until: BTreeMap<InstanceId, SimTime>,
    /// Straggling instances: id → (expiry, latency factor).
    slow_until: BTreeMap<InstanceId, (SimTime, f64)>,
    high_batch_acc: SummaryAccumulator,
    order_scratch: Vec<InstanceId>,
    events_processed: u64,
    /// Effective periodic-tick intervals: the configured intervals times the
    /// fleet-size coarsening factor (see [`tick_scale`]). Constant for a run.
    sample_interval: SimDuration,
    migration_interval: SimDuration,
    /// Initial events (arrivals, ticks, fault chain) have been seeded. Flips
    /// on the first `run`/`run_until` call, so a snapshot taken before any
    /// progress forks cleanly.
    seeded: bool,
    /// The run crossed `max_sim_time` and must not process further events.
    halted: bool,
}

/// A deterministic snapshot of a running [`ServingSim`].
///
/// Structurally a deep copy of every piece of simulation state: the event
/// queue (its heap plus the sequence counter), the instance store with
/// every engine's batches and block ledgers, the dispatch index, the
/// migration coordinator's reservations and handshake stages, the fault
/// maps, and all metric accumulators. There is no hidden ambient state to
/// miss: the deterministic crates ban wall-clock reads and unordered
/// iteration statically (clippy, DESIGN.md §8), and all randomness (trace,
/// fault plans) is expanded before t = 0.
///
/// The resume invariant: for any point `t` between two events,
/// `snapshot` → [`ServingSim::resume`] → run-to-completion produces the
/// byte-identical [`ServingOutput`] the uninterrupted run produces, at any
/// `--threads` setting (DESIGN.md §13).
#[derive(Clone)]
pub struct SimSnapshot {
    state: Box<ServingSim>,
}

/// Coarsening factor for the periodic sampling and migration ticks.
///
/// Per-tick work grows linearly with the fleet, so at a fixed tick rate the
/// tick overhead grows linearly too while each instance's own state changes
/// no faster. Doubling the interval per fleet-size doubling past 256 keeps
/// the *per-instance* tick work constant. The factor is exactly 1 up to 256
/// instances, so every default-config figure keeps a byte-identical schedule
/// (DESIGN.md §7.3/§7.4).
fn tick_scale(instances: u32) -> u64 {
    u64::from(instances.div_ceil(256).next_power_of_two())
}

impl ServingSim {
    /// Builds a simulation over `trace`.
    pub fn new(config: ServingConfig, trace: Trace) -> Self {
        assert!(config.initial_instances > 0, "need at least one instance");
        let scale = tick_scale(config.initial_instances);
        let high_ids = trace
            .requests
            .iter()
            .filter(|r| r.high_priority)
            .map(|r| r.id)
            .collect();
        let headroom = effective_headroom(&config);
        // First point where the headroom config meets a concrete instance
        // spec: a target above the KV capacity would silently clamp to zero
        // headroom (see `HeadroomConfig::headroom_for`); fail loudly here.
        headroom.validate_for_capacity(config.spec.geometry.capacity_tokens());
        let refresh_all = matches!(headroom.queuing_rule, QueuingRule::Gradual { .. });
        let index = DispatchIndex::new(IndexPolicy::for_run(
            config.scheduler,
            config.autoscale.is_some(),
        ));
        let mut sim = ServingSim {
            coordinator: MigrationCoordinator::new(config.migration.clone()),
            central: CentralScheduler::new(config.central),
            scaler: config.autoscale.map(AutoScaler::new),
            sample_interval: config.sample_interval.saturating_mul(scale),
            migration_interval: config.migration_interval.saturating_mul(scale),
            config,
            trace,
            high_ids,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            store: InstanceStore::new(),
            index,
            headroom,
            refresh_all,
            starting_queue: Vec::new(),
            dirty_scratch: Vec::new(),
            next_instance: 0,
            dispatcher: Dispatcher::new(),
            bypass_dispatcher: Dispatcher::new(),
            pairs: BTreeMap::new(),
            scheduler_down_until: SimTime::ZERO,
            undispatched: VecDeque::new(),
            records: Vec::new(),
            aborted: 0,
            stalls_acc: SummaryAccumulator::new(),
            fragmentation: TimeSeries::new("fragmentation"),
            free_blocks: TimeSeries::new("free_blocks"),
            hol_satisfiable: TimeSeries::new("hol_satisfiable"),
            queued: TimeSeries::new("queued"),
            instances_ts: TimeSeries::new("instances"),
            arrivals_done: false,
            makespan: SimTime::ZERO,
            fault_stats: FaultStats::default(),
            recovery_acc: SummaryAccumulator::new(),
            crash_lost_at: BTreeMap::new(),
            link_down_until: BTreeMap::new(),
            slow_until: BTreeMap::new(),
            high_batch_acc: SummaryAccumulator::new(),
            order_scratch: Vec::new(),
            events_processed: 0,
            seeded: false,
            halted: false,
        };
        for _ in 0..sim.config.initial_instances {
            sim.launch_instance(SimTime::ZERO, None);
        }
        sim
    }

    /// Runs the simulation to completion and returns the measurements.
    pub fn run(mut self) -> ServingOutput {
        self.ensure_seeded();
        self.run_events_until(None);
        self.into_output()
    }

    /// Advances the simulation until the next event would fire at or after
    /// `until`, and returns the simulation time reached. Seeds the initial
    /// events on the first call; [`Self::run`] completes the run afterwards.
    ///
    /// The snapshot/fork workflow: `run_until(t)`, [`Self::snapshot`] the
    /// warm prefix, then [`Self::resume`] each fork — optionally activating
    /// a fault plan via [`Self::activate_faults`] — and `run` it to
    /// completion.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.ensure_seeded();
        self.run_events_until(Some(until));
        self.now
    }

    /// Captures the current state as a deterministic [`SimSnapshot`].
    ///
    /// Callable whenever the caller has control (the sim is then always
    /// between events). Cost: one structural deep copy — no serialization
    /// (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            state: Box::new(self.clone()),
        }
    }

    /// Reconstructs an independent simulation from a snapshot. The resumed
    /// run continues byte-identically to the run the snapshot was taken
    /// from; resuming the same snapshot repeatedly forks independent runs.
    pub fn resume(snapshot: &SimSnapshot) -> ServingSim {
        (*snapshot.state).clone()
    }

    /// Activates a fault plan on a (possibly resumed) simulation whose
    /// config carried none — the forked-sweep path for sharing a fault-free
    /// warmup across fault arms.
    ///
    /// The injected `PlannedFault(0)` event takes the tie-break slot below
    /// every pending event, exactly where seeding would have put it, so a
    /// fork that activates a plan matches the cold run configured with the
    /// same plan from t = 0 — provided every planned fault fires strictly
    /// after the fork point (build seeded plans with
    /// [`llumnix_faults::FaultPlanConfig::with_start_offset`], and script
    /// entries after it).
    pub fn activate_faults(&mut self, plan: FaultPlan) {
        assert!(
            self.config.fault_plan.get(0).is_none(),
            "activate_faults on a sim that already has a fault plan"
        );
        let Some(first) = plan.get(0).copied() else {
            return; // Empty plan: nothing to schedule (the "none" arm).
        };
        assert!(
            first.at >= self.now,
            "fault plan begins at {:?}, before the fork point {:?}",
            first.at,
            self.now
        );
        self.config.fault_plan = plan;
        if self.seeded {
            self.queue
                .push_below_pending(first.at, Event::PlannedFault(0));
        }
        // Not seeded yet: seed_events picks the plan up normally.
    }

    fn ensure_seeded(&mut self) {
        if self.seeded {
            return;
        }
        self.seeded = true;
        if self.trace.is_empty() {
            self.halted = true;
            return;
        }
        self.seed_events();
    }

    fn run_events_until(&mut self, until: Option<SimTime>) {
        while !self.halted {
            let Some(t) = self.queue.peek_time() else {
                break;
            };
            if until.is_some_and(|u| t >= u) {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked above");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            if self.now > self.config.max_sim_time {
                self.halted = true;
                break;
            }
            self.handle(event);
        }
    }

    fn seed_events(&mut self) {
        // The fault chain seeds first, before any same-instant arrival or
        // tick, so `PlannedFault(0)` holds the lowest pending sequence
        // number — the slot `activate_faults` reproduces when a fork injects
        // a plan mid-run. (A uniform seq shift of the other seeds, so their
        // relative order — and every fault-free schedule — is unchanged.)
        if let Some(first) = self.config.fault_plan.get(0) {
            // Planned faults chain like arrivals: exactly one in-queue event
            // at a time, so a long fault horizon cannot keep a drained
            // simulation alive.
            self.queue.push(first.at, Event::PlannedFault(0));
        }
        self.queue
            .push(self.trace.requests[0].arrival, Event::Arrival(0));
        self.queue
            .push(SimTime::ZERO + self.sample_interval, Event::Sample);
        if self.config.scheduler.uses_migration() {
            self.queue.push(
                SimTime::ZERO + self.migration_interval,
                Event::MigrationTick,
            );
        }
    }

    fn into_output(self) -> ServingOutput {
        // Teardown ledger checks. Each is one pass, once per run, so they
        // are hard asserts rather than debug-only. No leaked blocks: every
        // surviving engine's per-request block ledger must still reconcile
        // with its allocator, crashes and aborts included.
        for (id, l) in self.store.iter() {
            assert!(
                l.engine.check_invariants(),
                "engine {id:?} block ledger inconsistent at shutdown"
            );
        }
        // Every request a crash lost was redispatched or aborted.
        assert!(
            self.fault_stats.consistent(),
            "fault ledger inconsistent at shutdown: {:?}",
            self.fault_stats
        );
        // Every request completed or aborted, unless the run halted at
        // `max_sim_time` with work still in flight.
        if !self.halted {
            assert_eq!(
                self.records.len() as u64 + self.aborted,
                self.trace.len() as u64,
                "request ledger inconsistent at shutdown: {} records + {} aborted",
                self.records.len(),
                self.aborted
            );
        }
        let mut fault_stats = self.fault_stats;
        fault_stats.recovery_latency = self.recovery_acc.finish();
        let avg_instances = self.instances_ts.time_weighted_mean();
        ServingOutput {
            scheduler: self.config.scheduler,
            records: self.records,
            aborted: self.aborted,
            fragmentation: self.fragmentation,
            free_blocks: self.free_blocks,
            hol_satisfiable: self.hol_satisfiable,
            queued: self.queued,
            instances: self.instances_ts,
            avg_instances,
            migration_stats: *self.coordinator.stats(),
            stalls: self.stalls_acc.finish(),
            high_step_batches: self.high_batch_acc.finish(),
            makespan: self.makespan,
            events_processed: self.events_processed,
            fault_stats,
        }
    }

    // ---- event handling ----------------------------------------------------

    fn handle(&mut self, event: Event) {
        self.events_processed += 1;
        match event {
            Event::Arrival(i) => self.on_arrival(i),
            Event::StepDone(id) => self.on_step_done(id),
            Event::MigrationStage(mid) => self.on_migration_stage(mid),
            Event::MigrationCommit(mid) => self.on_migration_commit(mid),
            Event::MigrationTick => self.on_migration_tick(),
            Event::Sample => self.on_sample(),
            Event::PlannedFault(i) => self.on_planned_fault(i),
            Event::InstanceRestart => {
                self.launch_instance(self.now, None);
            }
        }
    }

    fn on_arrival(&mut self, index: usize) {
        if index + 1 < self.trace.requests.len() {
            let next = self
                .trace
                .requests
                .get(index + 1)
                .expect("bounds-checked above");
            self.queue.push(next.arrival, Event::Arrival(index + 1));
        } else {
            self.arrivals_done = true;
        }
        self.dispatch(index);
    }

    /// Selects a dispatch target off the incremental index (after refreshing
    /// it), falling back to scheduler-bypass round-robin while the global
    /// scheduler is down (§5). Debug builds cross-check the index's choice
    /// against a from-scratch rescan of fresh reports.
    fn dispatch_target(&mut self, high: bool) -> Option<InstanceId> {
        self.refresh_fleet();
        #[cfg(debug_assertions)]
        let expected = {
            // Clones so the comparison dispatch does not advance the real
            // round-robin counters.
            let reports = self.reports();
            if self.scheduler_down() {
                self.bypass_dispatcher
                    .clone()
                    .dispatch(SchedulerKind::RoundRobin, &reports)
            } else {
                self.dispatcher
                    .clone()
                    .dispatch_for(self.config.scheduler, &reports, high)
            }
        };
        let target = if self.scheduler_down() {
            // Scheduler-bypass mode (§5): frontends use a simple round-robin
            // rule directly.
            self.bypass_dispatcher
                .dispatch_indexed(SchedulerKind::RoundRobin, &self.index, false)
        } else {
            self.dispatcher
                .dispatch_indexed(self.config.scheduler, &self.index, high)
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(target, expected, "index diverged from rescan");
        target
    }

    fn dispatch(&mut self, index: usize) {
        let r = self.trace.requests[index];
        let high = self.config.scheduler.uses_priorities() && r.high_priority;
        let Some(target) = self.dispatch_target(high) else {
            self.undispatched.push_back(index);
            return;
        };
        let priority = if high {
            PriorityPair::HIGH
        } else {
            PriorityPair::NORMAL
        };
        let meta = RequestMeta {
            id: RequestId(r.id),
            input_len: r.input_len,
            output_len: r.output_len,
            priority,
            arrival: r.arrival,
        };
        let llumlet = self.store.get_mut(target).expect("dispatch target");
        llumlet.engine.add_request(meta, self.now);
        self.kick(target);
    }

    fn on_step_done(&mut self, id: InstanceId) {
        let Some(llumlet) = self.store.get_mut(id) else {
            return; // Instance failed mid-step.
        };
        let events = llumlet.engine.complete_step(self.now);
        if needs_collect(llumlet) {
            self.collect_finished(id);
        }
        self.route_engine_events(id, events);
        self.kick(id);
    }

    fn route_engine_events(&mut self, id: InstanceId, events: Vec<EngineEvent>) {
        for ev in events {
            self.route_engine_event(id, ev);
        }
    }

    fn route_engine_event(&mut self, id: InstanceId, ev: EngineEvent) {
        match ev {
            EngineEvent::FirstToken(_) => {}
            EngineEvent::Finished(req) => {
                self.abort_migration_of(req, AbortReason::RequestFinished);
            }
            EngineEvent::Preempted(req) => {
                self.abort_migration_of(req, AbortReason::RequestPreempted);
            }
            EngineEvent::Drained(req) => {
                // The drain routes in the event that produced it, so the
                // instance is normally live; if it is gone, its migration
                // went with it and there is nothing to commit.
                let Some(llumlet) = self.store.get_mut(id) else {
                    return;
                };
                match self
                    .coordinator
                    .on_drained(req, &mut llumlet.engine, self.now)
                {
                    Some((mid, commit_at)) => {
                        self.queue.push(commit_at, Event::MigrationCommit(mid));
                    }
                    None => {
                        // The migration that requested this drain was
                        // aborted in the meantime; resume the request.
                        llumlet.engine.undrain(req);
                    }
                }
            }
            EngineEvent::Aborted(_) => {
                self.aborted += 1;
            }
        }
    }

    fn on_migration_stage(&mut self, mid: MigrationId) {
        let Some((src, dst)) = self.coordinator.endpoints(mid) else {
            return; // Aborted earlier; stale event.
        };
        let impaired = self.link_impaired(src) || self.link_impaired(dst);
        let Some((se, de)) = self.store.two_engines(src, dst) else {
            return;
        };
        if impaired {
            // The copy for this stage cannot complete over a dead link:
            // abort at the stage boundary. (A commit whose final copy
            // already finished still lands — only in-flight copies die.)
            self.coordinator.abort(mid, se, de, AbortReason::LinkFailed);
            self.fault_stats.aborts_link_failed += 1;
            self.kick(dst);
            self.kick(src);
            self.continue_pair(src);
            return;
        }
        let outcome = self.coordinator.on_stage_done(mid, se, de, self.now);
        match outcome {
            Some(StageOutcome::NextStage { copy_done_at }) => {
                self.queue.push(copy_done_at, Event::MigrationStage(mid));
            }
            Some(StageOutcome::FinalCopy { commit_at }) => {
                self.queue.push(commit_at, Event::MigrationCommit(mid));
            }
            Some(StageOutcome::DrainRequested) | None => {}
            Some(StageOutcome::Aborted(_)) => {
                // Space may have been released on the destination.
                self.kick(dst);
                self.kick(src);
                self.continue_pair(src);
            }
        }
    }

    fn on_migration_commit(&mut self, mid: MigrationId) {
        let Some((src, dst)) = self.coordinator.endpoints(mid) else {
            return;
        };
        let Some((se, de)) = self.store.two_engines(src, dst) else {
            return;
        };
        match self.coordinator.on_commit(mid, se, de, self.now) {
            CommitResult::Committed(_) => {
                self.kick(dst);
                self.kick(src);
                self.continue_pair(src);
                self.maybe_finish_termination(src);
                self.maybe_finish_termination(dst);
            }
            CommitResult::AbortedAtCommit(_) => {
                // The reservation was released on the destination; the source
                // keeps (or already finished) the request.
                self.kick(dst);
                self.kick(src);
                self.continue_pair(src);
            }
            CommitResult::Stale => {}
        }
    }

    fn on_migration_tick(&mut self) {
        if !self.scheduler_down() {
            self.refresh_fleet();
            let pairs = self.index.pair(self.config.migration_thresholds);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                pairs,
                crate::policy::pair_migrations(&self.reports(), self.config.migration_thresholds),
                "index pairing diverged from rescan"
            );
            self.pairs = pairs.into_iter().collect();
            let sources: Vec<InstanceId> = self.pairs.keys().copied().collect();
            for src in sources {
                self.continue_pair(src);
            }
        }
        if !self.finished_serving() {
            self.queue
                .push(self.now + self.migration_interval, Event::MigrationTick);
        }
    }

    /// Starts the next migration from `src` if its pair is set and it has no
    /// migration in flight (llumlets migrate continuously, one at a time).
    fn continue_pair(&mut self, src: InstanceId) {
        let Some(&dst) = self.pairs.get(&src) else {
            return;
        };
        if self.coordinator.is_migration_source(src) {
            return;
        }
        if self.link_impaired(src) || self.link_impaired(dst) {
            // No new migrations over a downed link; the pairing tick retries
            // once the outage expires.
            return;
        }
        let Some(llumlet) = self.store.get(src) else {
            return;
        };
        let coordinator = &self.coordinator;
        let Some(victim) = llumlet.select_migration_victim_with(self.config.victim_policy, |id| {
            coordinator.is_migrating(id)
        }) else {
            return;
        };
        let Some((se, de)) = self.store.two_engines(src, dst) else {
            return;
        };
        match self.coordinator.start(victim, se, de, self.now) {
            StartOutcome::Started { id, stage_done_at } => {
                self.queue.push(stage_done_at, Event::MigrationStage(id));
            }
            StartOutcome::Refused(_) => {}
        }
    }

    fn on_sample(&mut self) {
        // Expired fault effects cost a map probe per kick; drop them here so
        // the maps stay proportional to the *active* fault set.
        let now = self.now;
        self.slow_until.retain(|_, &mut (until, _)| until > now);
        self.link_down_until.retain(|_, &mut until| until > now);
        self.sample_timelines();
        self.autoscale();
        self.retry_undispatched();
        // Safety net: kick everything (cheap at the sampling rate). Kicks can
        // remove instances from `self.order` (termination), so iterate a
        // snapshot — taken into a persistent scratch buffer rather than a
        // fresh clone per sample.
        let mut snapshot = std::mem::take(&mut self.order_scratch);
        snapshot.clear();
        snapshot.extend_from_slice(self.store.order());
        for &id in &snapshot {
            self.kick(id);
        }
        self.order_scratch = snapshot;
        if !self.finished_serving() {
            self.queue
                .push(self.now + self.sample_interval, Event::Sample);
        }
    }

    // ---- fault injection ---------------------------------------------------

    fn on_planned_fault(&mut self, i: usize) {
        if self.finished_serving() {
            // The trace has drained: faults on an idle fleet are moot, and
            // not re-arming here lets the event queue drain normally.
            return;
        }
        if let Some(next) = self.config.fault_plan.get(i + 1) {
            self.queue.push(next.at, Event::PlannedFault(i + 1));
        }
        let fault = *self.config.fault_plan.get(i).expect("plan index in range");
        let Some(target) = self.fault_target(fault.target_rank) else {
            return;
        };
        match fault.kind {
            FaultKind::Crash { restart_after } => {
                if self.store.len() <= 1 {
                    // Never crash the last instance: the fleet must be able
                    // to make progress. Counted so benches can reconcile.
                    self.fault_stats.crashes_skipped += 1;
                    return;
                }
                self.fault_stats.crashes += 1;
                self.crash_instance(target);
                if let Some(delay) = restart_after {
                    self.queue.push(self.now + delay, Event::InstanceRestart);
                }
            }
            FaultKind::Slowdown { factor, duration } => {
                self.fault_stats.slowdowns += 1;
                self.slow_down(target, self.now + duration, factor);
            }
            FaultKind::LinkFailure { duration } => {
                self.fault_stats.link_failures += 1;
                let until = self.now + duration;
                let entry = self.link_down_until.entry(target).or_insert(SimTime::ZERO);
                *entry = (*entry).max(until);
            }
            FaultKind::SchedulerOutage { duration } => {
                self.fault_stats.scheduler_outages += 1;
                self.scheduler_down_until = self.scheduler_down_until.max(self.now + duration);
            }
        }
    }

    /// Resolves a planned fault's abstract rank against the live roster:
    /// insertion-order walk, modulo the current fleet size. Keeps the plan
    /// itself fleet-agnostic while the pick stays fully deterministic. On a
    /// fleet that has lost no instance, rank `k < n` is `InstanceId(k)`,
    /// which is how a scripted plan names its target.
    fn fault_target(&self, rank: u64) -> Option<InstanceId> {
        let order = self.store.order();
        if order.is_empty() {
            return None;
        }
        Some(order[(rank % order.len() as u64) as usize])
    }

    /// Makes `id` a straggler until `until`. Overlapping slowdowns keep the
    /// later expiry and the worse factor.
    fn slow_down(&mut self, id: InstanceId, until: SimTime, factor: f64) {
        let entry = self.slow_until.entry(id).or_insert((SimTime::ZERO, 1.0));
        entry.0 = entry.0.max(until);
        if factor > entry.1 {
            entry.1 = factor;
        }
    }

    /// True while the global scheduler is down: dispatch bypasses it, and
    /// migration pairing and auto-scaling pause.
    fn scheduler_down(&self) -> bool {
        self.now < self.scheduler_down_until
    }

    /// True while `id`'s migration link is down.
    fn link_impaired(&self, id: InstanceId) -> bool {
        self.link_down_until
            .get(&id)
            .is_some_and(|&until| self.now < until)
    }

    /// Kills `id` as a planned crash. The requests the instance held are
    /// re-dispatched through the main dispatcher — same round-robin state
    /// and priority-class routing as a fresh arrival, against freshly
    /// recomputed virtual usage — and only abort if no dispatch target
    /// exists.
    fn crash_instance(&mut self, id: InstanceId) {
        let metas = self.teardown_failed_instance(id);
        self.fault_stats.requests_lost += metas.len() as u64;
        for meta in metas {
            self.crash_lost_at.insert(meta.id.0, self.now);
            if self.redispatch(meta) {
                self.fault_stats.requests_redispatched += 1;
            } else {
                self.fault_stats.requests_lost_aborted += 1;
                self.crash_lost_at.remove(&meta.id.0);
            }
        }
        self.sample_instances();
    }

    /// Dead-instance teardown: aborts in-flight migrations touching
    /// `id` via the Figure 7 failure paths (counting each abort reason),
    /// evicts it from the dispatch index, the pairing table, and the fault
    /// maps, and returns the metas of every request it held — running batch,
    /// pending prefills, queue, and draining set — in the engine's
    /// deterministic roster order.
    fn teardown_failed_instance(&mut self, id: InstanceId) -> Vec<RequestMeta> {
        let mut peers = self.store.peers_mut(id);
        let aborted_migrations = self.coordinator.abort_for_failed_instance(id, &mut peers);
        drop(peers);
        for (_, _, reason) in &aborted_migrations {
            match reason {
                AbortReason::SourceFailed => self.fault_stats.aborts_source_failed += 1,
                AbortReason::DestinationFailed => self.fault_stats.aborts_destination_failed += 1,
                _ => {}
            }
        }
        let llumlet = self.store.remove(id).expect("teardown of live instance");
        self.index.remove(id);
        self.pairs.remove(&id);
        self.pairs.retain(|_, d| *d != id);
        self.slow_until.remove(&id);
        self.link_down_until.remove(&id);
        llumlet
            .engine
            .tracked_ids()
            .iter()
            .map(|&rid| {
                llumlet
                    .engine
                    .state(rid)
                    .expect("tracked id has state")
                    .meta
            })
            .collect()
    }

    // ---- helpers -----------------------------------------------------------

    fn launch_instance(&mut self, now: SimTime, startup: Option<SimDuration>) -> InstanceId {
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let engine = InstanceEngine::new(id, self.config.spec.clone(), self.config.engine.clone());
        let starting_until = startup.map(|d| now + d);
        // `insert` marks the instance dirty, so the next refresh indexes it
        // and, if it is still starting, queues its online re-check.
        self.store
            .insert(id, Llumlet::new(engine, now, starting_until));
        self.sample_instances();
        id
    }

    /// Brings the dispatch index up to date with every instance that could
    /// have changed since the last decision: the store's dirty set (every
    /// mutable access marks), plus starting instances whose startup deadline
    /// passed (a time-driven transition no engine event covers). Reports are
    /// version-cached per llumlet, so over-marking costs a cache probe, not
    /// a recompute.
    fn refresh_fleet(&mut self) {
        let mut i = 0;
        while i < self.starting_queue.len() {
            if self.starting_queue[i].0 <= self.now {
                let (_, id) = self.starting_queue.swap_remove(i);
                let _ = self.store.get_mut(id); // marks dirty if still live
            } else {
                i += 1;
            }
        }
        if self.refresh_all {
            for i in 0..self.store.order().len() {
                let id = self.store.order()[i];
                let _ = self.store.get_mut(id);
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        self.store.take_dirty(&mut dirty);
        for &id in &dirty {
            let Some(l) = self.store.get(id) else {
                // Removed after being marked; drop any stale entry.
                self.index.remove(id);
                continue;
            };
            let report = l.report(self.now, &self.headroom);
            if self.index.update(&report).became_starting {
                let until = l.starting_until.expect("starting implies deadline");
                self.starting_queue.push((until, id));
            }
        }
        self.dirty_scratch = dirty;
        // No-op when the index saw no membership change.
        self.index.sync_order(self.store.order());
    }

    /// From-scratch load reports in fleet order — the rescan the index
    /// replaces, kept as the debug-build reference for the equivalence
    /// asserts.
    #[cfg(debug_assertions)]
    fn reports(&self) -> Vec<crate::policy::LoadReport> {
        self.store
            .iter()
            .map(|(_, l)| l.report(self.now, &self.headroom))
            .collect()
    }

    /// Polls an instance for its next step and schedules its completion.
    fn kick(&mut self, id: InstanceId) {
        let Some(llumlet) = self.store.get_mut(id) else {
            return;
        };
        if llumlet.is_starting(self.now) {
            return;
        }
        if let Some(plan) = llumlet.engine.poll_step(self.now) {
            // A decode step is planned only when no admitted request awaits
            // prefill, so its batch is exactly the engine's residents.
            if plan.kind == llumnix_engine::StepKind::Decode && llumlet.engine.resident_high() > 0 {
                self.high_batch_acc
                    .observe(llumlet.engine.in_flight_len() as f64);
            }
            let mut finish = plan.finish_at();
            if self.config.scheduler.has_central_stalls() {
                let tracked = llumlet.engine.batch_size() + llumlet.engine.waiting_len();
                let stall = self.central.request_decision(self.now, tracked);
                self.stalls_acc.observe(stall.as_secs_f64());
                finish += stall;
            } else {
                self.stalls_acc.observe(0.0);
            }
            // A straggling instance stretches its whole step (compute and
            // any stall) by the slowdown factor until the fault expires.
            if let Some(&(until, factor)) = self.slow_until.get(&id) {
                if self.now < until {
                    finish = self.now + finish.since(self.now).mul_f64(factor);
                }
            }
            self.queue.push(finish, Event::StepDone(id));
        }
        let pending = llumlet.engine.take_pending_events();
        if !pending.is_empty() || needs_collect(llumlet) {
            self.route_engine_events(id, pending);
            self.collect_finished(id);
        }
    }

    /// Records the instance's finished requests and removes it if it is
    /// terminating and done. Callers skip it when [`needs_collect`] says it
    /// would do nothing.
    fn collect_finished(&mut self, id: InstanceId) {
        let Some(llumlet) = self.store.get_mut(id) else {
            return;
        };
        let finished = llumlet.engine.take_finished();
        for state in finished {
            self.apply_finished(state);
        }
        self.maybe_finish_termination(id);
    }

    /// Records one finished request.
    fn apply_finished(&mut self, state: SeqState) {
        if state.aborted {
            // Counted via the Aborted event; no latency record.
            return;
        }
        debug_assert!(state.first_token_at.is_some(), "completed without prefill");
        if let Some(lost_at) = self.crash_lost_at.remove(&state.meta.id.0) {
            // Recovery latency: from the crash that lost the request to
            // its first token after redispatch (fresh queueing+prefill).
            let first = state.first_token_at.expect("checked above");
            self.recovery_acc
                .observe(first.since(lost_at).as_secs_f64());
        }
        let record = self.to_record(&state);
        self.makespan = self.makespan.max(state.finished_at.unwrap_or(self.now));
        self.records.push(record);
    }

    fn to_record(&self, s: &SeqState) -> RequestRecord {
        let priority = if self.high_ids.contains(&s.meta.id.0) {
            RecordPriority::High
        } else {
            RecordPriority::Normal
        };
        RequestRecord {
            id: s.meta.id.0,
            priority,
            input_len: s.meta.input_len,
            output_len: s.generated,
            arrival: s.meta.arrival,
            first_token: s.first_token_at.expect("completed request"),
            finish: s.finished_at.expect("completed request"),
            preemptions: s.preemptions,
            preemption_loss: s.preemption_loss,
            migrations: s.migrations,
            migration_downtime: s.migration_downtime,
            decode_compute: s.decode_compute,
            max_token_gap: s.max_token_gap,
        }
    }

    fn abort_migration_of(&mut self, req: RequestId, reason: AbortReason) {
        let Some((mid, src, dst)) = self.coordinator.lookup_by_request(req) else {
            return;
        };
        if let Some((se, de)) = self.store.two_engines(src, dst) {
            self.coordinator.abort(mid, se, de, reason);
            self.kick(dst);
        }
    }

    // ---- sampling & scaling -------------------------------------------------

    fn sample_instances(&mut self) {
        self.instances_ts.push(self.now, self.store.len() as f64);
    }

    fn sample_timelines(&mut self) {
        let total_free: u64 = self
            .store
            .iter()
            .map(|(_, l)| l.engine.free_blocks() as u64)
            .sum();
        let total_blocks: u64 = self
            .store
            .iter()
            .map(|(_, l)| l.engine.total_blocks() as u64)
            .sum();
        let mut hol: Vec<u64> = self
            .store
            .iter()
            .filter_map(|(_, l)| {
                l.engine
                    .head_of_line_demand()
                    .map(|(_, blocks)| blocks as u64)
            })
            .collect();
        hol.sort_unstable();
        // Figure 12's fragmented-memory definition: free memory that could
        // satisfy head-of-line blocked requests if it were not fragmented.
        let mut satisfiable = 0u64;
        let mut fragmented = 0u64;
        let mut budget = total_free;
        for demand in &hol {
            if *demand <= budget {
                satisfiable += 1;
                fragmented += demand;
                budget -= demand;
            } else {
                break;
            }
        }
        let frag_prop = if total_blocks == 0 {
            0.0
        } else {
            fragmented as f64 / total_blocks as f64
        };
        let queued: usize = self.store.iter().map(|(_, l)| l.engine.waiting_len()).sum();
        self.fragmentation.push(self.now, frag_prop);
        self.free_blocks.push(self.now, total_free as f64);
        self.hol_satisfiable.push(self.now, satisfiable as f64);
        self.queued.push(self.now, queued as f64);
        self.sample_instances();
    }

    fn autoscale(&mut self) {
        if self.scaler.is_none() || self.scheduler_down() {
            return;
        }
        let scaler = self.scaler.as_mut().expect("checked above");
        let serving: Vec<&Llumlet> = self
            .store
            .iter()
            .map(|(_, l)| l)
            .filter(|l| !l.terminating && !l.is_starting(self.now))
            .collect();
        if serving.is_empty() {
            return;
        }
        let use_infaas = matches!(self.config.scheduler, SchedulerKind::InfaasPlusPlus);
        // Clamp each instance's contribution so one near-empty instance
        // (freeness = full capacity) cannot mask overload elsewhere.
        let cap = scaler.config().freeness_high * 3.0;
        let avg: f64 = serving
            .iter()
            .map(|l| {
                // Serving instances are not terminating, so the cached load
                // report's freeness is the one the scaler needs.
                let f = if use_infaas {
                    crate::virtual_usage::infaas_equivalent_freeness(&l.engine)
                } else {
                    l.report(self.now, &self.headroom).freeness
                };
                f.min(cap)
            })
            .sum::<f64>()
            / serving.len() as f64;
        // Alive bounds scale-up (all paid capacity, draining included);
        // active bounds scale-down (capacity not already being drained).
        let alive = self.store.len() as u32;
        let active = self.store.iter().filter(|(_, l)| !l.terminating).count() as u32;
        match scaler.observe_counts(avg, alive, active, self.now) {
            Some(ScaleAction::Up) => {
                let delay = scaler.config().startup_delay;
                self.launch_instance(self.now, Some(delay));
            }
            Some(ScaleAction::Down) => self.begin_termination(),
            None => {}
        }
    }

    fn begin_termination(&mut self) {
        // Terminate the serving instance with the fewest running requests.
        self.refresh_fleet();
        let candidate = self.index.drain_victim();
        #[cfg(debug_assertions)]
        {
            let expected = self
                .store
                .iter()
                .filter(|(_, l)| !l.terminating && !l.is_starting(self.now))
                .min_by_key(|&(id, l)| (l.engine.batch_size(), id))
                .map(|(id, _)| id);
            debug_assert_eq!(candidate, expected, "index victim diverged from rescan");
        }
        let Some(id) = candidate else {
            return;
        };
        let llumlet = self.store.get_mut(id).expect("candidate");
        llumlet.terminating = true;
        // Re-dispatch its queued requests; migration handles the running ones
        // (the fake ∞ request makes it a permanent migration source).
        let waiting = llumlet.engine.waiting_ids();
        let mut metas = Vec::new();
        for w in waiting {
            if let Some(state) = llumlet.engine.abort_request(w) {
                metas.push(state.meta);
            }
        }
        for meta in metas {
            self.redispatch(meta);
        }
        self.maybe_finish_termination(id);
    }

    /// Re-dispatches a request aborted off a terminating or crashed instance
    /// through the sim's main dispatcher — same round-robin state, same
    /// priority-class routing rule as a fresh arrival of that request.
    /// Returns whether a dispatch target existed.
    fn redispatch(&mut self, meta: RequestMeta) -> bool {
        let high = self.config.scheduler.uses_priorities() && self.high_ids.contains(&meta.id.0);
        if let Some(target) = self.dispatch_target(high) {
            self.store
                .get_mut(target)
                .expect("target")
                .engine
                .add_request(meta, self.now);
            self.kick(target);
            true
        } else {
            // No instance available: treat as aborted.
            self.aborted += 1;
            false
        }
    }

    /// Removes a terminating instance once it is fully drained and no
    /// migration still touches it.
    fn maybe_finish_termination(&mut self, id: InstanceId) {
        let Some(llumlet) = self.store.get(id) else {
            return;
        };
        if !llumlet.terminating || !llumlet.is_drained() || llumlet.engine.step_in_flight() {
            return;
        }
        if self.coordinator.touches(id) {
            // Wait for in-flight migrations (out of *or into* this
            // instance) to settle; commits re-check via this function.
            return;
        }
        // Never drop the last instance.
        if self.store.len() <= 1 {
            return;
        }
        self.store.remove(id);
        self.index.remove(id);
        self.pairs.remove(&id);
        self.pairs.retain(|_, d| *d != id);
        self.sample_instances();
    }

    fn retry_undispatched(&mut self) {
        let pending: Vec<usize> = self.undispatched.drain(..).collect();
        for index in pending {
            self.dispatch(index);
        }
    }

    fn finished_serving(&self) -> bool {
        self.arrivals_done
            && self.undispatched.is_empty()
            && self.coordinator.active_count() == 0
            && self.store.iter().all(|(_, l)| {
                let e = &l.engine;
                !e.has_work() && !e.step_in_flight()
            })
    }
}

/// Whether [`ServingSim::collect_finished`] has work on this instance:
/// finished states to record, or a termination that may now complete.
/// Otherwise it would take an empty list and `maybe_finish_termination`
/// would return at once, so the step path skips the call.
fn needs_collect(llumlet: &Llumlet) -> bool {
    llumlet.engine.has_finished() || llumlet.terminating
}

/// The headroom config a run actually schedules with: the configured one for
/// priority-aware schedulers, otherwise priority headroom off with the
/// (priority-independent) queuing-demand rule preserved. Constant per run.
fn effective_headroom(config: &ServingConfig) -> HeadroomConfig {
    if config.scheduler.uses_priorities() {
        config.headroom
    } else {
        HeadroomConfig::DISABLED.with_queuing_rule(config.headroom.queuing_rule)
    }
}

/// Convenience: builds and runs a simulation.
pub fn run_serving(config: ServingConfig, trace: Trace) -> ServingOutput {
    ServingSim::new(config, trace).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llumnix_faults::PlannedFault;
    use llumnix_sim::SimRng;
    use llumnix_workload::{presets, Arrivals};

    fn tiny_trace(n: usize, rate: f64, seed: u64) -> Trace {
        // Capped so every request fits the 2048-token test instances: no
        // admission-impossible aborts.
        let spec = presets::by_name("S-S", n, Arrivals::poisson(rate))
            .expect("preset")
            .with_max_total_tokens(2_000);
        spec.generate(&SimRng::new(seed))
    }

    fn tiny_config(kind: SchedulerKind, instances: u32) -> ServingConfig {
        ServingConfig::new(kind, instances).with_spec(InstanceSpec::tiny_for_tests(2048))
    }

    fn assert_all_complete(trace_len: usize, out: &ServingOutput) {
        assert_eq!(
            out.records.len() as u64 + out.aborted,
            trace_len as u64,
            "every request completes exactly once ({} records, {} aborted)",
            out.records.len(),
            out.aborted
        );
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.records.len(), "no duplicate completions");
        for r in &out.records {
            assert!(r.finish >= r.first_token);
            assert!(r.first_token >= r.arrival);
            assert!(r.output_len >= 1);
        }
    }

    #[test]
    fn round_robin_serves_small_trace() {
        let trace = tiny_trace(120, 4.0, 1);
        let out = run_serving(tiny_config(SchedulerKind::RoundRobin, 4), trace.clone());
        assert_all_complete(trace.len(), &out);
        assert_eq!(out.migration_stats.started, 0, "round-robin never migrates");
    }

    #[test]
    fn llumnix_serves_and_migrates_under_pressure() {
        // High rate on few tiny instances forces queue pressure and thus
        // de-fragmentation / load-balancing migrations.
        let trace = tiny_trace(300, 8.0, 2);
        let out = run_serving(tiny_config(SchedulerKind::Llumnix, 4), trace.clone());
        assert_all_complete(trace.len(), &out);
        assert!(
            out.migration_stats.started > 0,
            "expected migrations under pressure"
        );
        assert!(out.migration_stats.committed <= out.migration_stats.started);
    }

    #[test]
    fn infaas_serves_small_trace() {
        let trace = tiny_trace(120, 4.0, 3);
        let out = run_serving(tiny_config(SchedulerKind::InfaasPlusPlus, 4), trace.clone());
        assert_all_complete(trace.len(), &out);
        assert_eq!(out.migration_stats.started, 0);
    }

    #[test]
    fn centralized_accumulates_stalls() {
        let trace = tiny_trace(200, 10.0, 4);
        let out = run_serving(tiny_config(SchedulerKind::Centralized, 8), trace.clone());
        assert_all_complete(trace.len(), &out);
        assert!(out.stalls.mean > 0.0, "centralized scheduler must stall");
        let llum = run_serving(tiny_config(SchedulerKind::Llumnix, 8), trace.clone());
        assert_eq!(llum.stalls.mean, 0.0, "llumnix steps never stall");
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = tiny_trace(150, 6.0, 5);
        let a = run_serving(tiny_config(SchedulerKind::Llumnix, 3), trace.clone());
        let b = run_serving(tiny_config(SchedulerKind::Llumnix, 3), trace);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.preemptions, y.preemptions);
            assert_eq!(x.migrations, y.migrations);
        }
        assert_eq!(a.migration_stats.started, b.migration_stats.started);
    }

    /// Regression for the ordered-container conversion: under migration
    /// pressure the per-tick pairing sweep iterates `pairs`, and the
    /// coordinator's teardown scans iterate its active set; both orders feed
    /// the event queue. Repeated runs must agree on the *entire* migration
    /// history — counts, downtimes, and stage totals — not just completions.
    #[test]
    fn migration_pairing_identical_across_runs() {
        let trace = tiny_trace(300, 8.0, 12);
        let run = || run_serving(tiny_config(SchedulerKind::Llumnix, 4), trace.clone());
        let a = run();
        let b = run();
        assert!(a.migration_stats.started > 0, "no migration pressure");
        assert_eq!(a.migration_stats.started, b.migration_stats.started);
        assert_eq!(a.migration_stats.committed, b.migration_stats.committed);
        assert_eq!(a.migration_stats.aborted, b.migration_stats.aborted);
        assert_eq!(
            a.migration_stats.total_downtime,
            b.migration_stats.total_downtime
        );
        assert_eq!(
            a.migration_stats.total_stages,
            b.migration_stats.total_stages
        );
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.migrations, y.migrations);
            assert_eq!(x.migration_downtime, y.migration_downtime);
        }
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn autoscaling_grows_and_shrinks() {
        let trace = tiny_trace(400, 10.0, 6);
        let scale = AutoScaleConfig {
            min_instances: 1,
            max_instances: 8,
            freeness_low: 10.0,
            freeness_high: 60.0,
            sustain: SimDuration::from_secs(2),
            startup_delay: SimDuration::from_secs(3),
        };
        let cfg = tiny_config(SchedulerKind::Llumnix, 1).with_autoscale(scale);
        let out = run_serving(cfg, trace.clone());
        assert_all_complete(trace.len(), &out);
        assert!(
            out.instances.max() > 1.0,
            "load should trigger scale-up: max {}",
            out.instances.max()
        );
        // After the trace drains, instances scale back down.
        let final_count = out.instances.points().last().expect("samples").1;
        assert!(
            final_count < out.instances.max(),
            "expected scale-down at the end"
        );
        assert!(out.avg_instances >= 1.0 && out.avg_instances <= 8.0);
    }

    /// A scripted fault: `kind` fires at `secs` on rank `target`.
    fn scripted(secs: u64, target: u64, kind: FaultKind) -> PlannedFault {
        PlannedFault {
            at: SimTime::from_secs(secs),
            target_rank: target,
            kind,
        }
    }

    fn outage(secs: u64, for_secs: u64) -> PlannedFault {
        let duration = SimDuration::from_secs(for_secs);
        scripted(secs, 0, FaultKind::SchedulerOutage { duration })
    }

    #[test]
    fn instance_crash_redispatches_and_service_continues() {
        let trace = tiny_trace(200, 5.0, 7);
        let restart_after = Some(SimDuration::from_secs(2));
        let crash = scripted(5, 0, FaultKind::Crash { restart_after });
        let cfg =
            tiny_config(SchedulerKind::Llumnix, 3).with_faults(FaultPlan::from_faults(vec![crash]));
        let out = run_serving(cfg, trace.clone());
        // The crash lost requests; each was redispatched and completed.
        assert_all_complete(trace.len(), &out);
        let fs = &out.fault_stats;
        assert_eq!(fs.crashes, 1);
        assert!(
            fs.requests_lost > 0,
            "the crash should lose requests: {fs:?}"
        );
        assert_eq!(fs.requests_redispatched, fs.requests_lost);
        assert_eq!(out.records.len(), trace.len(), "every request completes");
    }

    #[test]
    fn global_scheduler_failure_falls_back_to_bypass() {
        let trace = tiny_trace(200, 5.0, 8);
        let plan = FaultPlan::from_faults(vec![outage(2, 20)]);
        let out = run_serving(
            tiny_config(SchedulerKind::Llumnix, 3).with_faults(plan),
            trace.clone(),
        );
        // Availability is preserved: every request is still served.
        assert_all_complete(trace.len(), &out);
        assert_eq!(out.aborted, 0);
        assert_eq!(out.fault_stats.scheduler_outages, 1);
    }

    /// A second outage that starts while the first is still on extends the
    /// downtime to its own end instead of ending with the first.
    #[test]
    fn overlapping_scheduler_outages_keep_the_later_end() {
        let trace = tiny_trace(200, 5.0, 8);
        let plan = FaultPlan::from_faults(vec![outage(2, 10), outage(6, 10)]);
        let mut sim = ServingSim::new(
            tiny_config(SchedulerKind::Llumnix, 3).with_faults(plan),
            trace,
        );
        sim.run_until(SimTime::from_secs(14));
        assert_eq!(sim.fault_stats.scheduler_outages, 2);
        assert_eq!(sim.scheduler_down_until, SimTime::from_secs(16));
        assert!(sim.scheduler_down(), "still down at {:?}", sim.now);
        sim.run_until(SimTime::from_secs(17));
        assert!(!sim.scheduler_down(), "recovered by {:?}", sim.now);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace {
            name: "empty".into(),
            requests: vec![],
        };
        let out = run_serving(tiny_config(SchedulerKind::Llumnix, 2), trace);
        assert!(out.records.is_empty());
        assert_eq!(out.aborted, 0);
    }

    #[test]
    fn redispatch_continues_main_round_robin_cycle() {
        // Regression: `redispatch` used to build a throwaway `Dispatcher`
        // (round-robin counter reset to 0), so a re-dispatched request
        // always landed on the first instance instead of continuing the
        // cycle.
        let trace = tiny_trace(3, 0.1, 10);
        let mut sim = ServingSim::new(tiny_config(SchedulerKind::RoundRobin, 3), trace);
        sim.dispatch(0); // rr counter 0 → instance 0
        let meta = RequestMeta {
            id: RequestId(900),
            input_len: 16,
            output_len: 4,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::ZERO,
        };
        sim.redispatch(meta);
        assert_eq!(
            sim.store
                .get(InstanceId(1))
                .expect("live")
                .engine
                .tracked_requests(),
            1,
            "redispatch must continue the main dispatcher's round-robin cycle"
        );
        assert_eq!(
            sim.store
                .get(InstanceId(0))
                .expect("live")
                .engine
                .tracked_requests(),
            1,
            "instance 0 holds only the original dispatch"
        );
    }

    #[test]
    fn redispatch_keeps_high_priority_routing() {
        // Regression: `redispatch` used to call plain `dispatch`, losing the
        // high-priority routing rule (headroom-free freeness). Instance 0
        // hosts a resident high-priority request, so its *virtual* freeness
        // is depressed by the priority headroom while its physical freeness
        // is the best in the fleet; a high-priority request must go there.
        let spec = presets::by_name("S-S", 1, Arrivals::poisson(1.0))
            .expect("preset")
            .with_max_total_tokens(500)
            .with_high_priority_fraction(1.0);
        let trace = spec.generate(&SimRng::new(11));
        assert!(trace.requests[0].high_priority);
        let high_id = trace.requests[0].id;
        let mut sim = ServingSim::new(tiny_config(SchedulerKind::Llumnix, 2), trace);
        let make_resident = |sim: &mut ServingSim, inst: u32, id: u64, input: u32, pr| {
            let e = &mut sim.store.get_mut(InstanceId(inst)).expect("live").engine;
            e.add_request(
                RequestMeta {
                    id: RequestId(id),
                    input_len: input,
                    output_len: 50,
                    priority: pr,
                    arrival: SimTime::ZERO,
                },
                SimTime::ZERO,
            );
            let p = e.poll_step(SimTime::ZERO).expect("prefill");
            e.complete_step(p.finish_at());
        };
        make_resident(&mut sim, 0, 901, 100, PriorityPair::HIGH);
        make_resident(&mut sim, 1, 902, 300, PriorityPair::NORMAL);
        // Sanity: the orderings disagree, so the two rules pick differently.
        sim.refresh_fleet();
        let normal_pick = sim.index.freest(false);
        let high_pick = sim.index.freest(true);
        assert_eq!(
            normal_pick,
            Some(InstanceId(1)),
            "virtual freeness avoids headroom"
        );
        assert_eq!(
            high_pick,
            Some(InstanceId(0)),
            "physical freeness ignores it"
        );
        let meta = RequestMeta {
            id: RequestId(high_id),
            input_len: 32,
            output_len: 8,
            priority: PriorityPair::HIGH,
            arrival: SimTime::ZERO,
        };
        sim.redispatch(meta);
        assert_eq!(
            sim.store
                .get(InstanceId(0))
                .expect("live")
                .engine
                .tracked_requests(),
            2,
            "high-priority redispatch must use the headroom-free rule"
        );
    }

    fn churn_plan(seed: u64, crash_rate: f64) -> FaultPlan {
        let cfg = llumnix_faults::FaultPlanConfig::none()
            .with_crashes(crash_rate, Some(SimDuration::from_secs(2)))
            .with_horizon(SimDuration::from_secs(600));
        FaultPlan::generate(&cfg, &SimRng::new(seed))
    }

    #[test]
    fn planned_crashes_redispatch_instead_of_aborting() {
        let trace = tiny_trace(200, 5.0, 21);
        // ~1 crash per 4 simulated seconds over a ~40 s trace.
        let cfg = tiny_config(SchedulerKind::Llumnix, 3).with_faults(churn_plan(21, 900.0));
        let out = run_serving(cfg, trace.clone());
        assert_all_complete(trace.len(), &out);
        let fs = &out.fault_stats;
        assert!(fs.crashes > 0, "plan should fire crashes: {fs:?}");
        assert!(fs.requests_lost > 0, "crashes should lose requests");
        assert!(fs.consistent(), "lost ledger must balance: {fs:?}");
        // With a 3-instance fleet and 2 s restarts a dispatch target always
        // exists, so every lost request recovers instead of aborting.
        assert_eq!(fs.requests_lost_aborted, 0);
        assert_eq!(out.aborted, 0, "redispatch path must not abort");
        assert!(
            fs.recovery_latency.count as u64 <= fs.requests_redispatched,
            "recoveries cannot exceed redispatches"
        );
        assert!(
            fs.failure_aborts() <= out.migration_stats.aborted,
            "failure aborts are a subset of all migration aborts"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let trace = tiny_trace(200, 6.0, 22);
        let plan = {
            let cfg = llumnix_faults::FaultPlanConfig::none()
                .with_crashes(600.0, Some(SimDuration::from_secs(2)))
                .with_slowdowns(1200.0, (2.0, 3.0), SimDuration::from_secs(5))
                .with_link_failures(600.0, SimDuration::from_secs(2))
                .with_horizon(SimDuration::from_secs(600));
            FaultPlan::generate(&cfg, &SimRng::new(22))
        };
        let run = || {
            run_serving(
                tiny_config(SchedulerKind::Llumnix, 3).with_faults(plan.clone()),
                trace.clone(),
            )
        };
        let a = run();
        let b = run();
        assert!(
            !a.fault_stats.quiet(),
            "faults should fire: {:?}",
            a.fault_stats
        );
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.migrations, y.migrations);
        }
    }

    #[test]
    fn slowdowns_stretch_latency() {
        let trace = tiny_trace(200, 5.0, 23);
        // Round-robin: no migrations, so a straggler cannot shed load and
        // the stretch must show up in end-to-end latency.
        let base = run_serving(tiny_config(SchedulerKind::RoundRobin, 3), trace.clone());
        let cfg = llumnix_faults::FaultPlanConfig::none()
            .with_slowdowns(1800.0, (2.5, 3.5), SimDuration::from_secs(10))
            .with_horizon(SimDuration::from_secs(600));
        let plan = FaultPlan::generate(&cfg, &SimRng::new(23));
        let slowed = run_serving(
            tiny_config(SchedulerKind::RoundRobin, 3).with_faults(plan),
            trace.clone(),
        );
        assert_all_complete(trace.len(), &slowed);
        assert!(slowed.fault_stats.slowdowns > 0);
        assert_eq!(slowed.fault_stats.crashes, 0);
        let mean = |o: &ServingOutput| {
            o.records
                .iter()
                .map(|r| r.finish.since(r.arrival).as_secs_f64())
                .sum::<f64>()
                / o.records.len() as f64
        };
        assert!(
            mean(&slowed) > mean(&base),
            "stragglers must stretch mean e2e latency ({} vs {})",
            mean(&slowed),
            mean(&base)
        );
    }

    #[test]
    fn link_failures_abort_inflight_migrations() {
        // Heavy migration pressure + frequent long link outages: some stage
        // events must land while a link is down.
        let trace = tiny_trace(300, 8.0, 24);
        let cfg = llumnix_faults::FaultPlanConfig::none()
            .with_link_failures(3600.0, SimDuration::from_secs(2))
            .with_horizon(SimDuration::from_secs(600));
        let plan = FaultPlan::generate(&cfg, &SimRng::new(24));
        let out = run_serving(
            tiny_config(SchedulerKind::Llumnix, 4).with_faults(plan),
            trace.clone(),
        );
        assert_all_complete(trace.len(), &out);
        assert!(out.fault_stats.link_failures > 0);
        assert!(out.fault_stats.failure_aborts() <= out.migration_stats.aborted);
    }

    /// The straggler map: overlapping slowdowns keep the later expiry and the
    /// worse factor, a step polled before the expiry stretches by that
    /// factor, and the sample tick drops the entry once it expires.
    #[test]
    fn slowdowns_merge_stretch_steps_and_expire() {
        let trace = tiny_trace(3, 0.1, 27);
        let mut sim = ServingSim::new(tiny_config(SchedulerKind::RoundRobin, 2), trace);
        let (slow, fast) = (InstanceId(0), InstanceId(1));
        let t10 = SimTime::from_secs(10);
        sim.slow_down(slow, t10, 2.0);
        sim.slow_down(slow, SimTime::from_secs(5), 3.0);
        assert_eq!(sim.slow_until.get(&slow), Some(&(t10, 3.0)));
        // The same request on each instance: one prefill step apiece.
        let step = |sim: &mut ServingSim, id: InstanceId, rid: u64| {
            let now = sim.now;
            let meta = RequestMeta {
                id: RequestId(rid),
                input_len: 64,
                output_len: 8,
                priority: PriorityPair::NORMAL,
                arrival: now,
            };
            let e = &mut sim.store.get_mut(id).expect("live").engine;
            e.add_request(meta, now);
            sim.kick(id);
            let (at, _) = sim.queue.pop().expect("step scheduled");
            at.since(now)
        };
        let base = step(&mut sim, fast, 1);
        assert_eq!(step(&mut sim, slow, 2), base.mul_f64(3.0));
        sim.now = t10;
        sim.on_sample();
        assert!(sim.slow_until.is_empty(), "expired slowdown dropped");
    }

    /// Drives the stage-boundary LinkFailed abort deterministically: start a
    /// migration, kill the link mid-copy, and deliver the stage event.
    #[test]
    fn downed_link_aborts_migration_at_stage_boundary() {
        let trace = tiny_trace(3, 0.1, 26);
        let mut sim = ServingSim::new(tiny_config(SchedulerKind::Llumnix, 2), trace);
        let e = &mut sim.store.get_mut(InstanceId(0)).expect("live").engine;
        e.add_request(
            RequestMeta {
                id: RequestId(950),
                input_len: 128,
                output_len: 64,
                priority: PriorityPair::NORMAL,
                arrival: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        e.complete_step(p.finish_at());
        sim.pairs.insert(InstanceId(0), InstanceId(1));
        sim.continue_pair(InstanceId(0));
        assert_eq!(sim.coordinator.active_count(), 1, "migration started");
        // The first stage's copy is now in flight; the destination's link
        // dies before it completes.
        sim.link_down_until
            .insert(InstanceId(1), SimTime::from_secs(3600));
        let (at, ev) = sim.queue.pop().expect("stage event queued");
        sim.now = at;
        sim.handle(ev);
        assert_eq!(sim.coordinator.active_count(), 0, "migration aborted");
        assert_eq!(sim.fault_stats.aborts_link_failed, 1);
        // And no new migration starts while the link is down.
        sim.continue_pair(InstanceId(0));
        assert_eq!(sim.coordinator.active_count(), 0);
    }

    /// Satellite regression (guards the PR 2 `redispatch` fix under the new
    /// failure path): a crashed instance's queued + running requests are
    /// redispatched exactly once each, with their priority class preserved.
    #[test]
    fn crashed_instance_redispatches_exactly_once_with_priority() {
        let trace = tiny_trace(3, 0.1, 25);
        let mut sim = ServingSim::new(tiny_config(SchedulerKind::Llumnix, 3), trace);
        sim.high_ids.insert(901);
        let add = |sim: &mut ServingSim, id: u64, pr: PriorityPair, run_prefill: bool| {
            let e = &mut sim.store.get_mut(InstanceId(0)).expect("live").engine;
            e.add_request(
                RequestMeta {
                    id: RequestId(id),
                    input_len: 64,
                    output_len: 32,
                    priority: pr,
                    arrival: SimTime::ZERO,
                },
                SimTime::ZERO,
            );
            if run_prefill {
                let p = e.poll_step(SimTime::ZERO).expect("prefill");
                e.complete_step(p.finish_at());
            }
        };
        // One running (post-prefill) high-priority request and one queued
        // normal request, both on the doomed instance.
        add(&mut sim, 901, PriorityPair::HIGH, true);
        add(&mut sim, 900, PriorityPair::NORMAL, false);
        sim.fault_stats.crashes += 1;
        sim.crash_instance(InstanceId(0));

        assert!(
            !sim.store.contains(InstanceId(0)),
            "crashed instance evicted"
        );
        let fs = &sim.fault_stats;
        assert_eq!(fs.requests_lost, 2, "both resident requests lost");
        assert_eq!(fs.requests_redispatched, 2);
        assert_eq!(fs.requests_lost_aborted, 0);
        assert!(fs.consistent());
        for id in [900u64, 901] {
            let holders: Vec<InstanceId> = sim
                .store
                .iter()
                .filter(|(_, l)| l.engine.state(RequestId(id)).is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "request {id} must live exactly once");
        }
        let high_holder = sim
            .store
            .iter()
            .find(|(_, l)| l.engine.state(RequestId(901)).is_some())
            .expect("redispatched");
        assert_eq!(
            high_holder
                .1
                .engine
                .state(RequestId(901))
                .expect("state")
                .meta
                .priority,
            PriorityPair::HIGH,
            "priority class preserved across redispatch"
        );
    }

    #[test]
    fn high_priority_batches_are_observed() {
        // The §6.4 isolation diagnostic: decode steps that carry a
        // high-execution-priority request record their batch size.
        let spec = presets::by_name("S-S", 200, Arrivals::poisson(6.0))
            .expect("preset")
            .with_max_total_tokens(2_000)
            .with_high_priority_fraction(0.3);
        let trace = spec.generate(&SimRng::new(35));
        let out = run_serving(tiny_config(SchedulerKind::Llumnix, 4), trace.clone());
        assert_all_complete(trace.len(), &out);
        assert!(
            out.high_step_batches.count > 0,
            "high-priority batches observed"
        );
    }

    /// A faulted run driven through every event with `run_until`, so only
    /// its teardown is left. The untouched run tears down cleanly.
    fn drained_faulted_sim() -> ServingSim {
        let trace = tiny_trace(120, 5.0, 48);
        let cfg = tiny_config(SchedulerKind::Llumnix, 3).with_faults(churn_plan(48, 900.0));
        let horizon = cfg.max_sim_time;
        let mut sim = ServingSim::new(cfg, trace);
        sim.run_until(horizon);
        assert!(sim.queue.is_empty(), "every event processed");
        assert!(sim.fault_stats.crashes > 0, "plan should fire crashes");
        let out = sim.clone().run();
        assert_all_complete(sim.trace.len(), &out);
        sim
    }

    #[test]
    #[should_panic(expected = "fault ledger inconsistent")]
    fn teardown_checks_the_fault_ledger() {
        let mut sim = drained_faulted_sim();
        sim.fault_stats.requests_lost += 1;
        sim.run();
    }

    #[test]
    #[should_panic(expected = "request ledger inconsistent")]
    fn teardown_checks_request_conservation() {
        let mut sim = drained_faulted_sim();
        sim.aborted += 1;
        sim.run();
    }

    /// Full-output equality for snapshot round-trips and forks: every
    /// record, float accumulator, counter and time-series sample.
    fn assert_outputs_bitwise(a: &ServingOutput, b: &ServingOutput) {
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.first_token, y.first_token);
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.preemptions, y.preemptions);
            assert_eq!(x.migrations, y.migrations);
            assert_eq!(x.migration_downtime, y.migration_downtime);
        }
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.migration_stats.started, b.migration_stats.started);
        assert_eq!(a.migration_stats.committed, b.migration_stats.committed);
        assert_eq!(a.migration_stats.aborted, b.migration_stats.aborted);
        assert_eq!(
            a.migration_stats.total_downtime,
            b.migration_stats.total_downtime
        );
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.stalls.count, b.stalls.count);
        assert_eq!(a.stalls.mean, b.stalls.mean, "stall float sums must match");
        assert_eq!(a.high_step_batches.count, b.high_step_batches.count);
        assert_eq!(a.high_step_batches.mean, b.high_step_batches.mean);
        assert_eq!(a.avg_instances, b.avg_instances);
        for (s, t) in [
            (&a.fragmentation, &b.fragmentation),
            (&a.free_blocks, &b.free_blocks),
            (&a.hol_satisfiable, &b.hol_satisfiable),
            (&a.queued, &b.queued),
            (&a.instances, &b.instances),
        ] {
            assert_eq!(s.points(), t.points(), "series {} must match", s.name);
        }
    }

    /// Runs `cfg` over `trace` twice — uninterrupted, and snapshotted at
    /// `fork_at` then resumed — and demands bitwise-identical outputs.
    /// Also checks the snapshot is non-destructive: the donor sim keeps
    /// running to the same output after being snapshotted.
    fn assert_snapshot_roundtrip(
        cfg: ServingConfig,
        trace: Trace,
        fork_at: SimTime,
    ) -> ServingOutput {
        let cold = ServingSim::new(cfg.clone(), trace.clone()).run();
        let mut warm = ServingSim::new(cfg, trace);
        let reached = warm.run_until(fork_at);
        assert!(reached > SimTime::ZERO, "fork point must see progress");
        let snap = warm.snapshot();
        let resumed = ServingSim::resume(&snap).run();
        assert_outputs_bitwise(&cold, &resumed);
        let continued = warm.run();
        assert_outputs_bitwise(&cold, &continued);
        cold
    }

    #[test]
    fn snapshot_roundtrip_classic() {
        let trace = tiny_trace(300, 8.0, 41);
        let cfg = tiny_config(SchedulerKind::Llumnix, 4);
        let out = assert_snapshot_roundtrip(cfg, trace.clone(), SimTime::from_secs(8));
        assert_all_complete(trace.len(), &out);
        assert!(
            out.migration_stats.started > 0,
            "fork under migration pressure"
        );
    }

    #[test]
    fn snapshot_roundtrip_with_pending_faults_and_restarts() {
        let trace = tiny_trace(200, 5.0, 43);
        let cfg = tiny_config(SchedulerKind::Llumnix, 3).with_faults(churn_plan(43, 900.0));
        // Fork mid-churn: planned faults already fired, more pending, and
        // crashed instances possibly mid-restart at the fork point.
        let out = assert_snapshot_roundtrip(cfg, trace, SimTime::from_secs(10));
        assert!(out.fault_stats.crashes > 0, "plan should fire crashes");
    }

    #[test]
    fn snapshot_roundtrip_with_autoscaling() {
        let trace = tiny_trace(400, 10.0, 44);
        let scale = AutoScaleConfig {
            min_instances: 1,
            max_instances: 8,
            freeness_low: 10.0,
            freeness_high: 60.0,
            sustain: SimDuration::from_secs(2),
            startup_delay: SimDuration::from_secs(3),
        };
        let base = tiny_config(SchedulerKind::Llumnix, 1).with_autoscale(scale);
        // Fork mid-churn: scale-up has launched instances (some possibly
        // still starting) and scale-down may be draining others.
        let out = assert_snapshot_roundtrip(base, trace, SimTime::from_secs(10));
        assert!(out.instances.max() > 1.0, "load should trigger scale-up");
        let final_count = out.instances.points().last().expect("samples").1;
        assert!(final_count < out.instances.max(), "expected scale-down");
    }

    #[test]
    fn snapshot_before_any_progress_forks_cleanly() {
        let trace = tiny_trace(120, 4.0, 45);
        let cfg = tiny_config(SchedulerKind::Llumnix, 4);
        let cold = run_serving(cfg.clone(), trace.clone());
        // Snapshot of an unseeded sim: resume seeds on its first run, and
        // two resumes of one snapshot fork fully independent runs.
        let sim = ServingSim::new(cfg, trace);
        let snap = sim.snapshot();
        let a = ServingSim::resume(&snap).run();
        let b = ServingSim::resume(&snap).run();
        assert_outputs_bitwise(&cold, &a);
        assert_outputs_bitwise(&a, &b);
    }

    #[test]
    fn forked_fault_arms_match_cold_runs_classic() {
        let trace = tiny_trace(200, 5.0, 46);
        let base = tiny_config(SchedulerKind::Llumnix, 3);
        // Every planned fault must fire strictly after the fork point; the
        // start offset leaves margin over the 10 s fork.
        let plan = |rate: f64| {
            let cfg = llumnix_faults::FaultPlanConfig::none()
                .with_crashes(rate, Some(SimDuration::from_secs(2)))
                .with_horizon(SimDuration::from_secs(600))
                .with_start_offset(SimDuration::from_secs(12));
            FaultPlan::generate(&cfg, &SimRng::new(46))
        };
        let mut warm = ServingSim::new(base.clone(), trace.clone());
        warm.run_until(SimTime::from_secs(10));
        let snap = warm.snapshot();
        for p in [plan(400.0), plan(900.0)] {
            assert!(p.get(0).is_some(), "plan must fire inside the trace");
            let cold = run_serving(base.clone().with_faults(p.clone()), trace.clone());
            assert!(cold.fault_stats.crashes > 0, "plan should fire");
            let mut fork = ServingSim::resume(&snap);
            fork.activate_faults(p);
            // Classic mode has no windows to perturb: full equality holds
            // between the forked arm and the cold run configured with the
            // same plan from t = 0.
            assert_outputs_bitwise(&cold, &fork.run());
        }
        // The "none" arm is an empty plan — a plain resume.
        let none = FaultPlan::generate(&llumnix_faults::FaultPlanConfig::none(), &SimRng::new(0));
        let cold_none = run_serving(base, trace);
        let mut fork = ServingSim::resume(&snap);
        fork.activate_faults(none);
        assert_outputs_bitwise(&cold_none, &fork.run());
    }

    #[test]
    fn forked_fault_arms_match_cold_runs_with_every_fault_kind() {
        let trace = tiny_trace(200, 6.0, 47);
        let base = tiny_config(SchedulerKind::Llumnix, 3);
        let cfg = llumnix_faults::FaultPlanConfig::none()
            .with_crashes(700.0, Some(SimDuration::from_secs(2)))
            .with_slowdowns(1200.0, (2.0, 3.0), SimDuration::from_secs(5))
            .with_link_failures(600.0, SimDuration::from_secs(2))
            .with_horizon(SimDuration::from_secs(600))
            .with_start_offset(SimDuration::from_secs(10));
        // Scripted entries ride along with the seeded ones, after the fork.
        let crash = FaultKind::Crash {
            restart_after: None,
        };
        let scripted_faults = [outage(12, 6), scripted(14, 1, crash)];
        let seeded = FaultPlan::generate(&cfg, &SimRng::new(47));
        let plan = FaultPlan::from_faults(seeded.iter().copied().chain(scripted_faults).collect());
        let cold = run_serving(base.clone().with_faults(plan.clone()), trace.clone());
        let fs = &cold.fault_stats;
        assert!(
            fs.crashes > 0 && fs.slowdowns > 0 && fs.link_failures > 0,
            "{fs:?}"
        );
        assert_eq!(fs.scheduler_outages, 1);
        assert_all_complete(trace.len(), &cold);
        let mut warm = ServingSim::new(base, trace);
        warm.run_until(SimTime::from_secs(8));
        let mut fork = ServingSim::resume(&warm.snapshot());
        fork.activate_faults(plan);
        assert_outputs_bitwise(&cold, &fork.run());
    }

    #[test]
    fn llumnix_base_ignores_priorities() {
        let spec = presets::by_name("S-S", 150, Arrivals::poisson(6.0))
            .expect("preset")
            .with_high_priority_fraction(0.3);
        let trace = spec.generate(&SimRng::new(9));
        let out = run_serving(tiny_config(SchedulerKind::LlumnixBase, 3), trace.clone());
        assert_all_complete(trace.len(), &out);
        // Records still carry the trace's priority labels for reporting.
        assert!(out
            .records
            .iter()
            .any(|r| r.priority == RecordPriority::High));
    }
}
