//! Property tests for the core scheduling layer.
//!
//! The llumlet builds its load report in one allocation-free pass over the
//! engine; the first test drives a llumlet through arbitrary event sequences
//! and checks that [`Llumlet::report_fresh`]'s freeness matches Algorithm 1's
//! reference (`freeness` over an `InstanceView`) bit for bit. On top of those
//! reports sits the incremental dispatch index, which the store's dirty set
//! keeps current; the fleet-level test below drives a whole store + index
//! through arbitrary event sequences and checks every selection path
//! (dispatch for both priority classes, round-robin, INFaaS++, migration
//! pairing, termination victim) against a from-scratch rescan of fresh
//! reports.

use llumnix_core::policy::{pair_migrations, LoadReport};
use llumnix_core::{
    freeness, DispatchIndex, Dispatcher, HeadroomConfig, IndexPolicy, InstanceStore, InstanceView,
    Llumlet, MigrationThresholds, QueuingRule, SchedulerKind,
};
use llumnix_engine::{
    EngineConfig, InstanceEngine, InstanceId, Priority, PriorityPair, RequestId, RequestMeta,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A random llumlet-visible event.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a request (input tokens, output tokens, priority pair index
    /// into [`PRIORITIES`]).
    Add(u32, u32, usize),
    /// Run one engine step to completion, if one is runnable.
    Step,
    /// Abort a request by id.
    Abort(u64),
    /// Ask a request to drain out.
    Drain(u64),
    /// Flip the terminating flag serving.rs sets directly.
    SetTerminating(bool),
    /// Advance time without touching the engine.
    AdvanceMillis(u64),
    /// Reserve blocks for an incoming migration: memory no resident
    /// request accounts for.
    Reserve(u32),
    /// Grow the `i`-th live reservation (modulo the count).
    GrowReservation(usize, u32),
    /// Release the `i`-th live reservation (modulo the count).
    ReleaseReservation(usize),
}

/// Every (scheduling, execution) priority combination.
const PRIORITIES: [PriorityPair; 4] = [
    PriorityPair::NORMAL,
    PriorityPair::HIGH,
    PriorityPair {
        scheduling: Priority::High,
        execution: Priority::Normal,
    },
    PriorityPair {
        scheduling: Priority::Normal,
        execution: Priority::High,
    },
];

fn op() -> impl Strategy<Value = Op> {
    // Arms are picked uniformly; the repeated admit and step arms fill the
    // batch often enough for several high-priority residents to share the
    // headroom.
    fn add() -> impl Strategy<Value = Op> {
        (1u32..300, 1u32..40, 0usize..PRIORITIES.len()).prop_map(|(i, o, p)| Op::Add(i, o, p))
    }
    prop_oneof![
        add(),
        add(),
        Just(Op::Step),
        Just(Op::Step),
        (0u64..30).prop_map(Op::Abort),
        (0u64..30).prop_map(Op::Drain),
        any::<bool>().prop_map(Op::SetTerminating),
        (1u64..5_000).prop_map(Op::AdvanceMillis),
        (1u32..64).prop_map(Op::Reserve),
        (any::<usize>(), 1u32..16).prop_map(|(i, n)| Op::GrowReservation(i, n)),
        any::<usize>().prop_map(Op::ReleaseReservation),
    ]
}

proptest! {
    /// After every event, the report's one-pass freeness pair equals
    /// Algorithm 1's reference, with and without headroom, to the bit, for
    /// no headroom, two headroom targets and a time-sensitive gradual rule.
    #[test]
    fn one_pass_report_matches_algorithm_1(ops in prop::collection::vec(op(), 1..80)) {
        let mut llumlet = Llumlet::new(
            InstanceEngine::new(
                InstanceId(0),
                InstanceSpec::tiny_for_tests(4096),
                EngineConfig::default(),
            ),
            SimTime::ZERO,
            None,
        );
        let configs = [
            HeadroomConfig::DISABLED,
            HeadroomConfig::paper_default(),
            HeadroomConfig::paper_default()
                .with_queuing_rule(QueuingRule::Gradual { ramp_secs: 10.0 }),
            // An odd headroom (3 097 tokens): shares of it round, so a sum
            // taken in another order shows in the bits.
            HeadroomConfig {
                high_priority_target_tokens: Some(999),
                queuing_rule: QueuingRule::FullDemand,
            },
        ];
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut reservations = Vec::new();
        for op in ops {
            match op {
                Op::Add(input, output, priority) => {
                    let meta = RequestMeta {
                        id: RequestId(next_id),
                        input_len: input,
                        output_len: output,
                        priority: PRIORITIES[priority],
                        arrival: now,
                    };
                    next_id += 1;
                    llumlet.engine.add_request(meta, now);
                }
                Op::Step => {
                    if let Some(plan) = llumlet.engine.poll_step(now) {
                        now = plan.finish_at();
                        llumlet.engine.complete_step(now);
                    }
                }
                Op::Abort(id) => {
                    let _ = llumlet.engine.abort_request(RequestId(id));
                }
                Op::Drain(id) => {
                    let _ = llumlet.engine.request_drain(RequestId(id));
                }
                Op::SetTerminating(t) => llumlet.terminating = t,
                Op::AdvanceMillis(ms) => now += llumnix_sim::SimDuration::from_millis(ms),
                Op::Reserve(blocks) => {
                    if llumlet.engine.reserve_blocks(blocks).is_ok() {
                        reservations.push(blocks);
                    }
                }
                Op::GrowReservation(i, blocks) => {
                    if !reservations.is_empty() && llumlet.engine.reserve_blocks(blocks).is_ok() {
                        let k = i % reservations.len();
                        reservations[k] += blocks;
                    }
                }
                Op::ReleaseReservation(i) => {
                    if !reservations.is_empty() {
                        let blocks = reservations.swap_remove(i % reservations.len());
                        llumlet.engine.release_reservation(blocks);
                    }
                }
            }
            let view = InstanceView::from_engine(&llumlet.engine, llumlet.terminating, now);
            for headroom in &configs {
                let report = llumlet.report_fresh(now, headroom);
                let physical = HeadroomConfig {
                    high_priority_target_tokens: None,
                    ..*headroom
                };
                prop_assert_eq!(
                    report.freeness.to_bits(),
                    freeness(&view, headroom).to_bits(),
                    "freeness vs Algorithm 1, {:?}, op {:?}", headroom, op
                );
                prop_assert_eq!(
                    report.freeness_physical.to_bits(),
                    freeness(&view, &physical).to_bits(),
                    "physical freeness vs Algorithm 1, {:?}, op {:?}", headroom, op
                );
            }
        }
    }
}

/// A random fleet-visible event.
#[derive(Debug, Clone, Copy)]
enum FleetOp {
    /// Admit a request on the `i`-th live instance.
    AddTo(u8, u32, u32, bool),
    /// Run one engine step on the `i`-th live instance.
    StepOn(u8),
    /// Abort request `id` on the `i`-th live instance.
    AbortOn(u8, u64),
    /// Flip the terminating flag on the `i`-th live instance.
    SetTerminating(u8, bool),
    /// Launch a new instance (startup delay in millis, 0 = immediate).
    Launch(u16),
    /// Launch a new instance mid-startup and immediately mark it
    /// terminating — the scale-up-then-down churn edge where an instance is
    /// both starting and terminating at once (delay is never 0 here).
    LaunchTerminating(u16),
    /// Remove the `i`-th live instance (instance-failure path).
    Remove(u8),
    /// Advance time.
    AdvanceMillis(u16),
}

fn fleet_op() -> impl Strategy<Value = FleetOp> {
    // The vendored `prop_oneof!` picks arms uniformly; repeat the admit and
    // step arms to bias runs toward load changes over membership churn.
    fn add() -> impl Strategy<Value = FleetOp> {
        (any::<u8>(), 1u32..300, 1u32..40, any::<bool>())
            .prop_map(|(i, inp, out, h)| FleetOp::AddTo(i, inp, out, h))
    }
    fn step() -> impl Strategy<Value = FleetOp> {
        any::<u8>().prop_map(FleetOp::StepOn)
    }
    prop_oneof![
        add(),
        add(),
        add(),
        step(),
        step(),
        step(),
        (any::<u8>(), 0u64..40).prop_map(|(i, r)| FleetOp::AbortOn(i, r)),
        (any::<u8>(), any::<bool>()).prop_map(|(i, t)| FleetOp::SetTerminating(i, t)),
        (0u16..3_000).prop_map(FleetOp::Launch),
        (1u16..3_000).prop_map(FleetOp::LaunchTerminating),
        any::<u8>().prop_map(FleetOp::Remove),
        (1u16..5_000).prop_map(FleetOp::AdvanceMillis),
    ]
}

/// The serving simulator's refresh recipe, replicated over a bare store +
/// index: time-driven starting transitions (deadlines queued at launch), then
/// the dirty set (or the whole fleet under a time-sensitive queuing rule),
/// each through a fresh report.
fn refresh(
    store: &mut InstanceStore,
    index: &mut DispatchIndex,
    starting_queue: &mut Vec<(SimTime, InstanceId)>,
    now: SimTime,
    headroom: &HeadroomConfig,
    refresh_all: bool,
) {
    let mut i = 0;
    while i < starting_queue.len() {
        if starting_queue[i].0 <= now {
            let (_, id) = starting_queue.swap_remove(i);
            let _ = store.get_mut(id);
        } else {
            i += 1;
        }
    }
    if refresh_all {
        for i in 0..store.order().len() {
            let id = store.order()[i];
            let _ = store.get_mut(id);
        }
    }
    let mut dirty = Vec::new();
    store.take_dirty(&mut dirty);
    for &id in &dirty {
        let Some(l) = store.get(id) else {
            index.remove(id);
            continue;
        };
        index.update(&l.report_fresh(now, headroom));
    }
    index.sync_order(store.order());
}

fn new_llumlet(id: u32, now: SimTime, starting_until: Option<SimTime>) -> Llumlet {
    Llumlet::new(
        InstanceEngine::new(
            InstanceId(id),
            InstanceSpec::tiny_for_tests(2048),
            EngineConfig::default(),
        ),
        now,
        starting_until,
    )
}

fn run_fleet_equivalence(
    ops: &[FleetOp],
    headroom: HeadroomConfig,
    refresh_all: bool,
) -> Result<(), TestCaseError> {
    let mut store = InstanceStore::new();
    let mut index = DispatchIndex::new(IndexPolicy::all());
    let mut starting_queue: Vec<(SimTime, InstanceId)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_instance = 3u32;
    let mut next_req = 0u64;
    // Round-robin dispatchers advanced in lockstep: both consume one counter
    // step per check round iff an instance is eligible.
    let mut rr_scan = Dispatcher::new();
    let mut rr_index = Dispatcher::new();
    for i in 0..3 {
        store.insert(InstanceId(i), new_llumlet(i, now, None));
    }
    let pick = |store: &InstanceStore, i: u8| -> Option<InstanceId> {
        if store.is_empty() {
            None
        } else {
            Some(store.order()[i as usize % store.len()])
        }
    };
    for &op in ops {
        match op {
            FleetOp::AddTo(i, input, output, high) => {
                if let Some(id) = pick(&store, i) {
                    let meta = RequestMeta {
                        id: RequestId(next_req),
                        input_len: input,
                        output_len: output,
                        priority: if high {
                            PriorityPair::HIGH
                        } else {
                            PriorityPair::NORMAL
                        },
                        arrival: now,
                    };
                    next_req += 1;
                    store
                        .get_mut(id)
                        .expect("live")
                        .engine
                        .add_request(meta, now);
                }
            }
            FleetOp::StepOn(i) => {
                if let Some(id) = pick(&store, i) {
                    let e = &mut store.get_mut(id).expect("live").engine;
                    if let Some(plan) = e.poll_step(now) {
                        now = plan.finish_at();
                        e.complete_step(now);
                    }
                }
            }
            FleetOp::AbortOn(i, r) => {
                if let Some(id) = pick(&store, i) {
                    let _ = store
                        .get_mut(id)
                        .expect("live")
                        .engine
                        .abort_request(RequestId(r));
                }
            }
            FleetOp::SetTerminating(i, t) => {
                if let Some(id) = pick(&store, i) {
                    store.get_mut(id).expect("live").terminating = t;
                }
            }
            FleetOp::Launch(delay_ms) => {
                let id = InstanceId(next_instance);
                next_instance += 1;
                let until = (delay_ms > 0).then(|| now + SimDuration::from_millis(delay_ms as u64));
                if let Some(until) = until {
                    starting_queue.push((until, id));
                }
                store.insert(id, new_llumlet(id.0, now, until));
            }
            FleetOp::LaunchTerminating(delay_ms) => {
                let id = InstanceId(next_instance);
                next_instance += 1;
                let until = now + SimDuration::from_millis(delay_ms as u64);
                starting_queue.push((until, id));
                let mut l = new_llumlet(id.0, now, Some(until));
                l.terminating = true;
                store.insert(id, l);
            }
            FleetOp::Remove(i) => {
                if store.len() > 1 {
                    if let Some(id) = pick(&store, i) {
                        store.remove(id);
                        index.remove(id);
                    }
                }
            }
            FleetOp::AdvanceMillis(ms) => now += SimDuration::from_millis(ms as u64),
        }
        refresh(
            &mut store,
            &mut index,
            &mut starting_queue,
            now,
            &headroom,
            refresh_all,
        );
        // From-scratch rescan over fresh (uncached) reports.
        let reports: Vec<LoadReport> = store
            .iter()
            .map(|(_, l)| l.report_fresh(now, &headroom))
            .collect();
        // Dispatch: freest for both priority classes, INFaaS++, round-robin.
        for high in [false, true] {
            let want = Dispatcher::new().dispatch_for(SchedulerKind::Llumnix, &reports, high);
            prop_assert_eq!(index.freest(high), want, "freest(high={}) {:?}", high, op);
        }
        let want = Dispatcher::new().dispatch_for(SchedulerKind::InfaasPlusPlus, &reports, false);
        prop_assert_eq!(index.least_memory_load(), want, "infaas {:?}", op);
        let want = rr_scan.dispatch_for(SchedulerKind::RoundRobin, &reports, false);
        let got = rr_index.dispatch_indexed(SchedulerKind::RoundRobin, &index, false);
        prop_assert_eq!(got, want, "round-robin {:?}", op);
        // Migration pairing at two threshold settings (the default dead band
        // and a tight one that pairs more aggressively).
        for thresholds in [
            MigrationThresholds::default(),
            MigrationThresholds {
                source_below: 120.0,
                destination_above: 150.0,
            },
        ] {
            let want = pair_migrations(&reports, thresholds);
            prop_assert_eq!(index.pair(thresholds), want, "pairing {:?}", op);
        }
        // Termination-victim selection.
        let want = reports
            .iter()
            .filter(|r| !r.terminating && !r.starting)
            .min_by_key(|r| (r.num_running, r.id))
            .map(|r| r.id);
        prop_assert_eq!(index.drain_victim(), want, "victim {:?}", op);
    }
    Ok(())
}

proptest! {
    /// The incremental index always selects the same instance as a
    /// from-scratch rescan of fresh reports, on every selection path, under
    /// arbitrary fleet event sequences (paper-default headroom).
    #[test]
    fn fleet_index_matches_rescan(ops in prop::collection::vec(fleet_op(), 1..60)) {
        run_fleet_equivalence(&ops, HeadroomConfig::paper_default(), false)?;
    }

    /// Same property under the time-sensitive `Gradual` queuing rule, where
    /// the refresh must sweep the whole fleet because reports drift with
    /// time alone.
    #[test]
    fn fleet_index_matches_rescan_gradual(ops in prop::collection::vec(fleet_op(), 1..40)) {
        let headroom = HeadroomConfig::paper_default()
            .with_queuing_rule(QueuingRule::Gradual { ramp_secs: 10.0 });
        run_fleet_equivalence(&ops, headroom, true)?;
    }
}
