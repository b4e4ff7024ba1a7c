//! Property tests for the instance engine and block manager.

use std::collections::BTreeMap;

use llumnix_engine::{
    BlockManager, EngineConfig, EngineEvent, InstanceEngine, InstanceId, Phase, Priority,
    PriorityPair, RequestId, RequestMeta, SeqState, StepKind, WaitQueue,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A random block-manager operation.
#[derive(Debug, Clone)]
enum BlockOp {
    Allocate(u64, u32),
    Grow(u64, u32),
    Release(u64),
    Reserve(u32),
    ReleaseReservation(usize),
    Commit(usize, u64),
}

fn block_op() -> impl Strategy<Value = BlockOp> {
    prop_oneof![
        (0u64..20, 1u32..40).prop_map(|(id, n)| BlockOp::Allocate(id, n)),
        (0u64..20, 1u32..10).prop_map(|(id, n)| BlockOp::Grow(id, n)),
        (0u64..20).prop_map(BlockOp::Release),
        (1u32..40).prop_map(BlockOp::Reserve),
        (0usize..8).prop_map(BlockOp::ReleaseReservation),
        ((0usize..8), (20u64..40)).prop_map(|(r, id)| BlockOp::Commit(r, id)),
    ]
}

proptest! {
    /// Under any operation sequence, allocated + reserved + free == total,
    /// the reserved total equals the sum of the live reservations, and
    /// failed operations leave no residue.
    #[test]
    fn block_manager_conserves_blocks(ops in prop::collection::vec(block_op(), 1..200)) {
        let mut bm = BlockManager::new(120);
        let mut reservations = Vec::new();
        for op in ops {
            match op {
                BlockOp::Allocate(id, n) => { let _ = bm.allocate(RequestId(id), n); }
                BlockOp::Grow(id, n) => { let _ = bm.grow(RequestId(id), n); }
                BlockOp::Release(id) => { let _ = bm.release(RequestId(id)); }
                BlockOp::Reserve(n) => {
                    if bm.reserve(n).is_ok() {
                        reservations.push(n);
                    }
                }
                BlockOp::ReleaseReservation(i) => {
                    if i < reservations.len() {
                        bm.release_reservation(reservations.swap_remove(i));
                    }
                }
                BlockOp::Commit(i, id) => {
                    if i < reservations.len()
                        && bm.commit_reservation(reservations[i], RequestId(id)).is_ok()
                    {
                        reservations.swap_remove(i);
                    }
                }
            }
            prop_assert_eq!(bm.reserved_blocks(), reservations.iter().sum::<u32>());
            prop_assert!(bm.check_invariants(), "block conservation violated");
            prop_assert_eq!(
                bm.free_blocks(),
                bm.total_blocks() - bm.allocated_blocks() - bm.reserved_blocks(),
                "running ledger drifted from the maps"
            );
        }
    }

    /// The wait queue always yields strictly by (priority desc, arrival asc,
    /// id asc), regardless of insertion order.
    #[test]
    fn wait_queue_order(entries in prop::collection::vec((0u64..1000, 0u64..100, any::<bool>()), 1..60)) {
        let mut q = WaitQueue::new();
        let mut expected: Vec<(Priority, u64, u64)> = Vec::new();
        for (i, &(arrival, _, high)) in entries.iter().enumerate() {
            let id = i as u64;
            let priority = if high { Priority::High } else { Priority::Normal };
            q.insert(RequestId(id), priority, SimTime::from_micros(arrival));
            expected.push((priority, arrival, id));
        }
        expected.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop_head()).map(|r| r.0).collect();
        let want: Vec<u64> = expected.iter().map(|e| e.2).collect();
        prop_assert_eq!(drained, want);
    }

    /// Any batch of requests that each fit the instance runs to completion
    /// with exact token conservation and all blocks returned — through any
    /// pattern of admission blocking and preemption the mix provokes.
    #[test]
    fn engine_completes_any_feasible_mix(
        reqs in prop::collection::vec((1u32..600, 1u32..80, 0u64..50, any::<bool>()), 1..25)
    ) {
        let spec = InstanceSpec::tiny_for_tests(1024);
        let capacity = spec.geometry.capacity_tokens();
        let mut engine = InstanceEngine::new(InstanceId(0), spec, EngineConfig::default());
        let mut expected: Vec<(RequestId, u32)> = Vec::new();
        for (i, &(input, output, arrival, high)) in reqs.iter().enumerate() {
            let input = input.min(capacity - 80);
            let output = output.min(capacity - input);
            let meta = RequestMeta {
                id: RequestId(i as u64),
                input_len: input,
                output_len: output,
                priority: if high { PriorityPair::HIGH } else { PriorityPair::NORMAL },
                arrival: SimTime::from_millis(arrival),
            };
            engine.add_request(meta, SimTime::from_millis(arrival));
            expected.push((meta.id, output));
        }
        let mut now = SimTime::from_millis(100);
        let mut steps = 0u32;
        while let Some(plan) = engine.poll_step(now) {
            now = plan.finish_at();
            engine.complete_step(now);
            steps += 1;
            prop_assert!(engine.check_invariants());
            prop_assert!(steps < 60_000, "engine did not converge");
        }
        let finished = engine.take_finished();
        prop_assert_eq!(finished.len(), expected.len());
        for (id, want_output) in expected {
            let state = finished.iter().find(|s| s.meta.id == id).expect("finished");
            if state.aborted {
                // Only possible if the request could never fit; we sized
                // everything to fit, so this must not happen.
                prop_assert!(false, "request {} aborted unexpectedly", id);
            }
            prop_assert_eq!(state.generated, want_output, "token conservation for {}", id);
            prop_assert!(state.first_token_at.is_some());
        }
        prop_assert_eq!(engine.free_blocks(), engine.total_blocks());
        prop_assert!(!engine.has_work());
    }

    /// Under any mix of intake, step planning and completion, aborts, drains
    /// and undrains, and migration reservations and commits, the engine's
    /// running ledgers match a recount after every operation: queued demand
    /// equals a walk of the queue, free blocks equal the total minus every
    /// tracked request's `blocks_held` and every reservation, the reserved
    /// total equals the sum of the live reservations, and the resident
    /// blocks and high-priority count equal a walk of the running batch and
    /// the admitted requests. Planning and completing a step are separate
    /// operations, so aborts, drains and commits also land mid-step.
    ///
    /// Each tracked request's tokens, read through `state()`, also match a
    /// replay of the step history (each completed step's kind, planned
    /// duration, completion time and requests), so a decode run's deferred
    /// bookkeeping never shows.
    #[test]
    fn engine_ledgers_match_a_recount(ops in prop::collection::vec(engine_op(), 1..120)) {
        let spec = InstanceSpec::tiny_for_tests(1024);
        let geometry = spec.geometry;
        let mut engine = InstanceEngine::new(InstanceId(0), spec, EngineConfig::default());
        // The blocks of each live reservation, as the coordinator keeps them.
        let mut reservations: Vec<u32> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut finish_at = None;
        let mut next_id = 0u64;
        // The in-flight step as planned, and each tracked request's tokens
        // as the completed steps say they must be.
        let mut in_flight: Option<(StepKind, SimDuration, Vec<RequestId>)> = None;
        let mut history: BTreeMap<RequestId, Tokens> = BTreeMap::new();
        for op in ops {
            match op {
                EngineOp::Add(input, output, high) => {
                    let meta = RequestMeta {
                        id: RequestId(next_id),
                        input_len: input,
                        output_len: output,
                        priority: if high { PriorityPair::HIGH } else { PriorityPair::NORMAL },
                        arrival: now,
                    };
                    next_id += 1;
                    engine.add_request(meta, now);
                    history.insert(meta.id, Tokens::default());
                }
                EngineOp::Poll => {
                    if let Some(plan) = engine.poll_step(now) {
                        finish_at = Some(plan.finish_at());
                        in_flight = Some((plan.kind, plan.duration, engine.in_flight_ids()));
                    }
                    for ev in engine.take_pending_events() {
                        if let EngineEvent::Preempted(id) = ev {
                            history.get_mut(&id).expect("tracked").cached_tokens = 0;
                        }
                    }
                }
                EngineOp::Complete => {
                    if let Some(t) = finish_at.take() {
                        now = t;
                        let (kind, duration, ids) = in_flight.take().expect("planned");
                        // A decode step advances the requests still running;
                        // a prefill step, those still tracked.
                        let advanced: Vec<(RequestId, u32)> = ids
                            .into_iter()
                            .filter_map(|id| engine.state(id))
                            .filter(|s| kind == StepKind::Prefill || s.phase == Phase::Running)
                            .map(|s| (s.meta.id, s.meta.input_len))
                            .collect();
                        engine.complete_step(now);
                        for (id, input) in advanced {
                            history.get_mut(&id).expect("tracked").step(kind, input, duration, now);
                        }
                    }
                    let _ = engine.take_finished();
                }
                EngineOp::Abort(id) => {
                    let _ = engine.abort_request(RequestId(id));
                }
                EngineOp::Drain(id) => {
                    let _ = engine.request_drain(RequestId(id));
                }
                EngineOp::Undrain(i) => {
                    let draining = engine.draining_ids();
                    if !draining.is_empty() {
                        engine.undrain(draining[i % draining.len()]);
                    }
                }
                EngineOp::MigrateIn(i, j) => {
                    // A drained request leaves and lands again through a
                    // live reservation, as a migration commit would.
                    let draining = engine.draining_ids();
                    if !draining.is_empty() && !reservations.is_empty() {
                        let state = engine.finish_migration_out(draining[i % draining.len()]);
                        let blocks = reservations.swap_remove(j % reservations.len());
                        engine.insert_migrated(state, blocks);
                    }
                }
                EngineOp::Reserve(blocks) => {
                    if engine.reserve_blocks(blocks).is_ok() {
                        reservations.push(blocks);
                    }
                }
                EngineOp::GrowReservation(i, extra) => {
                    if !reservations.is_empty() && engine.reserve_blocks(extra).is_ok() {
                        let k = i % reservations.len();
                        reservations[k] += extra;
                    }
                }
                EngineOp::ReleaseReservation(i) => {
                    if !reservations.is_empty() {
                        engine.release_reservation(reservations.swap_remove(i % reservations.len()));
                    }
                }
            }
            let queued: u32 = engine
                .waiting_ids()
                .iter()
                .map(|&id| {
                    let s = engine.state(id).expect("queued request has state");
                    geometry.blocks_for_tokens(s.required_tokens())
                })
                .sum();
            prop_assert_eq!(engine.queued_demand_blocks(), queued, "op {:?}", op);
            let mut allocated = 0;
            for id in engine.tracked_ids() {
                let held = engine.state(id).expect("tracked request has state").blocks_held;
                prop_assert_eq!(engine.physical_blocks_of(id), held);
                allocated += held;
            }
            let reserved: u32 = reservations.iter().sum();
            prop_assert_eq!(engine.reserved_blocks(), reserved, "op {:?}", op);
            prop_assert_eq!(
                engine.free_blocks(),
                engine.total_blocks() - allocated - reserved,
                "op {:?}", op
            );
            let (resident_blocks, resident_high) = engine
                .running_ids()
                .into_iter()
                .chain(engine.prefill_pending_ids())
                .map(|id| engine.state(id).expect("resident request has state"))
                .fold((0u32, 0usize), |(blocks, high), s| {
                    (
                        blocks + s.blocks_held,
                        high + usize::from(s.meta.priority.execution == Priority::High),
                    )
                });
            prop_assert_eq!(engine.resident_blocks(), resident_blocks, "op {:?}", op);
            prop_assert_eq!(engine.resident_high(), resident_high, "op {:?}", op);
            prop_assert_eq!(engine.step_in_flight(), finish_at.is_some());
            prop_assert!(engine.check_invariants(), "op {:?}", op);
            history.retain(|&id, _| engine.state(id).is_some());
            for (&id, want) in &history {
                let got = Tokens::of(&engine.state(id).expect("tracked"));
                prop_assert_eq!(got, *want, "{} after op {:?}", id, op);
            }
        }
    }
}

/// The token bookkeeping of one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tokens {
    generated: u32,
    cached_tokens: u32,
    decode_compute: SimDuration,
    last_token_at: Option<SimTime>,
    max_token_gap: SimDuration,
}

impl Tokens {
    fn of(s: &SeqState) -> Self {
        Tokens {
            generated: s.generated,
            cached_tokens: s.cached_tokens,
            decode_compute: s.decode_compute,
            last_token_at: s.last_token_at,
            max_token_gap: s.max_token_gap,
        }
    }

    /// One completed step that advanced the request: a prefill caches the
    /// prompt and every generated token, then emits one; a decode step
    /// caches and emits one.
    fn step(&mut self, kind: StepKind, input_len: u32, duration: SimDuration, now: SimTime) {
        match kind {
            StepKind::Prefill => self.cached_tokens = input_len + self.generated,
            StepKind::Decode => {
                self.cached_tokens += 1;
                self.decode_compute += duration;
            }
        }
        self.generated += 1;
        if let Some(prev) = self.last_token_at {
            self.max_token_gap = self.max_token_gap.max(now.since(prev));
        }
        self.last_token_at = Some(now);
    }
}

/// A random engine-visible operation.
#[derive(Debug, Clone, Copy)]
enum EngineOp {
    /// Enqueue a request (input tokens, output tokens, high priority).
    Add(u32, u32, bool),
    /// Plan a step, if none is in flight and one is runnable.
    Poll,
    /// Complete the in-flight step, if any.
    Complete,
    /// Abort a request by id.
    Abort(u64),
    /// Ask a running request to drain out.
    Drain(u64),
    /// Return the `i`-th drained request (modulo the count) to the batch.
    Undrain(usize),
    /// Migrate the `i`-th drained request out and back in through the
    /// `j`-th live reservation (both modulo their counts).
    MigrateIn(usize, usize),
    /// Reserve blocks for an incoming migration.
    Reserve(u32),
    /// Grow the `i`-th live reservation (modulo the count).
    GrowReservation(usize, u32),
    /// Release the `i`-th live reservation (modulo the count).
    ReleaseReservation(usize),
}

fn engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        (1u32..400, 1u32..60, any::<bool>()).prop_map(|(i, o, h)| EngineOp::Add(i, o, h)),
        (1u32..400, 1u32..60, any::<bool>()).prop_map(|(i, o, h)| EngineOp::Add(i, o, h)),
        Just(EngineOp::Poll),
        Just(EngineOp::Poll),
        Just(EngineOp::Complete),
        Just(EngineOp::Complete),
        (0u64..40).prop_map(EngineOp::Abort),
        (0u64..40).prop_map(EngineOp::Drain),
        any::<usize>().prop_map(EngineOp::Undrain),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| EngineOp::MigrateIn(i, j)),
        (1u32..24).prop_map(EngineOp::Reserve),
        (any::<usize>(), 1u32..8).prop_map(|(i, n)| EngineOp::GrowReservation(i, n)),
        any::<usize>().prop_map(EngineOp::ReleaseReservation),
    ]
}
