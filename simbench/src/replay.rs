//! Kernel replays: each layer's public functions called in a loop on state
//! sized from the workload's own output.
//!
//! A replay is not a share of the run's wall time. It says what one call
//! costs at the fleet size, batch size and queue depth the workload reached,
//! so a change to a layer shows up here even when the end-to-end number is
//! too noisy to move. Every replay is deterministic and returns a work count
//! (pops, steps, blocks, pairs, commits) that must repeat exactly.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use llumnix_core::index::{DispatchIndex, IndexPolicy};
use llumnix_core::{
    AutoScaleConfig, AutoScaler, Dispatcher, Llumlet, LoadReport, MigrationThresholds, ScaleAction,
    SchedulerKind, ServingConfig, ServingOutput,
};
use llumnix_engine::{
    BlockError, BlockManager, EngineConfig, InstanceEngine, InstanceId, PriorityPair, RequestId,
    RequestMeta,
};
use llumnix_migration::{
    CommitResult, MigrationConfig, MigrationCoordinator, StageOutcome, StartOutcome,
};
use llumnix_model::{CostModel, DecodeBatch, DecodeCostMemo, InstanceSpec, PrefillBatch};
use llumnix_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// Timed batches per replay; the reported cost is their median.
const BATCHES: usize = 5;

/// The state sizes a workload's output implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Time-weighted mean instance count, rounded.
    pub fleet: usize,
    /// Tokens generated per engine step: the mean batch size.
    pub batch: usize,
    /// Mean queued requests per instance, rounded.
    pub queue_depth: usize,
    /// Mean prompt length of completed requests.
    pub mean_input: u32,
    /// Mean output length of completed requests.
    pub mean_output: u32,
}

impl Sizes {
    /// Sizes read off a finished run.
    pub fn from_output(out: &ServingOutput) -> Sizes {
        let fleet = out.avg_instances.round().max(1.0) as usize;
        let records = out.records.len().max(1) as f64;
        let tokens: u64 = out.records.iter().map(|r| u64::from(r.output_len)).sum();
        let inputs: u64 = out.records.iter().map(|r| u64::from(r.input_len)).sum();
        let steps = out.stalls.count.max(1) as f64;
        Sizes {
            fleet,
            batch: (tokens as f64 / steps).round().max(1.0) as usize,
            queue_depth: (out.queued.mean() / fleet as f64).round().max(0.0) as usize,
            mean_input: (inputs as f64 / records).round().max(1.0) as u32,
            mean_output: (tokens as f64 / records).round().max(1.0) as u32,
        }
    }
}

/// One replay's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Median over batches of host nanoseconds per operation.
    pub ns_per_op: f64,
    /// Deterministic work count summed over every operation.
    pub work: u64,
}

/// Runs `ops` operations per batch for [`BATCHES`] batches on evolving
/// state; each operation returns its work count.
fn timed<S>(
    name: &'static str,
    state: &mut S,
    ops: u64,
    mut op: impl FnMut(&mut S, u64) -> u64,
) -> Kernel {
    let mut per_op = Vec::with_capacity(BATCHES);
    let mut work = 0u64;
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..ops {
            work += op(state, i);
            i += 1;
        }
        per_op.push(started.elapsed().as_nanos() as f64 / ops as f64);
    }
    Kernel {
        name,
        ns_per_op: crate::median(&mut per_op),
        work,
    }
}

fn spec() -> InstanceSpec {
    InstanceSpec::llama_7b_a10()
}

/// A request of roughly the workload's mean shape; lengths vary with the id
/// so a batch does not finish in lockstep, and stay within one instance.
fn request(sizes: &Sizes, id: u64, arrival: SimTime) -> RequestMeta {
    let cap = spec().geometry.capacity_tokens() / 4;
    let input =
        (sizes.mean_input / 2 + (id * 37 % u64::from(sizes.mean_input)) as u32).clamp(1, cap);
    let output =
        (sizes.mean_output / 2 + (id * 53 % u64::from(sizes.mean_output)) as u32).clamp(2, cap);
    RequestMeta {
        id: RequestId(id),
        input_len: input,
        output_len: output,
        priority: PriorityPair::NORMAL,
        arrival,
    }
}

/// An engine with `batch` requests admitted and `waiting` more queued.
fn loaded_engine(sizes: &Sizes, waiting: usize) -> InstanceEngine {
    let mut engine = InstanceEngine::new(InstanceId(0), spec(), EngineConfig::default());
    let mut now = SimTime::ZERO;
    for id in 0..sizes.batch as u64 {
        engine.add_request(request(sizes, id, now), now);
    }
    // Prefill until the batch is admitted (or memory stops admission).
    for _ in 0..sizes.batch {
        if engine.waiting_len() == 0 && engine.prefill_pending_ids().is_empty() {
            break;
        }
        let Some(plan) = engine.poll_step(now) else {
            break;
        };
        now = plan.finish_at();
        engine.complete_step(now);
        engine.take_finished();
    }
    for id in 0..waiting as u64 {
        let id = sizes.batch as u64 + id;
        engine.add_request(request(sizes, id, now), now);
    }
    engine
}

/// `sim.queue.push_pop_ns`: one pop plus one re-push. Every instance keeps
/// one step completion in the coalesced calendar tier; an arrival chain and
/// a periodic tick live on the heap. Work: coalesced pushes.
pub fn event_queue(sizes: &Sizes) -> Kernel {
    let n = sizes.fleet as u32;
    // Step lengths on a 1 ms grid, so instances finish together and the
    // calendar tier coalesces them as it does for large fleets.
    let step = |i: u32| SimDuration::from_micros(20_000 + 1_000 * u64::from(i % 16));
    let arrival_gap = SimDuration::from_micros((1e6 / (8.6 * f64::from(n))).max(1.0) as u64);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..n {
        q.push_coalesced(SimTime::ZERO + step(i), i);
    }
    q.push(SimTime::ZERO, n);
    q.push(SimTime::from_millis(100), n + 1);
    timed("sim.queue.push_pop_ns", &mut q, 200_000, |q, _| {
        let (at, e) = q.pop().expect("every popped chain re-arms itself");
        if e < n {
            q.push_coalesced(at + step(e), e);
            1
        } else if e == n {
            q.push(at + arrival_gap, e);
            0
        } else {
            q.push(at + SimDuration::from_millis(100), e);
            0
        }
    })
}

/// `model.cost.decode_step_ns`: the memoised decode-step cost the engine
/// calls once per decode step, over batches around the workload's size.
/// Work: simulated microseconds returned.
pub fn decode_cost(sizes: &Sizes) -> Kernel {
    let spec = spec();
    let mut memo = DecodeCostMemo::new();
    let span = 2 * sizes.batch as u64;
    let len = u64::from(sizes.mean_input + sizes.mean_output / 2);
    timed(
        "model.cost.decode_step_ns",
        &mut memo,
        1_000_000,
        |memo, i| {
            let seqs = 1 + i % span;
            let batch = DecodeBatch {
                num_seqs: seqs as u32,
                total_tokens: seqs * len + i % 97,
            };
            memo.decode_step(&spec.cost, black_box(batch)).as_micros()
        },
    )
}

/// `model.cost.prefill_ns`: the prefill-step cost for one prompt around the
/// workload's mean prompt length. Work: simulated microseconds returned.
pub fn prefill_cost(sizes: &Sizes) -> Kernel {
    let spec = spec();
    let mean = u64::from(sizes.mean_input);
    timed("model.cost.prefill_ns", &mut (), 1_000_000, |_, i| {
        let tokens = mean / 2 + i % mean.max(1);
        let batch = PrefillBatch {
            num_seqs: 1,
            total_tokens: tokens,
            max_tokens: tokens,
        };
        spec.cost.prefill_step(black_box(batch)).as_micros()
    })
}

/// `engine.step_ns`: `poll_step` plus `complete_step` on one engine kept at
/// the workload's batch size (a finished request is replaced at once).
/// Work: steps run.
pub fn engine_step(sizes: &Sizes) -> Kernel {
    let mut engine = loaded_engine(sizes, 0);
    let mut state = (&mut engine, SimTime::ZERO, sizes.batch as u64);
    timed(
        "engine.step_ns",
        &mut state,
        20_000,
        |(engine, now, next_id), _| {
            let Some(plan) = engine.poll_step(*now) else {
                return 0;
            };
            *now = plan.finish_at();
            black_box(engine.complete_step(*now));
            black_box(engine.take_pending_events());
            for _ in engine.take_finished() {
                engine.add_request(request(sizes, *next_id, *now), *now);
                *next_id += 1;
            }
            1
        },
    )
}

/// `engine.block.churn_ns`: one `BlockManager` release, allocate and grow,
/// keeping the workload's batch of requests resident. Work: blocks
/// allocated.
pub fn block_churn(sizes: &Sizes) -> Kernel {
    let geometry = spec().geometry;
    let prompt_blocks = geometry.blocks_for_tokens(sizes.mean_input).max(1);
    let mut state = (
        BlockManager::new(geometry.total_blocks),
        VecDeque::<RequestId>::new(),
        0u64,
    );
    timed(
        "engine.block.churn_ns",
        &mut state,
        200_000,
        |(blocks, live, next), i| {
            if live.len() >= sizes.batch {
                let old = live.pop_front().expect("non-empty");
                blocks.release(old).expect("live requests hold blocks");
            }
            let id = RequestId(*next);
            *next += 1;
            let mut allocated = 0;
            loop {
                match blocks.allocate(id, prompt_blocks) {
                    Ok(()) => {
                        allocated += u64::from(prompt_blocks);
                        live.push_back(id);
                        break;
                    }
                    Err(BlockError::OutOfBlocks { .. }) => match live.pop_front() {
                        Some(old) => {
                            blocks.release(old).expect("live requests hold blocks");
                        }
                        None => break,
                    },
                    Err(e) => unreachable!("fresh id: {e}"),
                }
            }
            let grow = live.get((i % live.len().max(1) as u64) as usize);
            if grow.is_some_and(|&id| blocks.grow(id, 1).is_ok()) {
                allocated += 1;
            }
            allocated
        },
    )
}

/// `core.llumlet.report_ns`: an uncached load report (`report_fresh`) from
/// an instance holding the workload's batch and mean queue depth. Work:
/// running and queued requests seen.
pub fn llumlet_report(sizes: &Sizes) -> Kernel {
    let llumlet = Llumlet::new(loaded_engine(sizes, sizes.queue_depth), SimTime::ZERO, None);
    let headroom = ServingConfig::new(SchedulerKind::Llumnix, 1).headroom;
    let now = SimTime::from_secs(1);
    timed("core.llumlet.report_ns", &mut (), 50_000, |_, _| {
        let report = black_box(&llumlet).report_fresh(now, &headroom);
        (report.num_running + report.num_waiting) as u64
    })
}

/// Load reports for `n` instances with freeness spread across both
/// migration thresholds.
fn reports(n: usize, rng: &mut SimRng) -> Vec<LoadReport> {
    (0..n)
        .map(|i| {
            let freeness = rng.uniform_range(-20.0, 120.0);
            LoadReport {
                id: InstanceId(i as u32),
                freeness,
                freeness_physical: freeness + 10.0,
                memory_load: rng.uniform(),
                num_running: rng.index(32),
                num_waiting: rng.index(4),
                terminating: false,
                starting: false,
            }
        })
        .collect()
}

fn index(sizes: &Sizes, autoscale: bool, reports: &[LoadReport]) -> DispatchIndex {
    let mut index = DispatchIndex::new(IndexPolicy::for_run(SchedulerKind::Llumnix, autoscale));
    for r in reports {
        index.update(r);
    }
    let order: Vec<InstanceId> = (0..sizes.fleet as u32).map(InstanceId).collect();
    index.sync_order(&order);
    index
}

/// `core.index.update_ns`: one `DispatchIndex::update` with a moved load
/// report. Work: updates applied.
pub fn index_update(sizes: &Sizes, autoscale: bool) -> Kernel {
    let mut rng = SimRng::new(1);
    let mut state = reports(sizes.fleet, &mut rng);
    let mut idx = index(sizes, autoscale, &state);
    let n = state.len() as u64;
    timed("core.index.update_ns", &mut state, 200_000, |reports, i| {
        let r = &mut reports[(i % n) as usize];
        r.freeness = rng.uniform_range(-20.0, 120.0);
        r.freeness_physical = r.freeness + 10.0;
        r.num_running = (r.num_running + 1) % 32;
        black_box(idx.update(r));
        1
    })
}

/// `core.index.dispatch_ns`: one Llumnix dispatch decision off the index.
/// Work: sum of chosen instance ids.
pub fn index_dispatch(sizes: &Sizes, autoscale: bool) -> Kernel {
    let mut rng = SimRng::new(2);
    let reports = reports(sizes.fleet, &mut rng);
    let idx = index(sizes, autoscale, &reports);
    let mut dispatcher = Dispatcher::new();
    timed(
        "core.index.dispatch_ns",
        &mut dispatcher,
        500_000,
        |d, _| {
            d.dispatch_indexed(SchedulerKind::Llumnix, black_box(&idx), false)
                .map_or(0, |id| u64::from(id.0))
        },
    )
}

/// `core.policy.pair_ns`: one migration-pairing decision over the fleet,
/// read off the dispatch index (`DispatchIndex::pair`, what the classic loop
/// calls every migration tick; `pair_migrations` is only its debug-build
/// cross-check). Work: pairs formed.
pub fn pair(sizes: &Sizes, autoscale: bool) -> Kernel {
    let mut rng = SimRng::new(3);
    let reports = reports(sizes.fleet, &mut rng);
    let idx = index(sizes, autoscale, &reports);
    timed("core.policy.pair_ns", &mut (), 20_000, |_, _| {
        black_box(&idx).pair(MigrationThresholds::default()).len() as u64
    })
}

/// `core.policy.scale_ns`: one auto-scaler observation of a slowly swinging
/// average freeness, for a fleet of the workload's size. Work: scale
/// actions taken.
pub fn scale(sizes: &Sizes) -> Kernel {
    let fleet = sizes.fleet as u32;
    let mut config = AutoScaleConfig::paper_default(4 * fleet);
    config.min_instances = (fleet / 2).max(1);
    let mut state = (AutoScaler::new(config), fleet);
    timed(
        "core.policy.scale_ns",
        &mut state,
        200_000,
        |(scaler, alive), i| {
            let avg = 35.0 + 40.0 * (i as f64 / 600.0).sin();
            let now = SimTime::ZERO + SimDuration::from_millis(100 * i);
            match scaler.observe_counts(black_box(avg), *alive, *alive, now) {
                Some(ScaleAction::Up) => {
                    *alive += 1;
                    1
                }
                Some(ScaleAction::Down) => {
                    *alive -= 1;
                    1
                }
                None => 0,
            }
        },
    )
}

/// `migration.roundtrip_ns`: one live migration through the coordinator:
/// start, stages, commit, moving one running request of the workload's mean
/// length back and forth between two idle engines. Work: commits.
pub fn migration_roundtrip(sizes: &Sizes) -> Kernel {
    let single = Sizes { batch: 1, ..*sizes };
    let a = loaded_engine(&single, 0);
    let b = InstanceEngine::new(InstanceId(1), spec(), EngineConfig::default());
    let request = a.running_ids().first().copied().unwrap_or(RequestId(0));
    let mut state = (
        MigrationCoordinator::new(MigrationConfig::default()),
        a,
        b,
        SimTime::from_secs(1),
    );
    timed(
        "migration.roundtrip_ns",
        &mut state,
        50_000,
        |(coord, a, b, now), i| {
            let (src, dst) = if i % 2 == 0 {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            let StartOutcome::Started { id, stage_done_at } = coord.start(request, src, dst, *now)
            else {
                return 0;
            };
            *now = stage_done_at;
            loop {
                match coord.on_stage_done(id, src, dst, *now) {
                    Some(StageOutcome::NextStage { copy_done_at }) => *now = copy_done_at,
                    Some(StageOutcome::FinalCopy { commit_at }) => {
                        *now = commit_at;
                        break;
                    }
                    // The source is idle, so a drain never waits for a step.
                    Some(StageOutcome::DrainRequested | StageOutcome::Aborted(_)) | None => {
                        return 0
                    }
                }
            }
            u64::from(matches!(
                coord.on_commit(id, src, dst, *now),
                CommitResult::Committed(_)
            ))
        },
    )
}

/// Every replay, in per-layer metric order. `scale` runs on every workload
/// (at its fleet size) so the metric is always present.
pub fn all(sizes: &Sizes, autoscale: bool) -> Vec<Kernel> {
    vec![
        event_queue(sizes),
        decode_cost(sizes),
        prefill_cost(sizes),
        engine_step(sizes),
        block_churn(sizes),
        llumlet_report(sizes),
        index_update(sizes, autoscale),
        index_dispatch(sizes, autoscale),
        pair(sizes, autoscale),
        scale(sizes),
        migration_roundtrip(sizes),
    ]
}
