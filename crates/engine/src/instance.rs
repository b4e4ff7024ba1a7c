//! The per-instance inference engine.
//!
//! [`InstanceEngine`] reproduces the scheduling-relevant behaviour of a vLLM
//! instance (§2): continuous batching (requests join/leave the running batch
//! at iteration boundaries), dynamic paged KV allocation, all-at-once prefill
//! admission (the fragmentation driver), and recompute-style preemption when
//! decode growth runs out of blocks. Step durations come from the calibrated
//! cost model; the engine itself is deterministic.
//!
//! The engine also exposes the hooks live migration needs: reservations on
//! the destination, drain/snapshot/commit on the source, and a small
//! decode-overhead factor while migrations are in flight (§6.2 measures ≈1%).

use std::collections::BTreeSet;

use llumnix_model::{CostModel, DecodeBatch, InstanceSpec, PrefillBatch};
use llumnix_sim::{SimDuration, SimTime};

use crate::block::{BlockError, BlockManager, ReservationId};
use crate::id_hash::IdMap;
use crate::queue::{QueueOrder, WaitQueue};
use crate::request::{Phase, Priority, RequestId, RequestMeta, SeqState};

/// Unique instance identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl core::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Max prompt tokens prefetched in one prefill step (vLLM's
    /// `max_num_batched_tokens`-style budget).
    pub max_prefill_tokens_per_step: u32,
    /// Decode/prefill slowdown while a migration touches this instance
    /// (paper §6.2: ≈1%).
    pub migration_overhead_factor: f64,
    /// How preempted requests recover their KV cache.
    pub preemption_mode: PreemptionMode,
    /// Cap on concurrently running sequences (vLLM's `max_num_seqs`).
    pub max_batch_size: usize,
    /// Queue ordering within a scheduling-priority class.
    pub queue_order: QueueOrder,
    /// Blocks kept free at admission (vLLM's `watermark`): a new request is
    /// only admitted if `needed + watermark` blocks are free, leaving slack
    /// for the running batch's growth and reducing immediate re-preemption.
    /// 0 reproduces the calibrated behaviour of this repo's experiments.
    pub admission_watermark_blocks: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_prefill_tokens_per_step: 4096,
            migration_overhead_factor: 1.01,
            preemption_mode: PreemptionMode::Recompute,
            max_batch_size: 256,
            queue_order: QueueOrder::Fcfs,
            admission_watermark_blocks: 0,
        }
    }
}

/// vLLM's two preemption-recovery strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionMode {
    /// Drop the KV cache and recompute it when rescheduled (the mode the
    /// paper's experiments run under).
    #[default]
    Recompute,
    /// Swap the KV cache to host memory over PCIe and swap it back in when
    /// rescheduled. Swap-out overlaps with compute (a side copy stream);
    /// swap-in stalls the readmission step for the transfer time.
    Swap,
}

/// What a planned step computes. The step's requests are
/// [`InstanceEngine::in_flight_ids`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Prefill (or preemption recompute, or swap-in).
    Prefill,
    /// One decode iteration.
    Decode,
}

/// A step the engine has committed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    /// What the step computes.
    pub kind: StepKind,
    /// When the step started.
    pub started: SimTime,
    /// How long it runs.
    pub duration: SimDuration,
}

impl StepPlan {
    /// When the step finishes.
    pub fn finish_at(&self) -> SimTime {
        self.started + self.duration
    }
}

/// Events surfaced to the cluster on step completion and drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// The request emitted its first token (prefill done).
    FirstToken(RequestId),
    /// The request generated EOS and finished.
    Finished(RequestId),
    /// The request was preempted (blocks released, back to the queue).
    Preempted(RequestId),
    /// The request left the batch for its final migration stage.
    Drained(RequestId),
    /// The request can never fit on this instance and was aborted.
    Aborted(RequestId),
}

/// Outcome of a drain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Removed from the batch immediately (no step in flight).
    Drained,
    /// A step is in flight; the drain completes when it finishes.
    Pending,
    /// The request is not in the running batch.
    NotRunning,
}

/// Running counters for one instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Prefill steps executed.
    pub prefill_steps: u64,
    /// Preemptions performed.
    pub preemptions: u64,
    /// Requests finished on this instance.
    pub finished: u64,
    /// Total busy time (steps in flight).
    pub busy_time: SimDuration,
}

/// A vLLM-like serving instance.
///
/// `Clone` supports the sim-level snapshot/fork capability: a clone is an
/// independent engine with identical batches, block ledgers, and in-flight
/// step, continuing byte-identically.
#[derive(Clone)]
pub struct InstanceEngine {
    /// Instance id.
    pub id: InstanceId,
    spec: InstanceSpec,
    config: EngineConfig,
    blocks: BlockManager,
    waiting: WaitQueue,
    /// Blocks demanded by every queued request: a running ledger kept in
    /// step with `waiting`, so [`InstanceEngine::queued_demand_blocks`] is
    /// O(1). [`InstanceEngine::check_invariants`] re-walks the queue.
    queued_demand: u32,
    /// Admitted requests awaiting prefill, as slots of `states`.
    prefill_pending: Vec<u32>,
    /// The running batch, as slots of `states`. Exactly the requests in
    /// [`Phase::Running`].
    running: Vec<u32>,
    /// The residents, `running ∪ prefill_pending`, as a running ledger kept
    /// in step with both lists, so a load report reads it in O(1).
    /// [`InstanceEngine::check_invariants`] re-walks the lists.
    residents: Residents,
    /// Per-request state, in a slab indexed by slot.
    states: Slab,
    in_flight: Option<StepPlan>,
    /// The in-flight step's requests in batch order as `(slot, id)`, empty
    /// when idle. One buffer reused by every step, so planning a step
    /// allocates nothing. An abort mid-step frees a slot that a later
    /// request can take before the step completes, so completion skips an
    /// entry whose slot no longer holds its id.
    step: Vec<(u32, RequestId)>,
    /// Drains deferred to the step boundary. A `BTreeSet` so the boundary
    /// flush emits `Drained` events in id order, not hasher order.
    drain_requested: BTreeSet<RequestId>,
    active_migrations: u32,
    finished: Vec<SeqState>,
    pending_events: Vec<EngineEvent>,
    stats: EngineStats,
    version: u64,
}

impl InstanceEngine {
    /// Creates an idle instance.
    pub fn new(id: InstanceId, spec: InstanceSpec, config: EngineConfig) -> Self {
        let blocks = BlockManager::new(spec.geometry.total_blocks);
        let waiting = WaitQueue::with_order(config.queue_order);
        InstanceEngine {
            id,
            spec,
            config,
            blocks,
            waiting,
            queued_demand: 0,
            prefill_pending: Vec::new(),
            running: Vec::new(),
            residents: Residents::default(),
            states: Slab::default(),
            in_flight: None,
            step: Vec::new(),
            drain_requested: BTreeSet::new(),
            active_migrations: 0,
            finished: Vec::new(),
            pending_events: Vec::new(),
            stats: EngineStats::default(),
            version: 0,
        }
    }

    /// The instance spec.
    pub fn spec(&self) -> &InstanceSpec {
        &self.spec
    }

    /// Running counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// A counter bumped by every mutating call, so load reports derived from
    /// this engine can be cached and invalidated without tracking which
    /// mutation touched which signal.
    ///
    /// The one exception is a take that returns nothing:
    /// [`InstanceEngine::take_finished`] and
    /// [`InstanceEngine::take_pending_events`] change no state then, so they
    /// leave the counter alone. (No load report reads either list.)
    pub fn version(&self) -> u64 {
        self.version
    }

    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    // ---- request intake -------------------------------------------------

    /// Enqueues a newly dispatched request.
    pub fn add_request(&mut self, meta: RequestMeta, now: SimTime) {
        self.touch();
        debug_assert!(self.states.slot(meta.id).is_none(), "duplicate {}", meta.id);
        let state = SeqState::new(meta, now);
        self.queued_demand += self.demand_blocks(&state);
        self.waiting.insert_with_demand(
            meta.id,
            meta.priority.scheduling,
            meta.arrival,
            state.required_tokens(),
        );
        self.states.insert(state);
    }

    /// Aborts a request wherever it is (failure injection / cancellations).
    /// Returns its state if it was known.
    pub fn abort_request(&mut self, id: RequestId) -> Option<SeqState> {
        self.touch();
        self.drain_requested.remove(&id);
        if self.blocks.blocks_of(id) > 0 {
            let _ = self.blocks.release(id);
        }
        let slot = self.states.slot(id)?;
        if self.waiting.remove(id) {
            self.queued_demand -= self.demand_blocks(self.states.get(slot));
        }
        let resident =
            remove_slot(&mut self.prefill_pending, slot) | remove_slot(&mut self.running, slot);
        let state = self.states.remove(slot);
        if resident {
            self.residents.remove(&state);
        }
        Some(state)
    }

    // ---- step loop -------------------------------------------------------

    /// Whether a step is currently in flight.
    pub fn step_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Whether the instance has any request in any phase.
    pub fn has_work(&self) -> bool {
        !self.waiting.is_empty() || !self.prefill_pending.is_empty() || !self.running.is_empty()
    }

    /// Plans the next step if the engine is idle and work is runnable.
    ///
    /// Performs admission (all-or-nothing block allocation for the
    /// head-of-line request), preemption when decode growth cannot be
    /// satisfied, and returns the planned step. The caller schedules a
    /// completion event at `plan.finish_at()` and then calls
    /// [`InstanceEngine::complete_step`].
    pub fn poll_step(&mut self, now: SimTime) -> Option<StepPlan> {
        if self.in_flight.is_some() {
            return None;
        }
        debug_assert!(self.step.is_empty(), "idle engine with step entries");
        self.touch();
        self.admit(now);
        let plan = if !self.prefill_pending.is_empty() {
            Some(self.plan_prefill(now))
        } else {
            self.plan_decode(now)
        };
        self.in_flight = plan;
        plan
    }

    /// Admits waiting requests while the head-of-line request fits (both in
    /// blocks and under the batch-size cap).
    fn admit(&mut self, now: SimTime) {
        while let Some(head) = self.waiting.head() {
            if self.running.len() + self.prefill_pending.len() >= self.config.max_batch_size {
                break;
            }
            let slot = self.states.slot(head).expect("queued request has state");
            let needed = self.demand_blocks(self.states.get(slot));
            let watermark = self.config.admission_watermark_blocks;
            if needed.saturating_add(watermark) > self.blocks.total_blocks() {
                // Can never fit on this instance: abort rather than deadlock.
                self.waiting.pop_head();
                self.queued_demand -= needed;
                let mut state = self.states.remove(slot);
                state.finished_at = Some(now);
                state.aborted = true;
                self.finished.push(state);
                self.pending_events.push(EngineEvent::Aborted(head));
                continue;
            }
            if self.blocks.free_blocks() < needed.saturating_add(watermark) {
                break;
            }
            match self.blocks.allocate(head, needed) {
                Ok(()) => {
                    self.waiting.pop_head();
                    self.queued_demand -= needed;
                    let state = self.states.get_mut(slot);
                    state.phase = Phase::Prefilling;
                    state.blocks_held = needed;
                    self.residents.add(state);
                    self.prefill_pending.push(slot);
                }
                Err(BlockError::OutOfBlocks { .. }) => break,
                Err(e) => unreachable!("admission allocate: {e}"),
            }
        }
    }

    /// Plans a prefill step over pending admissions, within the token budget.
    ///
    /// Swapped-out requests in the batch contribute a PCIe swap-in transfer
    /// instead of prefill compute.
    ///
    /// The step's requests leave `prefill_pending` for the step buffer, so
    /// they stop counting as residents until the step completes.
    fn plan_prefill(&mut self, now: SimTime) -> StepPlan {
        let mut num_seqs = 0u32;
        let mut total = 0u64;
        let mut max = 0u64;
        let mut swap_tokens = 0u64;
        let budget = self.config.max_prefill_tokens_per_step as u64;
        let mut kept = 0;
        for i in 0..self.prefill_pending.len() {
            let slot = self.prefill_pending[i];
            let s = self.states.get(slot);
            let tokens = s.required_tokens() as u64;
            if !self.step.is_empty() && total + tokens > budget {
                self.prefill_pending[kept] = slot;
                kept += 1;
                continue;
            }
            if s.swapped_out {
                swap_tokens += tokens;
            } else {
                num_seqs += 1;
                total += tokens;
                max = max.max(tokens);
            }
            self.residents.remove(s);
            self.step.push((slot, s.meta.id));
        }
        self.prefill_pending.truncate(kept);
        let compute = self.spec.cost.prefill_step(PrefillBatch {
            num_seqs,
            total_tokens: total,
            max_tokens: max,
        });
        let swap_in = self.swap_in_time(swap_tokens);
        let duration = self.with_overhead(compute + swap_in);
        self.stats.prefill_steps += 1;
        StepPlan {
            kind: StepKind::Prefill,
            started: now,
            duration,
        }
    }

    /// PCIe transfer time to swap `tokens` of KV back into device memory.
    fn swap_in_time(&self, tokens: u64) -> SimDuration {
        if tokens == 0 {
            return SimDuration::ZERO;
        }
        let bytes = self.spec.model.kv_bytes_per_token() * tokens;
        SimDuration::from_millis(1)
            + SimDuration::from_secs_f64(bytes as f64 / self.spec.transfer.pcie_bandwidth)
    }

    /// Plans one decode iteration, preempting if block growth cannot fit.
    fn plan_decode(&mut self, now: SimTime) -> Option<StepPlan> {
        // Grow each sequence's allocation for the token this step appends.
        // Victims are chosen lowest-execution-priority first, then latest
        // arrival (vLLM preempts the most recent request).
        let geometry = self.spec.geometry;
        // Most steps append into a block the sequence already holds, so the
        // division runs only when the new token crosses a block boundary.
        let growth = |s: &SeqState| {
            if s.cached_tokens < s.blocks_held * geometry.block_tokens {
                0
            } else {
                geometry
                    .blocks_for_tokens(s.cached_tokens + 1)
                    .saturating_sub(s.blocks_held)
            }
        };
        let total_tokens = loop {
            if self.running.is_empty() {
                return None;
            }
            // One pass sums the growth and the batch's tokens; growing
            // changes no request's length.
            let (needed, tokens) = self.running.iter().fold((0u32, 0u64), |(n, t), &slot| {
                let s = self.states.get(slot);
                (n + growth(s), t + s.total_len() as u64)
            });
            if needed <= self.blocks.free_blocks() {
                if needed > 0 {
                    for &slot in &self.running {
                        let s = self.states.get_mut(slot);
                        let extra = growth(s);
                        if extra > 0 {
                            self.blocks.grow(s.meta.id, extra).expect("checked total");
                            s.blocks_held += extra;
                        }
                    }
                    self.residents.blocks += needed;
                }
                break tokens;
            }
            if !self.preempt_one(now) {
                // Only one request left and it still cannot grow: it can
                // never proceed here. Preempt it too; admission will abort
                // it if it cannot ever fit.
                if let Some(&slot) = self.running.first() {
                    self.preempt(slot, now);
                    continue;
                }
                return None;
            }
        };
        let batch = DecodeBatch {
            num_seqs: self.running.len() as u32,
            total_tokens,
        };
        let compute = self.spec.cost.decode_step(batch.bucket_floor());
        let duration = self.with_overhead(compute);
        self.stats.decode_steps += 1;
        let states = &self.states;
        self.step.extend(
            self.running
                .iter()
                .map(|&slot| (slot, states.get(slot).meta.id)),
        );
        Some(StepPlan {
            kind: StepKind::Decode,
            started: now,
            duration,
        })
    }

    /// Preempts the best victim among running requests, if more than one is
    /// running. Returns whether a victim was preempted.
    fn preempt_one(&mut self, now: SimTime) -> bool {
        if self.running.len() <= 1 {
            return false;
        }
        let victim = self
            .running
            .iter()
            .copied()
            .min_by_key(|&slot| {
                let s = self.states.get(slot);
                // Lowest execution priority first; break ties by latest
                // arrival (newest request loses).
                (
                    s.meta.priority.execution,
                    core::cmp::Reverse(s.meta.arrival),
                    core::cmp::Reverse(s.meta.id),
                )
            })
            .expect("non-empty running");
        self.preempt(victim, now);
        true
    }

    /// Preempts the running request in `slot`: releases its blocks and
    /// re-queues it for recompute or swap-in, per the configured
    /// [`PreemptionMode`].
    fn preempt(&mut self, slot: u32, now: SimTime) {
        remove_slot(&mut self.running, slot);
        let mode = self.config.preemption_mode;
        let s = self.states.get_mut(slot);
        let id = s.meta.id;
        let _ = self.blocks.release(id);
        self.residents.remove(s);
        s.phase = Phase::Waiting;
        s.cached_tokens = 0;
        s.blocks_held = 0;
        s.swapped_out = mode == PreemptionMode::Swap;
        s.preemptions += 1;
        s.preempted_at = Some(now);
        s.enqueued_at = now;
        self.stats.preemptions += 1;
        let demand = s.required_tokens();
        let (sched, arrival) = (s.meta.priority.scheduling, s.meta.arrival);
        self.waiting.insert_with_demand(id, sched, arrival, demand);
        self.queued_demand += self.spec.geometry.blocks_for_tokens(demand);
        // An in-progress drain of a preempted request is void: the migration
        // coordinator observes the Preempted event and aborts.
        self.drain_requested.remove(&id);
        self.pending_events.push(EngineEvent::Preempted(id));
    }

    /// Drains events produced outside `complete_step` (preemptions during
    /// step planning, admission-time aborts). Callers should collect these
    /// after every [`InstanceEngine::poll_step`]. An empty take leaves
    /// [`InstanceEngine::version`] alone.
    pub fn take_pending_events(&mut self) -> Vec<EngineEvent> {
        if self.pending_events.is_empty() {
            return Vec::new();
        }
        self.touch();
        std::mem::take(&mut self.pending_events)
    }

    /// Completes the in-flight step, applying token/bookkeeping effects.
    ///
    /// # Panics
    ///
    /// Panics if no step is in flight (a scheduling logic error).
    pub fn complete_step(&mut self, now: SimTime) -> Vec<EngineEvent> {
        self.touch();
        let plan = self.in_flight.take().expect("complete_step without a step");
        self.stats.busy_time += plan.duration;
        let mut events = std::mem::take(&mut self.pending_events);
        let mut step = std::mem::take(&mut self.step);
        match plan.kind {
            StepKind::Prefill => {
                for &(slot, id) in &step {
                    // The request may have been aborted mid-step, and its
                    // slot taken by a later request.
                    let Some(s) = self.states.get_live_mut(slot, id) else {
                        continue;
                    };
                    s.cached_tokens = s.required_tokens();
                    if s.swapped_out {
                        // Swap-in restores the KV; no new token is produced.
                        s.swapped_out = false;
                        if let Some(t) = s.preempted_at.take() {
                            s.preemption_loss += now.since(t);
                        }
                        s.phase = Phase::Running;
                        self.residents.add(s);
                        self.running.push(slot);
                        continue;
                    }
                    s.generated += 1;
                    s.note_token(now);
                    // Prefill's emitted token needs its KV slot for the next
                    // iteration; growth is handled at the next decode plan.
                    if s.first_token_at.is_none() {
                        s.first_token_at = Some(now);
                        events.push(EngineEvent::FirstToken(id));
                    }
                    if let Some(t) = s.preempted_at.take() {
                        s.preemption_loss += now.since(t);
                    }
                    if s.is_complete() {
                        events.push(EngineEvent::Finished(id));
                        self.finish(slot, now);
                    } else {
                        s.phase = Phase::Running;
                        self.residents.add(s);
                        self.running.push(slot);
                    }
                }
            }
            StepKind::Decode => {
                for &(slot, id) in &step {
                    // Skip requests that left the batch mid-step (aborted,
                    // their slot empty or taken by a later request); the
                    // Running phase is exactly membership of `running`.
                    let Some(s) = self
                        .states
                        .get_live_mut(slot, id)
                        .filter(|s| s.phase == Phase::Running)
                    else {
                        continue;
                    };
                    s.generated += 1;
                    s.cached_tokens += 1;
                    s.note_token(now);
                    s.decode_compute += plan.duration;
                    if s.is_complete() {
                        events.push(EngineEvent::Finished(id));
                        self.residents.remove(s);
                        remove_slot(&mut self.running, slot);
                        self.drain_requested.remove(&id);
                        self.finish(slot, now);
                    }
                }
            }
        }
        step.clear();
        self.step = step;
        if self.drain_requested.is_empty() {
            return events;
        }
        // Apply drains requested while the step was in flight, in id order.
        for id in std::mem::take(&mut self.drain_requested) {
            if let Some(slot) = self.running_slot(id) {
                self.do_drain(slot);
                events.push(EngineEvent::Drained(id));
            }
        }
        events
    }

    /// Marks the request in `slot` finished and parks its state for
    /// collection.
    fn finish(&mut self, slot: u32, now: SimTime) {
        let mut s = self.states.remove(slot);
        let _ = self.blocks.release(s.meta.id);
        s.phase = Phase::Finished;
        s.finished_at = Some(now);
        s.blocks_held = 0;
        self.stats.finished += 1;
        self.finished.push(s);
    }

    /// Takes the states of requests that finished (or were aborted at
    /// admission) since the last call. An empty take leaves
    /// [`InstanceEngine::version`] alone.
    pub fn take_finished(&mut self) -> Vec<SeqState> {
        if self.finished.is_empty() {
            return Vec::new();
        }
        self.touch();
        std::mem::take(&mut self.finished)
    }

    /// Whether [`InstanceEngine::take_finished`] would return anything.
    pub fn has_finished(&self) -> bool {
        !self.finished.is_empty()
    }

    // ---- migration hooks -------------------------------------------------

    /// Requests that a running request leave the batch for its final
    /// migration stage.
    pub fn request_drain(&mut self, id: RequestId) -> DrainOutcome {
        self.touch();
        let Some(slot) = self.running_slot(id) else {
            return DrainOutcome::NotRunning;
        };
        if self.in_flight.is_some() {
            self.drain_requested.insert(id);
            return DrainOutcome::Pending;
        }
        self.do_drain(slot);
        DrainOutcome::Drained
    }

    /// The slot of `id` if it is in the running batch. The batch is exactly
    /// the requests in [`Phase::Running`], so no walk of it is needed.
    fn running_slot(&self, id: RequestId) -> Option<u32> {
        self.states
            .slot(id)
            .filter(|&slot| self.states.get(slot).phase == Phase::Running)
    }

    fn do_drain(&mut self, slot: u32) {
        remove_slot(&mut self.running, slot);
        let s = self.states.get_mut(slot);
        s.phase = Phase::Draining;
        self.residents.remove(s);
    }

    /// Cancels a pending (not yet executed) drain request, e.g. when the
    /// migration that asked for it aborts before the step boundary.
    pub fn cancel_drain(&mut self, id: RequestId) {
        self.touch();
        self.drain_requested.remove(&id);
    }

    /// Re-inserts a drained request into the batch (migration aborted after
    /// the drain, e.g. destination failure).
    pub fn undrain(&mut self, id: RequestId) {
        self.touch();
        let slot = self.states.slot(id).expect("undrain unknown request");
        let s = self.states.get_mut(slot);
        assert_eq!(s.phase, Phase::Draining, "undrain of non-draining {id}");
        s.phase = Phase::Running;
        self.residents.add(s);
        self.running.push(slot);
    }

    /// Read-only state of a resident request.
    pub fn state(&self, id: RequestId) -> Option<&SeqState> {
        Some(self.states.get(self.states.slot(id)?))
    }

    /// Mutable state access for the migration coordinator's accounting. The
    /// resident ledgers assume callers leave `blocks_held` and the priority
    /// of a running or admitted request alone.
    pub fn state_mut(&mut self, id: RequestId) -> Option<&mut SeqState> {
        self.touch();
        Some(self.states.get_mut(self.states.slot(id)?))
    }

    /// Running requests eligible to migrate out (decoding, not already
    /// draining), as `(id, execution priority, current length)`.
    pub fn migratable_requests(&self) -> Vec<(RequestId, crate::request::Priority, u32)> {
        self.running
            .iter()
            .map(|&slot| self.states.get(slot))
            .filter(|s| !self.drain_requested.contains(&s.meta.id))
            .map(|s| (s.meta.id, s.meta.priority.execution, s.total_len()))
            .collect()
    }

    /// Removes a migrated-out request entirely, releasing its blocks
    /// (the source side of the migration commit). Returns its state.
    pub fn finish_migration_out(&mut self, id: RequestId) -> SeqState {
        self.touch();
        let _ = self.blocks.release(id);
        let slot = self.states.slot(id).expect("migrating request has state");
        let mut s = self.states.remove(slot);
        s.blocks_held = 0;
        s
    }

    /// Installs a migrated-in request: its reservation becomes a live
    /// allocation and it joins the running batch directly (no re-prefill —
    /// the KV arrived with it).
    pub fn insert_migrated(
        &mut self,
        mut state: SeqState,
        reservation: ReservationId,
    ) -> Result<(), BlockError> {
        self.touch();
        let id = state.meta.id;
        let blocks = self.blocks.commit_reservation(reservation, id)?;
        state.blocks_held = blocks;
        state.phase = Phase::Running;
        self.residents.add(&state);
        let slot = self.states.insert(state);
        self.running.push(slot);
        Ok(())
    }

    /// Reserves blocks for an incoming migration stage.
    pub fn reserve_blocks(&mut self, blocks: u32) -> Result<ReservationId, BlockError> {
        self.touch();
        self.blocks.reserve(blocks)
    }

    /// Grows an incoming migration's reservation.
    pub fn grow_reservation(&mut self, id: ReservationId, extra: u32) -> Result<(), BlockError> {
        self.touch();
        self.blocks.grow_reservation(id, extra)
    }

    /// Releases an aborted migration's reservation.
    pub fn release_reservation(&mut self, id: ReservationId) -> Result<u32, BlockError> {
        self.touch();
        self.blocks.release_reservation(id)
    }

    /// Registers that a migration started touching this instance.
    pub fn migration_started(&mut self) {
        self.touch();
        self.active_migrations += 1;
    }

    /// Registers that a migration stopped touching this instance.
    pub fn migration_ended(&mut self) {
        self.touch();
        debug_assert!(self.active_migrations > 0);
        self.active_migrations = self.active_migrations.saturating_sub(1);
    }

    /// Stretches a step by the migration overhead while a migration
    /// touches this instance. Otherwise the step is returned as is, which is
    /// what `mul_f64(1.0)` returns for every duration below 2^50 µs, without
    /// its float round trip.
    fn with_overhead(&self, duration: SimDuration) -> SimDuration {
        if self.active_migrations > 0 {
            duration.mul_f64(self.config.migration_overhead_factor)
        } else {
            duration
        }
    }

    // ---- load queries ----------------------------------------------------

    /// Free KV blocks.
    pub fn free_blocks(&self) -> u32 {
        self.blocks.free_blocks()
    }

    /// Total KV blocks.
    pub fn total_blocks(&self) -> u32 {
        self.blocks.total_blocks()
    }

    /// Blocks physically held by a request.
    pub fn physical_blocks_of(&self, id: RequestId) -> u32 {
        self.blocks.blocks_of(id)
    }

    /// A [`DecodeBatch`] summary of the current running batch, used by the
    /// migration coordinator to estimate the current step time.
    pub fn decode_batch_hint(&self) -> DecodeBatch {
        DecodeBatch {
            num_seqs: self.running.len() as u32,
            total_tokens: self
                .running
                .iter()
                .map(|&slot| self.states.get(slot).total_len() as u64)
                .sum(),
        }
    }

    /// Number of requests in the running batch (the freeness denominator).
    pub fn batch_size(&self) -> usize {
        self.running.len() + self.prefill_pending.len()
    }

    /// Number of queued requests.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Ids in the running batch, in batch order.
    pub fn running_ids(&self) -> Vec<RequestId> {
        self.ids_of(&self.running)
    }

    /// Ids admitted and awaiting prefill, in admission order.
    pub fn prefill_pending_ids(&self) -> Vec<RequestId> {
        self.ids_of(&self.prefill_pending)
    }

    fn ids_of(&self, slots: &[u32]) -> Vec<RequestId> {
        slots
            .iter()
            .map(|&slot| self.states.get(slot).meta.id)
            .collect()
    }

    /// Ids in the in-flight step, in batch order; empty when no step is in
    /// flight. A decode step's ids are the running batch as planned.
    pub fn in_flight_ids(&self) -> Vec<RequestId> {
        self.step.iter().map(|&(_, id)| id).collect()
    }

    /// Number of requests in the in-flight step, 0 when none is in flight.
    pub fn in_flight_len(&self) -> usize {
        self.step.len()
    }

    /// The residents' states: the running batch in batch order, then the
    /// admitted requests awaiting prefill.
    pub fn residents(&self) -> impl Iterator<Item = &SeqState> + '_ {
        self.running
            .iter()
            .chain(&self.prefill_pending)
            .map(|&slot| self.states.get(slot))
    }

    /// Blocks held by the residents, the running batch and the admitted
    /// requests awaiting prefill, read off a running ledger.
    pub fn resident_blocks(&self) -> u32 {
        self.residents.blocks
    }

    /// Residents with high execution priority, read off a running ledger.
    pub fn resident_high(&self) -> usize {
        self.residents.high
    }

    /// Queued ids in scheduling order.
    pub fn waiting_ids(&self) -> Vec<RequestId> {
        self.waiting.iter().collect()
    }

    /// Number of live (unfinished) requests the engine tracks, in any phase:
    /// queued, admitted, inside an in-flight step, running, or draining.
    pub fn tracked_requests(&self) -> usize {
        self.states.len()
    }

    /// Every live request the engine tracks, in a deterministic redispatch
    /// order: the running batch, then pending prefills, then the queue, then
    /// anything else (draining or swapped states) in ascending id order.
    /// Covers exactly the [`tracked_requests`](Self::tracked_requests) set —
    /// the roster a failure handler must account for when the instance dies.
    pub fn tracked_ids(&self) -> Vec<RequestId> {
        let mut seen = BTreeSet::new();
        let mut out: Vec<RequestId> = Vec::with_capacity(self.states.len());
        for id in self
            .residents()
            .map(|s| s.meta.id)
            .chain(self.waiting.iter())
        {
            if seen.insert(id) {
                out.push(id);
            }
        }
        let mut rest: Vec<RequestId> = self
            .states
            .iter()
            .map(|s| s.meta.id)
            .filter(|id| !seen.contains(id))
            .collect();
        rest.sort_unstable();
        out.extend(rest);
        debug_assert_eq!(out.len(), self.states.len(), "tracked_ids missed a state");
        out
    }

    /// Ids currently drained out of the batch for a final migration stage,
    /// in ascending id order.
    pub fn draining_ids(&self) -> Vec<RequestId> {
        let mut ids: Vec<RequestId> = self
            .states
            .iter()
            .filter(|s| s.phase == Phase::Draining)
            .map(|s| s.meta.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The head-of-line queued request and its block demand, if any.
    pub fn head_of_line_demand(&self) -> Option<(RequestId, u32)> {
        self.waiting.head().map(|id| {
            let s = self.state(id).expect("queued request has state");
            (
                id,
                self.spec.geometry.blocks_for_tokens(s.required_tokens()),
            )
        })
    }

    /// Sum of blocks demanded by *all* queued requests (INFaaS++'s queue
    /// pressure signal), read off the running ledger.
    pub fn queued_demand_blocks(&self) -> u32 {
        self.queued_demand
    }

    /// Blocks a request needs resident to run (its admission demand).
    fn demand_blocks(&self, s: &SeqState) -> u32 {
        self.spec.geometry.blocks_for_tokens(s.required_tokens())
    }

    /// Verifies internal invariants (tests and debug assertions): the id map
    /// and the live slots match one to one, per-request block counts match
    /// the block ledger, the queued-demand and resident ledgers match walks
    /// of the queue and of the residents, and the running batch is exactly
    /// the requests in [`Phase::Running`].
    pub fn check_invariants(&self) -> bool {
        if !self.states.is_consistent() {
            return false;
        }
        let block_sum: u32 = self.states.iter().map(|s| s.blocks_held).sum();
        let queued: Option<u32> = self
            .waiting
            .iter()
            .map(|id| self.state(id).map(|s| self.demand_blocks(s)))
            .sum();
        let residents = self.running.iter().chain(&self.prefill_pending).try_fold(
            Residents::default(),
            |mut residents, &slot| {
                residents.add(self.states.try_get(slot)?);
                Some(residents)
            },
        );
        let running = self
            .states
            .iter()
            .filter(|s| s.phase == Phase::Running)
            .count();
        block_sum == self.blocks.allocated_blocks()
            && self.blocks.check_invariants()
            && queued == Some(self.queued_demand)
            && residents == Some(self.residents)
            && running == self.running.len()
            && self.running.iter().all(|&slot| {
                self.states
                    .try_get(slot)
                    .is_some_and(|s| s.phase == Phase::Running)
            })
    }
}

/// Per-request states in a slab. The running batch, the pending prefills and
/// the in-flight step hold slots, so the per-step paths index a `Vec`; only
/// the entry points that take an id probe `slot_of`. A freed slot goes on a
/// LIFO free list for the next insert. Slot numbers depend on the history of
/// inserts and removals, so no output may depend on them: every walk over
/// the slab is order-insensitive or sorted.
#[derive(Clone, Default)]
struct Slab {
    states: Vec<Option<SeqState>>,
    free: Vec<u32>,
    slot_of: IdMap<RequestId, u32>,
}

impl Slab {
    /// Stores `state` and returns its slot.
    fn insert(&mut self, state: SeqState) -> u32 {
        let id = state.meta.id;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.states[slot as usize] = Some(state);
                slot
            }
            None => {
                let slot = u32::try_from(self.states.len()).expect("fewer than 2^32 requests");
                self.states.push(Some(state));
                slot
            }
        };
        self.slot_of.insert(id, slot);
        slot
    }

    /// Takes the state out of a live slot and frees the slot.
    fn remove(&mut self, slot: u32) -> SeqState {
        let state = self.states[slot as usize]
            .take()
            .expect("removing a live slot");
        self.slot_of.remove(&state.meta.id);
        self.free.push(slot);
        state
    }

    /// The slot holding `id`, if the engine tracks it.
    fn slot(&self, id: RequestId) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// The state in a slot the caller holds as live.
    fn get(&self, slot: u32) -> &SeqState {
        self.try_get(slot).expect("slot held by a live request")
    }

    /// The state in a slot the caller holds as live.
    fn get_mut(&mut self, slot: u32) -> &mut SeqState {
        self.states
            .get_mut(slot as usize)
            .and_then(Option::as_mut)
            .expect("slot held by a live request")
    }

    /// The state in `slot`, if the slot is live.
    fn try_get(&self, slot: u32) -> Option<&SeqState> {
        self.states.get(slot as usize)?.as_ref()
    }

    /// The state in `slot` if that slot still holds `id`.
    fn get_live_mut(&mut self, slot: u32, id: RequestId) -> Option<&mut SeqState> {
        self.states
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|s| s.meta.id == id)
    }

    /// Number of live requests.
    fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// The live states, in slot order.
    fn iter(&self) -> impl Iterator<Item = &SeqState> + '_ {
        self.states.iter().flatten()
    }

    /// Whether the id map and the live slots match one to one, and the free
    /// list holds only empty slots.
    fn is_consistent(&self) -> bool {
        let live = self.iter().count();
        live == self.slot_of.len()
            && live + self.free.len() == self.states.len()
            && (0u32..).zip(&self.states).all(|(slot, s)| {
                s.as_ref()
                    .is_none_or(|s| self.slot(s.meta.id) == Some(slot))
            })
            && self
                .free
                .iter()
                .all(|&slot| self.states.get(slot as usize).is_some_and(Option::is_none))
    }
}

/// Blocks held by, and the number of high-execution-priority requests
/// among, a set of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Residents {
    blocks: u32,
    high: usize,
}

impl Residents {
    fn add(&mut self, s: &SeqState) {
        self.blocks += s.blocks_held;
        self.high += usize::from(s.meta.priority.execution == Priority::High);
    }

    fn remove(&mut self, s: &SeqState) {
        self.blocks -= s.blocks_held;
        self.high -= usize::from(s.meta.priority.execution == Priority::High);
    }
}

/// Removes `slot` from `slots`, keeping the order; returns whether it was
/// there.
fn remove_slot(slots: &mut Vec<u32>, slot: u32) -> bool {
    let Some(pos) = slots.iter().position(|&s| s == slot) else {
        return false;
    };
    slots.remove(pos);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PriorityPair;
    use llumnix_model::InstanceSpec;

    fn meta(id: u64, input: u32, output: u32, arrival_s: u64) -> RequestMeta {
        RequestMeta {
            id: RequestId(id),
            input_len: input,
            output_len: output,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::from_secs(arrival_s),
        }
    }

    fn engine(capacity_tokens: u32) -> InstanceEngine {
        InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::tiny_for_tests(capacity_tokens),
            EngineConfig::default(),
        )
    }

    /// Runs the engine until idle, returning all events with times.
    fn run_to_idle(
        e: &mut InstanceEngine,
        mut now: SimTime,
    ) -> (SimTime, Vec<(SimTime, EngineEvent)>) {
        let mut events = Vec::new();
        while let Some(plan) = e.poll_step(now) {
            now = plan.finish_at();
            for ev in e.complete_step(now) {
                events.push((now, ev));
            }
            assert!(e.check_invariants());
        }
        (now, events)
    }

    #[test]
    fn single_request_lifecycle() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 4, 0), SimTime::ZERO);
        assert!(e.has_work());
        let (_, events) = run_to_idle(&mut e, SimTime::ZERO);
        let kinds: Vec<&EngineEvent> = events.iter().map(|(_, ev)| ev).collect();
        assert!(matches!(kinds[0], EngineEvent::FirstToken(RequestId(1))));
        assert!(matches!(
            kinds.last().expect("events"),
            EngineEvent::Finished(RequestId(1))
        ));
        let fin = e.take_finished();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].generated, 4);
        assert!(fin[0].first_token_at.is_some());
        assert_eq!(e.free_blocks(), e.total_blocks());
        assert!(!e.has_work());
    }

    #[test]
    fn empty_takes_leave_the_version_alone() {
        let mut e = engine(4096);
        e.add_request(meta(1, 32, 8, 0), SimTime::ZERO);
        let prefill = e.poll_step(SimTime::ZERO).expect("prefill");
        e.complete_step(prefill.finish_at());
        let decode = e.poll_step(prefill.finish_at()).expect("decode");
        assert_eq!(decode.kind, StepKind::Decode);
        let now = decode.finish_at();
        assert!(e.complete_step(now).is_empty(), "the step finishes nothing");
        assert!(!e.has_finished());
        let version = e.version();
        assert!(e.take_finished().is_empty());
        assert!(e.take_pending_events().is_empty());
        assert_eq!(e.version(), version, "an empty take is not a mutation");
        // A request that can never fit is aborted at admission, which fills
        // both lists; a take that returns something bumps the version.
        e.add_request(meta(2, 100_000, 1, 0), now);
        e.poll_step(now).expect("decode");
        assert!(e.has_finished());
        let version = e.version();
        assert_eq!(
            e.take_pending_events(),
            [EngineEvent::Aborted(RequestId(2))]
        );
        assert_ne!(e.version(), version);
        let version = e.version();
        assert_eq!(e.take_finished().len(), 1);
        assert_ne!(e.version(), version);
    }

    #[test]
    fn output_of_one_finishes_at_prefill() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 1, 0), SimTime::ZERO);
        let (_, events) = run_to_idle(&mut e, SimTime::ZERO);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].1, EngineEvent::FirstToken(_)));
        assert!(matches!(events[1].1, EngineEvent::Finished(_)));
        // Exactly one step ran (the prefill).
        assert_eq!(e.stats().prefill_steps, 1);
        assert_eq!(e.stats().decode_steps, 0);
    }

    #[test]
    fn continuous_batching_admits_mid_flight() {
        let mut e = engine(4096);
        e.add_request(meta(1, 64, 50, 0), SimTime::ZERO);
        // Run a couple of steps, then a second request arrives.
        let p1 = e.poll_step(SimTime::ZERO).expect("prefill");
        let t1 = p1.finish_at();
        e.complete_step(t1);
        e.add_request(meta(2, 64, 8, 0), t1);
        let (_, events) = run_to_idle(&mut e, t1);
        // Request 2 must finish long before request 1.
        let fin2 = events
            .iter()
            .find(|(_, ev)| matches!(ev, EngineEvent::Finished(RequestId(2))))
            .expect("r2 finishes");
        let fin1 = events
            .iter()
            .find(|(_, ev)| matches!(ev, EngineEvent::Finished(RequestId(1))))
            .expect("r1 finishes");
        assert!(fin2.0 < fin1.0, "continuous batching lets r2 leave early");
    }

    #[test]
    fn admission_blocks_when_memory_full() {
        // Capacity 96 tokens = 6 blocks. First request takes 4 blocks
        // (64 tokens), second needs 4 — must queue.
        let mut e = engine(96);
        e.add_request(meta(1, 64, 40, 0), SimTime::ZERO);
        e.add_request(meta(2, 64, 4, 0), SimTime::ZERO);
        let plan = e.poll_step(SimTime::ZERO).expect("step");
        assert_eq!(plan.kind, StepKind::Prefill);
        assert_eq!(e.in_flight_ids(), &[RequestId(1)]);
        assert_eq!(e.waiting_len(), 1);
        let (_, hol_demand) = e.head_of_line_demand().expect("queued head");
        assert_eq!(hol_demand, 4);
    }

    #[test]
    fn preemption_on_decode_growth() {
        // 6 blocks total. r1: 40 input → 3 blocks; r2: 40 input → 3 blocks.
        // Both admitted (6 blocks). Decode growth soon needs a 4th block for
        // one of them → the later request is preempted.
        let mut e = engine(96);
        e.add_request(meta(1, 40, 30, 0), SimTime::ZERO);
        e.add_request(meta(2, 40, 30, 1), SimTime::ZERO);
        let (_, events) = run_to_idle(&mut e, SimTime::ZERO);
        let preempted: Vec<RequestId> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                EngineEvent::Preempted(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert!(
            preempted.contains(&RequestId(2)),
            "expected r2 preemption event, got {preempted:?}"
        );
        assert!(
            e.stats().preemptions > 0,
            "expected at least one preemption"
        );
        let fin = e.take_finished();
        assert_eq!(fin.len(), 2);
        // The later request (r2) was the victim.
        let r2 = fin.iter().find(|s| s.meta.id == RequestId(2)).expect("r2");
        assert!(r2.preemptions > 0);
        assert!(!r2.preemption_loss.is_zero());
        let r1 = fin.iter().find(|s| s.meta.id == RequestId(1)).expect("r1");
        assert_eq!(r1.preemptions, 0);
        // Both still completed fully.
        assert_eq!(r2.generated, 30);
        assert_eq!(r1.generated, 30);
    }

    #[test]
    fn oversized_request_is_aborted_not_deadlocked() {
        let mut e = engine(96);
        e.add_request(meta(1, 200, 10, 0), SimTime::ZERO);
        let plan = e.poll_step(SimTime::ZERO);
        assert!(plan.is_none());
        let fin = e.take_finished();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].generated, 0, "aborted before generating");
        assert!(!e.has_work());
    }

    #[test]
    fn high_scheduling_priority_admitted_first() {
        let mut e = engine(96);
        // Fill the instance so both new requests queue.
        e.add_request(meta(1, 80, 60, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill r1");
        let t = p.finish_at();
        e.complete_step(t);
        e.add_request(meta(2, 40, 4, 1), t);
        let mut high = meta(3, 40, 4, 2);
        high.priority = PriorityPair::HIGH;
        e.add_request(high, t);
        // r3 arrived later but has high scheduling priority.
        assert_eq!(e.waiting_ids(), vec![RequestId(3), RequestId(2)]);
    }

    #[test]
    fn drain_waits_for_step_boundary() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        // Complete prefill so r1 decodes.
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        let d = e.poll_step(t).expect("decode");
        // Mid-step drain is deferred.
        assert_eq!(e.request_drain(RequestId(1)), DrainOutcome::Pending);
        let t2 = d.finish_at();
        let events = e.complete_step(t2);
        assert!(events.contains(&EngineEvent::Drained(RequestId(1))));
        assert_eq!(e.state(RequestId(1)).expect("state").phase, Phase::Draining);
        // Blocks are still held at the source until commit.
        assert!(e.physical_blocks_of(RequestId(1)) > 0);
        // Finish the migration out; blocks release.
        let s = e.finish_migration_out(RequestId(1));
        assert_eq!(s.meta.id, RequestId(1));
        assert_eq!(e.free_blocks(), e.total_blocks());
    }

    #[test]
    fn drain_immediate_when_idle() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        // No step in flight now.
        assert_eq!(e.request_drain(RequestId(1)), DrainOutcome::Drained);
        assert_eq!(e.request_drain(RequestId(1)), DrainOutcome::NotRunning);
        // Undrain puts it back.
        e.undrain(RequestId(1));
        assert!(e.running_ids().contains(&RequestId(1)));
    }

    #[test]
    fn migrated_in_request_joins_batch_directly() {
        let mut src = engine(1024);
        src.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        let p = src.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        src.complete_step(t);
        assert_eq!(src.request_drain(RequestId(1)), DrainOutcome::Drained);
        let state = src.finish_migration_out(RequestId(1));

        let mut dst = engine(1024);
        let blocks = dst.spec().geometry.blocks_for_tokens(state.cached_tokens);
        let r = dst.reserve_blocks(blocks).expect("space");
        dst.insert_migrated(state, r).expect("commit");
        assert_eq!(dst.running_ids(), &[RequestId(1)]);
        // No prefill needed: next step is a decode.
        let plan = dst.poll_step(t).expect("decode");
        assert_eq!(plan.kind, StepKind::Decode);
        // And the request runs to completion on the destination.
        dst.complete_step(plan.finish_at());
        let (_, events) = run_to_idle(&mut dst, plan.finish_at());
        assert!(events
            .iter()
            .any(|(_, ev)| matches!(ev, EngineEvent::Finished(RequestId(1)))));
        let fin = dst.take_finished();
        assert_eq!(fin[0].generated, 50);
        assert!(dst.check_invariants());
    }

    #[test]
    fn migration_overhead_factor_applies() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 10, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        let base = e.poll_step(t).expect("decode").duration;
        e.complete_step(t + base);
        e.migration_started();
        let slowed = e.poll_step(t + base).expect("decode").duration;
        assert!(slowed > base);
        let ratio = slowed.as_secs_f64() / base.as_secs_f64();
        assert!((ratio - 1.01).abs() < 1e-3, "overhead ratio {ratio}");
        e.complete_step(t + base + slowed);
        e.migration_ended();
        let back = e.poll_step(t + base + slowed).expect("decode").duration;
        // The sequence grew by two tokens meanwhile, so compare ratios.
        let back_ratio = back.as_secs_f64() / base.as_secs_f64();
        assert!((back_ratio - 1.0).abs() < 1e-3, "back ratio {back_ratio}");
    }

    #[test]
    fn abort_request_cleans_up_everywhere() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        e.add_request(meta(2, 32, 50, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        // r1/r2 both running now. Abort r1 mid-decode-step.
        let d = e.poll_step(t).expect("decode");
        assert!(e.abort_request(RequestId(1)).is_some());
        let _ = e.complete_step(d.finish_at());
        assert!(e.check_invariants());
        assert!(!e.running_ids().contains(&RequestId(1)));
        // r2 unaffected.
        assert!(e.running_ids().contains(&RequestId(2)));
        assert!(e.abort_request(RequestId(99)).is_none());
    }

    fn swap_engine(capacity: u32) -> InstanceEngine {
        InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::tiny_for_tests(capacity),
            EngineConfig {
                preemption_mode: PreemptionMode::Swap,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn swap_preemption_resumes_without_recompute() {
        // Same memory-pressure scenario as `preemption_on_decode_growth`,
        // but with swap-mode recovery.
        let mut e = swap_engine(96);
        e.add_request(meta(1, 40, 30, 0), SimTime::ZERO);
        e.add_request(meta(2, 40, 30, 1), SimTime::ZERO);
        let (_, _) = run_to_idle(&mut e, SimTime::ZERO);
        assert!(e.stats().preemptions > 0, "expected preemption");
        let fin = e.take_finished();
        assert_eq!(fin.len(), 2);
        for s in &fin {
            // Token conservation holds through swap round trips.
            assert_eq!(s.generated, 30);
            assert!(!s.swapped_out, "flag cleared after swap-in");
        }
        let victim = fin.iter().find(|s| s.preemptions > 0).expect("victim");
        assert!(!victim.preemption_loss.is_zero());
        assert!(e.check_invariants());
        assert_eq!(e.free_blocks(), e.total_blocks());
    }

    #[test]
    fn swap_in_cheaper_than_recompute_for_long_sequences() {
        // Compare the readmission step duration for a 2k-token preempted
        // request under both modes: swap-in is a PCIe copy, recompute is a
        // full prefill.
        let run = |mode: PreemptionMode| -> SimDuration {
            let mut e = InstanceEngine::new(
                InstanceId(0),
                InstanceSpec::llama_7b_a10(),
                EngineConfig {
                    preemption_mode: mode,
                    ..EngineConfig::default()
                },
            );
            e.add_request(meta(1, 2_048, 100, 0), SimTime::ZERO);
            let p = e.poll_step(SimTime::ZERO).expect("prefill");
            let t = p.finish_at();
            e.complete_step(t);
            // Force a preemption by draining blocks via a fake reservation.
            let free = e.free_blocks();
            let _r = e.reserve_blocks(free).expect("reserve all");
            // Next decode growth fails -> the lone request preempts itself.
            assert!(e.poll_step(t).is_none());
            let s = e.state(RequestId(1)).expect("state");
            assert_eq!(s.phase, Phase::Waiting);
            assert_eq!(s.preemptions, 1);
            // Release the pressure and readmit.
            let _ = e.release_reservation(_r);
            let plan = e.poll_step(t).expect("readmission step");
            plan.duration
        };
        let swap = run(PreemptionMode::Swap);
        let recompute = run(PreemptionMode::Recompute);
        assert!(
            swap.as_secs_f64() * 3.0 < recompute.as_secs_f64(),
            "swap-in {swap} should be much cheaper than recompute {recompute}"
        );
    }

    #[test]
    fn admission_watermark_holds_back_slack() {
        // Capacity 6 blocks; watermark 2. A 64-token request needs 4 blocks;
        // with the watermark it needs 6 free, so a second 4-block request
        // must wait even though its blocks exist.
        let mut e = InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::tiny_for_tests(96),
            EngineConfig {
                admission_watermark_blocks: 2,
                ..EngineConfig::default()
            },
        );
        e.add_request(meta(1, 32, 8, 0), SimTime::ZERO); // 2 blocks + 2 slack OK
        e.add_request(meta(2, 48, 8, 0), SimTime::ZERO); // 3 blocks + 2 slack > 4 free
        let plan = e.poll_step(SimTime::ZERO).expect("prefill r1");
        assert_eq!(plan.kind, StepKind::Prefill);
        assert_eq!(e.in_flight_ids(), &[RequestId(1)]);
        assert_eq!(e.waiting_len(), 1, "r2 held back by the watermark");
        // Both still finish once space frees.
        let t = plan.finish_at();
        e.complete_step(t);
        let (_, _) = run_to_idle(&mut e, t);
        assert_eq!(e.take_finished().len(), 2);
    }

    #[test]
    fn max_batch_size_caps_admission() {
        let mut e = InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::tiny_for_tests(4096),
            EngineConfig {
                max_batch_size: 2,
                ..EngineConfig::default()
            },
        );
        for i in 0..5 {
            e.add_request(meta(i, 32, 20, i), SimTime::ZERO);
        }
        let plan = e.poll_step(SimTime::ZERO).expect("prefill");
        assert_eq!(plan.kind, StepKind::Prefill);
        assert_eq!(e.in_flight_ids().len(), 2, "cap applies");
        assert_eq!(e.waiting_len(), 3);
        // All requests still complete eventually.
        let t = plan.finish_at();
        e.complete_step(t);
        let (_, _) = run_to_idle(&mut e, t);
        assert_eq!(e.take_finished().len(), 5);
    }

    #[test]
    fn queued_demand_counts_all_waiting() {
        let mut e = engine(96);
        e.add_request(meta(1, 80, 60, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        e.complete_step(p.finish_at());
        e.add_request(meta(2, 40, 4, 1), p.finish_at());
        e.add_request(meta(3, 20, 4, 2), p.finish_at());
        // r2 needs 3 blocks, r3 needs 2.
        assert_eq!(e.queued_demand_blocks(), 5);
    }

    #[test]
    fn in_flight_ids_are_the_batch_as_planned() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        e.add_request(meta(2, 32, 50, 0), SimTime::ZERO);
        assert!(e.in_flight_ids().is_empty());
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        assert_eq!(e.in_flight_ids(), &[RequestId(1), RequestId(2)]);
        let t = p.finish_at();
        e.complete_step(t);
        assert!(e.in_flight_ids().is_empty());
        let d = e.poll_step(t).expect("decode");
        // r1 is aborted and a migrated-in r9 joins while the step runs.
        assert!(e.abort_request(RequestId(1)).is_some());
        let mut src = engine(1024);
        src.add_request(meta(9, 32, 50, 0), SimTime::ZERO);
        let sp = src.poll_step(SimTime::ZERO).expect("prefill");
        src.complete_step(sp.finish_at());
        assert_eq!(src.request_drain(RequestId(9)), DrainOutcome::Drained);
        let state = src.finish_migration_out(RequestId(9));
        let generated = state.generated;
        let blocks = e.spec().geometry.blocks_for_tokens(state.cached_tokens);
        let r = e.reserve_blocks(blocks).expect("space");
        e.insert_migrated(state, r).expect("commit");
        assert_eq!(e.in_flight_ids(), &[RequestId(1), RequestId(2)]);
        e.complete_step(d.finish_at());
        assert!(e.in_flight_ids().is_empty());
        // Only r2 ran in that step: r9 joined after it was planned.
        assert_eq!(e.state(RequestId(2)).expect("r2").generated, 2);
        assert_eq!(e.state(RequestId(9)).expect("r9").generated, generated);
        e.poll_step(d.finish_at()).expect("decode");
        assert_eq!(e.in_flight_ids(), &[RequestId(2), RequestId(9)]);
        assert!(e.check_invariants());
    }

    #[test]
    fn residents_leave_the_ledgers_while_their_prefill_runs() {
        let mut e = engine(1024);
        let mut high = meta(1, 40, 8, 0);
        high.priority = PriorityPair::HIGH;
        e.add_request(high, SimTime::ZERO);
        e.add_request(meta(2, 20, 8, 0), SimTime::ZERO);
        assert_eq!((e.resident_blocks(), e.resident_high()), (0, 0));
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        // Admitted (3 + 2 blocks held) but inside the in-flight step.
        assert_eq!(e.free_blocks(), e.total_blocks() - 5);
        assert_eq!((e.resident_blocks(), e.resident_high()), (0, 0));
        e.complete_step(p.finish_at());
        assert_eq!((e.resident_blocks(), e.resident_high()), (5, 1));
        assert_eq!(e.request_drain(RequestId(1)), DrainOutcome::Drained);
        assert_eq!((e.resident_blocks(), e.resident_high()), (2, 0));
        e.undrain(RequestId(1));
        assert_eq!((e.resident_blocks(), e.resident_high()), (5, 1));
        assert!(e.check_invariants());
    }

    #[test]
    fn check_invariants_covers_the_slab() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 8, 0), SimTime::ZERO);
        e.add_request(meta(2, 32, 8, 0), SimTime::ZERO);
        assert!(e.check_invariants());
        let mut aliased = e.clone();
        let slot = aliased.states.slot(RequestId(2)).expect("r2 tracked");
        aliased.states.slot_of.insert(RequestId(1), slot);
        assert!(!aliased.check_invariants(), "two ids map to one slot");
        let mut freed = e.clone();
        freed.states.free.push(slot);
        assert!(!freed.check_invariants(), "a live slot on the free list");
    }

    /// Aborts r1 while a step over r1 and r2 is in flight, then adds r3,
    /// which takes r1's freed slot.
    fn abort_and_reuse_slot(e: &mut InstanceEngine, now: SimTime) {
        let slot = e.states.slot(RequestId(1)).expect("r1 tracked");
        assert!(e.abort_request(RequestId(1)).is_some());
        e.add_request(meta(3, 32, 50, 0), now);
        assert_eq!(
            e.states.slot(RequestId(3)),
            Some(slot),
            "r3 reuses the slot"
        );
        assert_eq!(e.in_flight_ids(), &[RequestId(1), RequestId(2)]);
    }

    fn assert_still_queued(e: &InstanceEngine, id: RequestId) {
        let s = e.state(id).expect("queued request tracked");
        assert_eq!(
            (s.phase, s.generated, s.cached_tokens),
            (Phase::Waiting, 0, 0)
        );
        assert_eq!(e.waiting_ids(), vec![id]);
    }

    #[test]
    fn a_slot_reused_mid_decode_step_is_not_advanced() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        e.add_request(meta(2, 32, 50, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        let d = e.poll_step(t).expect("decode");
        assert_eq!(d.kind, StepKind::Decode);
        let before = e.state(RequestId(2)).expect("r2").generated;
        abort_and_reuse_slot(&mut e, t);
        let events = e.complete_step(d.finish_at());
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(e.state(RequestId(2)).expect("r2").generated, before + 1);
        assert_still_queued(&e, RequestId(3));
        assert_eq!(e.running_ids(), vec![RequestId(2)]);
        assert!(e.check_invariants());
    }

    #[test]
    fn a_slot_reused_mid_prefill_step_is_not_prefilled() {
        let mut e = engine(1024);
        e.add_request(meta(1, 32, 50, 0), SimTime::ZERO);
        e.add_request(meta(2, 32, 50, 0), SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        assert_eq!(p.kind, StepKind::Prefill);
        abort_and_reuse_slot(&mut e, SimTime::ZERO);
        let events = e.complete_step(p.finish_at());
        assert_eq!(events, vec![EngineEvent::FirstToken(RequestId(2))]);
        assert_eq!(e.state(RequestId(2)).expect("r2").generated, 1);
        assert_still_queued(&e, RequestId(3));
        assert_eq!(e.running_ids(), vec![RequestId(2)]);
        assert!(e.check_invariants());
    }
}
