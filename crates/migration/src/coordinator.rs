//! The migration coordinator: the paper's Figure 7 handshake as an event-
//! driven state machine.
//!
//! A migration proceeds through background copy stages that exploit the
//! append-only KV cache (§4.2): stage *k* copies the tokens generated during
//! stage *k−1* while decoding continues. When the remaining delta can be
//! copied within roughly one decode step, the request is drained from the
//! source batch, the last delta is copied (this is the downtime), and the
//! request resumes on the destination. Before every stage the destination
//! pre-allocates blocks; after every stage the source re-checks that the
//! request is still alive. Either side failing, the destination running out
//! of memory, or the request finishing/being preempted aborts the migration
//! and releases the reservation.

use std::collections::BTreeMap;

use llumnix_engine::{DrainOutcome, InstanceEngine, InstanceId, Phase, RequestId};
use llumnix_model::{CostModel, TransferMode};
use llumnix_sim::{SimDuration, SimTime};

use crate::types::{
    AbortReason, CommitOutcome, CommitResult, MigrationConfig, MigrationId, StageOutcome,
    StartOutcome,
};

/// Internal per-migration phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigPhase {
    /// A background copy stage is in flight.
    Copying,
    /// Drain requested; waiting for the source's step boundary.
    AwaitingDrain,
    /// Request drained; final copy in flight, commit scheduled.
    FinalCopy {
        /// When the request left the source batch (downtime start).
        drain_time: SimTime,
    },
}

/// One active migration: the only record of it. The endpoint engines keep
/// only totals, their migrations out and in and their reserved blocks.
#[derive(Debug, Clone)]
struct Migration {
    request: RequestId,
    src: InstanceId,
    dst: InstanceId,
    /// Blocks reserved for it on the destination.
    reserved_blocks: u32,
    copied_tokens: u32,
    stages: u32,
    phase: MigPhase,
}

/// Counters across a coordinator's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinatorStats {
    /// Migrations started.
    pub started: u64,
    /// Migrations committed.
    pub committed: u64,
    /// Migrations aborted.
    pub aborted: u64,
    /// Sum of downtimes of committed migrations.
    pub total_downtime: SimDuration,
    /// Sum of stage counts of committed migrations.
    pub total_stages: u64,
}

/// Drives all live migrations in a cluster.
///
/// All bookkeeping lives in `BTreeMap`s: the crash scan
/// ([`MigrationCoordinator::migrations_touching`]) iterates the active set,
/// and the order of its aborts sets the order in which drained requests
/// rejoin their source's batch, so the iteration order must be a pure
/// function of the simulation state, never of a hasher seed.
///
/// `Clone` supports the sim-level snapshot/fork capability: a clone carries
/// every reservation and handshake stage, so forked runs resume
/// mid-migration byte-identically.
#[derive(Clone)]
pub struct MigrationCoordinator {
    config: MigrationConfig,
    next_id: u64,
    active: BTreeMap<MigrationId, Migration>,
    by_request: BTreeMap<RequestId, MigrationId>,
    stats: CoordinatorStats,
}

impl MigrationCoordinator {
    /// Creates a coordinator.
    pub fn new(config: MigrationConfig) -> Self {
        MigrationCoordinator {
            config,
            next_id: 0,
            active: BTreeMap::new(),
            by_request: BTreeMap::new(),
            stats: CoordinatorStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// Number of in-flight migrations.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The migration (if any) currently moving `request`, with its endpoints.
    pub fn lookup_by_request(
        &self,
        request: RequestId,
    ) -> Option<(MigrationId, InstanceId, InstanceId)> {
        let mid = *self.by_request.get(&request)?;
        let m = &self.active[&mid];
        Some((mid, m.src, m.dst))
    }

    /// Endpoints of an active migration.
    pub fn endpoints(&self, id: MigrationId) -> Option<(InstanceId, InstanceId)> {
        self.active.get(&id).map(|m| (m.src, m.dst))
    }

    /// Whether `request` is mid-migration.
    pub fn is_migrating(&self, request: RequestId) -> bool {
        self.by_request.contains_key(&request)
    }

    /// The active migrations with an endpoint at `instance`, in creation
    /// order, each with its other endpoint. O(active): a crash's scan.
    pub fn migrations_touching(&self, instance: InstanceId) -> Vec<(MigrationId, InstanceId)> {
        self.active
            .iter()
            .filter(|(_, m)| m.src == instance || m.dst == instance)
            .map(|(&id, m)| (id, if m.src == instance { m.dst } else { m.src }))
            .collect()
    }

    /// Removes a migration's records, counting it as aborted.
    fn remove_aborted(&mut self, id: MigrationId) -> Option<Migration> {
        let m = self.active.remove(&id)?;
        self.by_request.remove(&m.request);
        self.stats.aborted += 1;
        Some(m)
    }

    // ---- protocol steps ---------------------------------------------------

    /// Starts migrating `request` from `src` to `dst`.
    ///
    /// Performs the stage-0 pre-allocate handshake; on success the caller
    /// must schedule a stage-done event at the returned time.
    pub fn start(
        &mut self,
        request: RequestId,
        src: &mut InstanceEngine,
        dst: &mut InstanceEngine,
        now: SimTime,
    ) -> StartOutcome {
        if self.by_request.contains_key(&request) {
            return StartOutcome::Refused(AbortReason::RequestNotMigratable);
        }
        let Some(state) = src.state(request) else {
            return StartOutcome::Refused(AbortReason::RequestNotMigratable);
        };
        if state.phase != Phase::Running {
            return StartOutcome::Refused(AbortReason::RequestNotMigratable);
        }
        let cached = state.cached_tokens;
        let blocks = src.spec().geometry.blocks_for_tokens(cached);
        if dst.reserve_blocks(blocks).is_err() {
            return StartOutcome::Refused(AbortReason::DestinationOutOfMemory);
        }
        src.migration_out_started();
        dst.migration_in_started();
        let transfer = &src.spec().transfer;
        let copy = transfer.copy_time(cached, &src.spec().model, TransferMode::GlooFused);
        let stage_done_at = now + transfer.handshake_rtt + copy;
        let id = MigrationId(self.next_id);
        self.next_id += 1;
        self.active.insert(
            id,
            Migration {
                request,
                src: src.id,
                dst: dst.id,
                reserved_blocks: blocks,
                copied_tokens: cached,
                stages: 1,
                phase: MigPhase::Copying,
            },
        );
        self.by_request.insert(request, id);
        self.stats.started += 1;
        StartOutcome::Started { id, stage_done_at }
    }

    /// Handles a stage-done event. Returns `None` for stale events
    /// (the migration was aborted in the meantime).
    pub fn on_stage_done(
        &mut self,
        id: MigrationId,
        src: &mut InstanceEngine,
        dst: &mut InstanceEngine,
        now: SimTime,
    ) -> Option<StageOutcome> {
        let m = self.active.get(&id)?;
        debug_assert_eq!(m.phase, MigPhase::Copying, "stage event in {:?}", m.phase);
        let request = m.request;
        // Post-stage liveness check (paper Figure 7): the request may have
        // finished or been preempted while the stage copied.
        let alive = match src.state(request) {
            None => Some(AbortReason::RequestFinished),
            Some(s) if s.phase == Phase::Waiting || s.phase == Phase::Prefilling => {
                Some(AbortReason::RequestPreempted)
            }
            Some(_) => None,
        };
        if let Some(reason) = alive {
            self.abort(id, src, dst, reason);
            return Some(StageOutcome::Aborted(reason));
        }
        let cached_now = src.state(request).expect("alive").cached_tokens;
        let m = self.active.get_mut(&id).expect("present");
        let delta = cached_now.saturating_sub(m.copied_tokens);
        // Pre-allocate for the delta (plus one in-flight token of slack).
        let needed = src.spec().geometry.blocks_for_tokens(cached_now + 1);
        if needed > m.reserved_blocks {
            if dst.reserve_blocks(needed - m.reserved_blocks).is_err() {
                self.abort(id, src, dst, AbortReason::DestinationOutOfMemory);
                return Some(StageOutcome::Aborted(AbortReason::DestinationOutOfMemory));
            }
            m.reserved_blocks = needed;
        }
        let transfer = src.spec().transfer.clone();
        let copy = transfer.copy_time(delta, &src.spec().model, TransferMode::GlooFused);
        let step_estimate = src.spec().cost.decode_step(src.decode_batch_hint());
        let force_final = m.stages >= self.config.max_stages;
        if delta == 0 || copy <= step_estimate || force_final {
            // Final stage: drain the request out of the batch, then copy the
            // last delta; that copy (plus commit) is the downtime.
            match src.request_drain(request) {
                DrainOutcome::Drained => {
                    let commit_at = self.begin_final_copy(id, src, now);
                    Some(StageOutcome::FinalCopy { commit_at })
                }
                DrainOutcome::Pending => {
                    self.active.get_mut(&id).expect("present").phase = MigPhase::AwaitingDrain;
                    Some(StageOutcome::DrainRequested)
                }
                DrainOutcome::NotRunning => {
                    self.abort(id, src, dst, AbortReason::RequestPreempted);
                    Some(StageOutcome::Aborted(AbortReason::RequestPreempted))
                }
            }
        } else {
            m.copied_tokens = cached_now;
            m.stages += 1;
            m.phase = MigPhase::Copying;
            Some(StageOutcome::NextStage {
                copy_done_at: now + transfer.handshake_rtt + copy,
            })
        }
    }

    /// Handles the source's `Drained` event for `request`. Returns the
    /// migration id and the commit time to schedule, or `None` if no
    /// migration is awaiting this drain.
    pub fn on_drained(
        &mut self,
        request: RequestId,
        src: &mut InstanceEngine,
        now: SimTime,
    ) -> Option<(MigrationId, SimTime)> {
        let id = *self.by_request.get(&request)?;
        if self.active[&id].phase != MigPhase::AwaitingDrain {
            return None;
        }
        let commit_at = self.begin_final_copy(id, src, now);
        Some((id, commit_at))
    }

    /// Starts the final copy of a drained request; returns the commit time.
    fn begin_final_copy(
        &mut self,
        id: MigrationId,
        src: &mut InstanceEngine,
        now: SimTime,
    ) -> SimTime {
        let m = self.active.get_mut(&id).expect("present");
        let cached = src
            .state(m.request)
            .expect("drained request has state")
            .cached_tokens;
        let delta = cached.saturating_sub(m.copied_tokens);
        let transfer = &src.spec().transfer;
        let copy = transfer.copy_time(delta, &src.spec().model, TransferMode::GlooFused);
        let commit_at = now + transfer.handshake_rtt + copy + transfer.commit_overhead;
        m.stages += 1;
        m.phase = MigPhase::FinalCopy { drain_time: now };
        commit_at
    }

    /// Handles the commit event: moves the request's state to the
    /// destination and resumes it there. Returns [`CommitResult::Stale`] for
    /// events whose migration was already gone.
    ///
    /// The reservation was sized at the last stage boundary with one token
    /// of slack, but tokens generated while the drain was pending can outgrow
    /// it (`begin_final_copy` never re-grows). Committing an undersized
    /// reservation would silently under-account the request's KV blocks on
    /// the destination, so the reservation is re-validated *before* the
    /// source state is torn down: grow it to fit, or abort gracefully
    /// (release the reservation, resume the request on the source).
    pub fn on_commit(
        &mut self,
        id: MigrationId,
        src: &mut InstanceEngine,
        dst: &mut InstanceEngine,
        now: SimTime,
    ) -> CommitResult {
        let Some(m) = self.active.get(&id) else {
            return CommitResult::Stale;
        };
        let MigPhase::FinalCopy { drain_time } = m.phase else {
            return CommitResult::Stale;
        };
        let request = m.request;
        let Some(state) = src.state(request) else {
            // The request died at the source after the drain; nothing left
            // to move.
            self.abort(id, src, dst, AbortReason::RequestFinished);
            return CommitResult::AbortedAtCommit(AbortReason::RequestFinished);
        };
        let needed = src.spec().geometry.blocks_for_tokens(state.cached_tokens);
        let m = self.active.get_mut(&id).expect("present");
        if needed > m.reserved_blocks {
            if dst.reserve_blocks(needed - m.reserved_blocks).is_err() {
                self.abort(id, src, dst, AbortReason::DestinationOutOfMemory);
                return CommitResult::AbortedAtCommit(AbortReason::DestinationOutOfMemory);
            }
            m.reserved_blocks = needed;
        }
        let m = self.active.remove(&id).expect("present");
        self.by_request.remove(&m.request);
        let mut state = src.finish_migration_out(m.request);
        let downtime = now.since(drain_time);
        state.migrations += 1;
        state.migration_downtime += downtime;
        dst.insert_migrated(state, m.reserved_blocks);
        src.migration_out_ended();
        dst.migration_in_ended();
        self.stats.committed += 1;
        self.stats.total_downtime += downtime;
        self.stats.total_stages += m.stages as u64;
        CommitResult::Committed(CommitOutcome {
            request: m.request,
            src: m.src,
            dst: m.dst,
            downtime,
            stages: m.stages,
        })
    }

    /// Aborts a migration: releases the destination reservation, restores a
    /// drained request to the source batch, and clears all records.
    pub fn abort(
        &mut self,
        id: MigrationId,
        src: &mut InstanceEngine,
        dst: &mut InstanceEngine,
        _reason: AbortReason,
    ) {
        if let Some(m) = self.remove_aborted(id) {
            m.release_destination(dst);
            m.restore_source(src);
        }
    }

    /// Aborts the active migration `id`, whose endpoint `failed` crashed;
    /// `peer` is its other endpoint, which survives. A failed source takes
    /// the request with it, so the destination releases its reservation; a
    /// failed destination leaves the request on the source, which resumes
    /// it. Returns the abort reason.
    pub fn abort_for_crash(
        &mut self,
        id: MigrationId,
        failed: InstanceId,
        peer: &mut InstanceEngine,
    ) -> AbortReason {
        let m = self.remove_aborted(id).expect("an active migration");
        if m.src == failed {
            m.release_destination(peer);
            AbortReason::SourceFailed
        } else {
            m.restore_source(peer);
            AbortReason::DestinationFailed
        }
    }
}

impl Migration {
    /// The destination's half of an abort: the reservation goes back to
    /// its free pool.
    fn release_destination(&self, dst: &mut InstanceEngine) {
        dst.release_reservation(self.reserved_blocks);
        dst.migration_in_ended();
    }

    /// The source's half of an abort: a drain that has not executed yet
    /// must not fire for a dead migration, and a request already drained
    /// goes back into the batch — its KV blocks were never released at the
    /// source.
    fn restore_source(&self, src: &mut InstanceEngine) {
        src.cancel_drain(self.request);
        if src.state(self.request).map(|s| s.phase) == Some(Phase::Draining) {
            src.undrain(self.request);
        }
        src.migration_out_ended();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llumnix_engine::{EngineConfig, PriorityPair, RequestMeta};
    use llumnix_model::InstanceSpec;

    fn engine(id: u32, capacity: u32) -> InstanceEngine {
        InstanceEngine::new(
            InstanceId(id),
            InstanceSpec::tiny_for_tests(capacity),
            EngineConfig::default(),
        )
    }

    fn meta(id: u64, input: u32, output: u32) -> RequestMeta {
        RequestMeta {
            id: RequestId(id),
            input_len: input,
            output_len: output,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::ZERO,
        }
    }

    /// Brings a request to the Running phase on `e` and returns the time.
    fn start_running(e: &mut InstanceEngine, m: RequestMeta) -> SimTime {
        e.add_request(m, SimTime::ZERO);
        let p = e.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        e.complete_step(t);
        t
    }

    /// Unwraps a committed migration's outcome.
    fn committed(r: CommitResult) -> CommitOutcome {
        match r {
            CommitResult::Committed(c) => c,
            other => panic!("expected a commit, got {other:?}"),
        }
    }

    #[test]
    fn full_migration_two_stages() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let out = coord.start(RequestId(1), &mut src, &mut dst, t);
        let StartOutcome::Started { id, stage_done_at } = out else {
            panic!("refused: {out:?}");
        };
        assert!(stage_done_at > t);
        assert!(coord.is_migrating(RequestId(1)));
        // The source keeps decoding during stage 0; simulate a few steps.
        let mut now = t;
        while now < stage_done_at {
            let plan = src.poll_step(now).expect("decode continues");
            now = plan.finish_at();
            src.complete_step(now);
        }
        // Stage 0 done: only a handful of tokens were generated meanwhile,
        // so the coordinator goes final.
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active");
        let commit_at = match outcome {
            StageOutcome::FinalCopy { commit_at } => commit_at,
            StageOutcome::DrainRequested => {
                // Drain deferred to the step boundary we already passed;
                // finish the in-flight step to trigger it.
                let plan_end = now;
                let events = if src.step_in_flight() {
                    src.complete_step(plan_end)
                } else {
                    vec![]
                };
                assert!(events
                    .iter()
                    .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_))));
                let (mid, commit_at) = coord
                    .on_drained(RequestId(1), &mut src, plan_end)
                    .expect("awaiting drain");
                assert_eq!(mid, id);
                commit_at
            }
            other => panic!("unexpected outcome {other:?}"),
        };
        let commit = committed(coord.on_commit(id, &mut src, &mut dst, commit_at));
        assert_eq!(commit.request, RequestId(1));
        assert_eq!(commit.stages, 2, "paper: migrations take two stages");
        // Downtime is the constant ~20–30 ms band, far below a blocking copy.
        let dt = commit.downtime.as_millis_f64();
        assert!((15.0..40.0).contains(&dt), "downtime {dt} ms");
        // Request now lives on dst only.
        assert!(src.state(RequestId(1)).is_none());
        assert!(dst.running_ids().contains(&RequestId(1)));
        assert!(src.check_invariants() && dst.check_invariants());
        assert_eq!(src.free_blocks(), src.total_blocks());
        // The reservation became the request's blocks, and neither engine
        // counts the migration any more.
        assert_eq!(dst.reserved_blocks(), 0);
        assert!(!src.migrating() && !dst.migrating());
        assert!(!coord.is_migrating(RequestId(1)));
        assert_eq!(coord.stats().committed, 1);
    }

    #[test]
    fn a_start_mid_decode_run_copies_the_exact_cached_tokens() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        // The 200-token prompt leaves 8 tokens of room in its 13th block, so
        // five decode steps stay inside the engine's decode run.
        let mut now = start_running(&mut src, meta(1, 200, 100));
        for _ in 0..5 {
            now = src.poll_step(now).expect("decode").finish_at();
            src.complete_step(now);
        }
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let out = coord.start(RequestId(1), &mut src, &mut dst, now);
        let StartOutcome::Started { id, .. } = out else {
            panic!("refused: {out:?}");
        };
        assert_eq!(coord.active[&id].copied_tokens, 205);
        assert_eq!(src.state(RequestId(1)).expect("running").cached_tokens, 205);
    }

    #[test]
    fn refused_when_destination_full() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 96);
        // Fill the destination completely.
        let _ = start_running(&mut dst, meta(9, 80, 50));
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let out = coord.start(RequestId(1), &mut src, &mut dst, t);
        assert_eq!(
            out,
            StartOutcome::Refused(AbortReason::DestinationOutOfMemory)
        );
        assert_eq!(coord.active_count(), 0);
        assert!(dst.check_invariants());
        assert_eq!(dst.reserved_blocks(), 0);
        assert!(!src.migrating() && !dst.migrating());
    }

    #[test]
    fn refused_for_unknown_or_queued_request() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let out = coord.start(RequestId(42), &mut src, &mut dst, SimTime::ZERO);
        assert_eq!(
            out,
            StartOutcome::Refused(AbortReason::RequestNotMigratable)
        );
        // Queued (not yet prefilled) requests are not migratable either.
        src.add_request(meta(1, 64, 10), SimTime::ZERO);
        let out = coord.start(RequestId(1), &mut src, &mut dst, SimTime::ZERO);
        assert_eq!(
            out,
            StartOutcome::Refused(AbortReason::RequestNotMigratable)
        );
    }

    #[test]
    fn aborts_when_request_finishes_mid_migration() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        // Tiny output: the request will finish during stage 0's copy.
        let t = start_running(&mut src, meta(1, 2048, 2));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        // Run the source until the request finishes.
        let mut now = t;
        while src.has_work() {
            let Some(plan) = src.poll_step(now) else {
                break;
            };
            now = plan.finish_at();
            src.complete_step(now);
        }
        assert!(src.state(RequestId(1)).is_none(), "request finished");
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at.max(now))
            .expect("active");
        assert_eq!(outcome, StageOutcome::Aborted(AbortReason::RequestFinished));
        // Reservation fully released.
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        assert_eq!(dst.reserved_blocks(), 0);
        assert!(!src.migrating() && !dst.migrating());
        assert_eq!(coord.stats().aborted, 1);
        assert_eq!(coord.active_count(), 0);
    }

    #[test]
    fn aborts_when_request_preempted_mid_migration() {
        let mut src = engine(0, 96);
        let mut dst = engine(1, 4096);
        // r1 runs; r2 arrives and will force r1's (later arrival loses: make
        // the migrating request the later one so it is the victim).
        let t = start_running(&mut src, meta(2, 40, 60));
        src.add_request(meta(3, 40, 60), t);
        let p = src.poll_step(t).expect("prefill r3");
        let t2 = p.finish_at();
        src.complete_step(t2);
        // Migrate r3 (arrived later → preemption victim).
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(3), &mut src, &mut dst, t2)
        else {
            panic!("refused");
        };
        // Decode until r3 is preempted (blocks exhausted).
        let mut now = t2;
        let mut preempted = false;
        for _ in 0..200 {
            let Some(plan) = src.poll_step(now) else {
                break;
            };
            now = plan.finish_at();
            let events = src.complete_step(now);
            if events
                .iter()
                .any(|e| matches!(e, llumnix_engine::EngineEvent::Preempted(RequestId(3))))
            {
                preempted = true;
                break;
            }
        }
        assert!(preempted, "r3 should get preempted under memory pressure");
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at.max(now))
            .expect("active");
        assert_eq!(
            outcome,
            StageOutcome::Aborted(AbortReason::RequestPreempted)
        );
        assert_eq!(dst.free_blocks(), dst.total_blocks());
    }

    #[test]
    fn long_sequence_stays_two_stages() {
        // Paper §6.2: for all tested lengths (up to 8k) migration takes two
        // stages because copying outpaces token generation.
        let mut src = InstanceEngine::new(
            InstanceId(0),
            InstanceSpec::llama_7b_a10(),
            EngineConfig::default(),
        );
        let mut dst = InstanceEngine::new(
            InstanceId(1),
            InstanceSpec::llama_7b_a10(),
            EngineConfig::default(),
        );
        let t = start_running(&mut src, meta(1, 8192, 400));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        let mut now = t;
        while now < stage_done_at {
            let plan = src.poll_step(now).expect("decoding");
            now = plan.finish_at();
            src.complete_step(now);
        }
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active");
        let commit_at = match outcome {
            StageOutcome::FinalCopy { commit_at } => commit_at,
            StageOutcome::DrainRequested => {
                let events = src.complete_step(now);
                assert!(events
                    .iter()
                    .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_))));
                coord
                    .on_drained(RequestId(1), &mut src, now)
                    .expect("awaiting")
                    .1
            }
            other => panic!("expected final copy for 8k seq, got {other:?}"),
        };
        let commit = committed(coord.on_commit(id, &mut src, &mut dst, commit_at));
        assert_eq!(commit.stages, 2);
        assert!(commit.downtime < SimDuration::from_millis(50));
    }

    #[test]
    fn destination_failure_restores_drained_request() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        // Reach the final-copy phase (source idle → drain immediate).
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active");
        assert!(matches!(outcome, StageOutcome::FinalCopy { .. }));
        assert_eq!(
            src.state(RequestId(1)).expect("state").phase,
            Phase::Draining
        );
        // Destination fails before commit.
        coord.abort(id, &mut src, &mut dst, AbortReason::DestinationFailed);
        assert_eq!(
            src.state(RequestId(1)).expect("state").phase,
            Phase::Running
        );
        assert!(src.running_ids().contains(&RequestId(1)));
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        // A stale commit event later is ignored.
        assert_eq!(
            coord.on_commit(id, &mut src, &mut dst, stage_done_at),
            CommitResult::Stale
        );
    }

    #[test]
    fn crash_of_the_source_releases_the_destination() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, .. } = coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        assert_eq!(
            coord.migrations_touching(InstanceId(0)),
            vec![(id, InstanceId(1))]
        );
        assert_eq!(
            coord.abort_for_crash(id, InstanceId(0), &mut dst),
            AbortReason::SourceFailed
        );
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        assert_eq!(dst.reserved_blocks(), 0);
        assert!(!dst.migrating());
        assert_eq!(coord.active_count(), 0);
        assert_eq!(coord.stats().aborted, 1);
    }

    #[test]
    fn destination_oom_mid_stage_aborts_and_releases() {
        // Start a migration, then fill the destination so the next stage's
        // reservation growth fails -> DestinationOutOfMemory abort.
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 160);
        let t = start_running(&mut src, meta(1, 120, 500));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        // Fill the destination's remaining blocks behind the reservation.
        let free = dst.free_blocks();
        dst.reserve_blocks(free).expect("fill destination");
        // Decode at the source so the delta needs extra blocks.
        let mut now = t;
        for _ in 0..40 {
            let Some(plan) = src.poll_step(now) else {
                break;
            };
            now = plan.finish_at();
            src.complete_step(now);
        }
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at.max(now))
            .expect("active");
        assert_eq!(
            outcome,
            StageOutcome::Aborted(AbortReason::DestinationOutOfMemory)
        );
        // The migration's own 8-block reservation (120 tokens) was released;
        // only the hog reservation remains.
        assert_eq!(dst.free_blocks(), 8);
        assert_eq!(dst.reserved_blocks(), free);
        assert!(!src.migrating() && !dst.migrating());
        dst.release_reservation(free);
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        // The request keeps running at the source, untouched.
        assert_eq!(
            src.state(RequestId(1)).expect("alive").phase,
            Phase::Running
        );
        assert!(src.poll_step(now).is_some());
    }

    #[test]
    fn max_stages_forces_the_final_stage() {
        // Make copying much slower than decoding so deltas never shrink:
        // without the max-stages guard the migration would chase its own
        // tail forever.
        let mut spec = InstanceSpec::tiny_for_tests(8192);
        // Copy rate ~39 tokens/s, decode rate ~45 tokens/s: the delta grows
        // a little every stage instead of shrinking.
        spec.transfer.network_bandwidth = 2.08e7;
        spec.transfer.pcie_bandwidth = 1e9;
        let mut src = InstanceEngine::new(InstanceId(0), spec.clone(), EngineConfig::default());
        let mut dst = InstanceEngine::new(InstanceId(1), spec, EngineConfig::default());
        let t = start_running(&mut src, meta(1, 64, 100_000));
        let mut coord = MigrationCoordinator::new(MigrationConfig { max_stages: 3 });
        let StartOutcome::Started {
            id,
            mut stage_done_at,
        } = coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        let mut now = t;
        let commit_at = loop {
            while now < stage_done_at {
                let Some(plan) = src.poll_step(now) else {
                    break;
                };
                now = plan.finish_at();
                let events = src.complete_step(now);
                if events
                    .iter()
                    .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_)))
                {
                    break;
                }
            }
            if let Some((_, at)) = coord.on_drained(RequestId(1), &mut src, now) {
                break at;
            }
            match coord
                .on_stage_done(id, &mut src, &mut dst, stage_done_at.max(now))
                .expect("active")
            {
                StageOutcome::NextStage { copy_done_at } => stage_done_at = copy_done_at,
                StageOutcome::FinalCopy { commit_at } => break commit_at,
                StageOutcome::DrainRequested => {
                    let plan = src.poll_step(now).expect("step to drain");
                    now = plan.finish_at();
                    let events = src.complete_step(now);
                    assert!(events
                        .iter()
                        .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_))));
                    break coord
                        .on_drained(RequestId(1), &mut src, now)
                        .expect("awaiting")
                        .1;
                }
                StageOutcome::Aborted(r) => panic!("unexpected abort {r}"),
            }
        };
        let commit = committed(coord.on_commit(id, &mut src, &mut dst, commit_at));
        assert!(
            commit.stages <= 4,
            "max_stages must bound the stage count, got {}",
            commit.stages
        );
        assert!(dst.running_ids().contains(&RequestId(1)));
    }

    #[test]
    fn migrating_from_lists_sources() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, .. } = coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        assert_eq!(coord.endpoints(id), Some((InstanceId(0), InstanceId(1))));
        assert_eq!(
            coord.lookup_by_request(RequestId(1)),
            Some((id, InstanceId(0), InstanceId(1)))
        );
        assert_eq!(
            coord.migrations_touching(InstanceId(1)),
            vec![(id, InstanceId(0))]
        );
        assert!(coord.migrations_touching(InstanceId(7)).is_empty());
        // Each engine's totals agree with the lookup.
        assert!(src.is_migration_source() && src.migrating());
        assert!(!dst.is_migration_source() && dst.migrating());
        assert_eq!(dst.reserved_blocks(), 32, "512 tokens of 16");
        coord.abort(id, &mut src, &mut dst, AbortReason::DestinationFailed);
        assert!(!src.is_migration_source() && !src.migrating());
        assert!(!dst.migrating());
        assert_eq!(dst.reserved_blocks(), 0);
        assert!(coord.migrations_touching(InstanceId(0)).is_empty());
        assert_eq!(coord.lookup_by_request(RequestId(1)), None);
    }

    /// Regression for the `BTreeMap` conversion: the crash scan iterates
    /// the active set, and its order sets the order of the aborts. With
    /// several in-flight migrations they must come back in ascending
    /// (creation) order every time — under the old `HashMap` books the order
    /// was a function of the hasher seed.
    #[test]
    fn teardown_scans_iterate_in_creation_order() {
        let mut engines: Vec<InstanceEngine> = (0..4).map(|i| engine(i, 4096)).collect();
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        // Three migrations out of instance 0, started for requests 7, 3, 5
        // to instances 3, 1, 2: neither list is sorted, so creation order
        // differs from both id orders.
        for (req, dst) in [(7u64, 3usize), (3, 1), (5, 2)] {
            let t = start_running(&mut engines[0], meta(req, 256, 100));
            let (src, rest) = engines.split_at_mut(1);
            let out = coord.start(RequestId(req), &mut src[0], &mut rest[dst - 1], t);
            assert!(matches!(out, StartOutcome::Started { .. }), "{out:?}");
        }
        // A source failure scans them by ascending MigrationId = start
        // order.
        let touching = coord.migrations_touching(InstanceId(0));
        assert_eq!(
            touching,
            vec![
                (MigrationId(0), InstanceId(3)),
                (MigrationId(1), InstanceId(1)),
                (MigrationId(2), InstanceId(2)),
            ]
        );
        for ((mid, _), req) in touching.iter().zip([7, 3, 5]) {
            assert_eq!(
                coord.lookup_by_request(RequestId(req)).map(|(id, ..)| id),
                Some(*mid)
            );
        }
        // Each abort reaches its one surviving peer.
        let (_, rest) = engines.split_at_mut(1);
        for (mid, peer) in touching {
            let peer = &mut rest[peer.0 as usize - 1];
            assert_eq!(
                coord.abort_for_crash(mid, InstanceId(0), peer),
                AbortReason::SourceFailed
            );
            assert!(!peer.migrating() && peer.reserved_blocks() == 0);
        }
        assert_eq!(coord.active_count(), 0);
        assert_eq!(coord.stats().aborted, 3);
    }

    /// Brings a fresh migration to the FinalCopy phase on an idle source
    /// (drain is immediate) and returns `(coord, id, commit_at)`.
    fn reach_final_copy(
        src: &mut InstanceEngine,
        dst: &mut InstanceEngine,
    ) -> (MigrationCoordinator, MigrationId, SimTime) {
        let t = start_running(src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } = coord.start(RequestId(1), src, dst, t)
        else {
            panic!("refused");
        };
        let outcome = coord
            .on_stage_done(id, src, dst, stage_done_at)
            .expect("active");
        let StageOutcome::FinalCopy { commit_at } = outcome else {
            panic!("idle source should drain immediately, got {outcome:?}");
        };
        (coord, id, commit_at)
    }

    /// Regression: tokens generated while the drain was pending can outgrow
    /// the one-token slack reserved at the last stage boundary. The commit
    /// must re-grow the reservation so the destination's block accounting
    /// covers every cached token — the old code committed the undersized
    /// reservation silently.
    #[test]
    fn commit_regrows_reservation_outgrown_by_late_tokens() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let (mut coord, id, commit_at) = reach_final_copy(&mut src, &mut dst);
        // Force the edge: four extra blocks' worth of tokens land between
        // the final stage boundary and the commit (a drain that slips past
        // a step boundary while the final copy is in flight).
        let state = src.state_mut(RequestId(1)).expect("draining");
        state.cached_tokens += 64;
        let cached = state.cached_tokens;
        let needed = src.spec().geometry.blocks_for_tokens(cached);
        let commit = committed(coord.on_commit(id, &mut src, &mut dst, commit_at));
        assert_eq!(commit.request, RequestId(1));
        let landed = dst.state(RequestId(1)).expect("migrated");
        assert_eq!(landed.cached_tokens, cached);
        assert_eq!(
            landed.blocks_held, needed,
            "destination must hold blocks for every cached token"
        );
        assert!(dst.check_invariants());
        assert_eq!(dst.free_blocks(), dst.total_blocks() - needed);
    }

    /// When the outgrown reservation cannot grow (destination out of memory
    /// at commit time), the commit aborts gracefully: reservation released,
    /// request resumed on the source — instead of panicking or committing an
    /// undersized allocation.
    #[test]
    fn commit_aborts_gracefully_when_reservation_cannot_grow() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let (mut coord, id, commit_at) = reach_final_copy(&mut src, &mut dst);
        src.state_mut(RequestId(1)).expect("draining").cached_tokens += 64;
        // Fill the destination so the reservation cannot grow.
        let free = dst.free_blocks();
        dst.reserve_blocks(free).expect("fill destination");
        let result = coord.on_commit(id, &mut src, &mut dst, commit_at);
        assert_eq!(
            result,
            CommitResult::AbortedAtCommit(AbortReason::DestinationOutOfMemory)
        );
        // The request resumed on the source; the migration reservation was
        // released (only the hog remains).
        let s = src.state(RequestId(1)).expect("still at source");
        assert_eq!(s.phase, Phase::Running);
        assert!(src.running_ids().contains(&RequestId(1)));
        assert_eq!(dst.reserved_blocks(), free);
        dst.release_reservation(free);
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        assert!(dst.state(RequestId(1)).is_none());
        assert_eq!(coord.stats().committed, 0);
        assert_eq!(coord.stats().aborted, 1);
        assert_eq!(coord.active_count(), 0);
        assert!(!src.migrating() && !dst.migrating());
        // A replayed commit event is stale.
        assert_eq!(
            coord.on_commit(id, &mut src, &mut dst, commit_at),
            CommitResult::Stale
        );
    }

    /// A request preempted while the coordinator awaits its drain: the abort
    /// must cancel the still-pending drain (so no spurious `Drained` fires at
    /// the next step boundary), release the reservation, and leave stats
    /// consistent.
    #[test]
    fn abort_while_awaiting_drain_cancels_pending_drain() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        // Put a decode step in flight so the drain defers to its boundary.
        let plan = src.poll_step(t).expect("decode");
        let step_end = plan.finish_at();
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active");
        assert_eq!(outcome, StageOutcome::DrainRequested);
        // The request is preempted before the boundary; the serving layer
        // observes the Preempted event and aborts the migration.
        coord.abort(id, &mut src, &mut dst, AbortReason::RequestPreempted);
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        assert_eq!(dst.reserved_blocks(), 0);
        assert_eq!(coord.stats().aborted, 1);
        assert_eq!(coord.active_count(), 0);
        assert!(!src.migrating() && !dst.migrating());
        // The cancelled drain must not fire at the step boundary.
        let events = src.complete_step(step_end);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_))),
            "cancelled drain fired anyway: {events:?}"
        );
        assert_eq!(
            src.state(RequestId(1)).expect("alive").phase,
            Phase::Running
        );
        // A late Drained event for the dead migration resolves to nothing.
        assert!(coord.on_drained(RequestId(1), &mut src, step_end).is_none());
    }

    /// The destination crashes while the coordinator awaits the source's
    /// drain: the failure abort must cancel the still-pending drain, so the
    /// in-flight step completes without a `Drained` and the request keeps
    /// running on its source.
    #[test]
    fn destination_failure_while_awaiting_drain_cancels_pending_drain() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let t = start_running(&mut src, meta(1, 512, 100));
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let StartOutcome::Started { id, stage_done_at } =
            coord.start(RequestId(1), &mut src, &mut dst, t)
        else {
            panic!("refused");
        };
        // Put a decode step in flight so the drain defers to its boundary.
        let plan = src.poll_step(t).expect("decode");
        let step_end = plan.finish_at();
        let outcome = coord
            .on_stage_done(id, &mut src, &mut dst, stage_done_at)
            .expect("active");
        assert_eq!(outcome, StageOutcome::DrainRequested);
        assert_eq!(
            coord.abort_for_crash(id, InstanceId(1), &mut src),
            AbortReason::DestinationFailed
        );
        assert_eq!(coord.active_count(), 0);
        assert!(!src.migrating());
        // The cancelled drain must not fire at the step boundary.
        let events = src.complete_step(step_end);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, llumnix_engine::EngineEvent::Drained(_))),
            "cancelled drain fired anyway: {events:?}"
        );
        assert_eq!(
            src.state(RequestId(1)).expect("alive").phase,
            Phase::Running
        );
    }

    /// Source instance fails during the final copy: the destination's
    /// reservation is released and the late commit event is stale.
    #[test]
    fn source_failure_during_final_copy_releases_reservation() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let (mut coord, id, commit_at) = reach_final_copy(&mut src, &mut dst);
        assert_eq!(
            coord.abort_for_crash(id, InstanceId(0), &mut dst),
            AbortReason::SourceFailed
        );
        assert_eq!(dst.free_blocks(), dst.total_blocks());
        assert_eq!(dst.reserved_blocks(), 0);
        assert_eq!(coord.stats().aborted, 1);
        assert_eq!(coord.active_count(), 0);
        assert!(!dst.migrating());
        assert_eq!(
            coord.on_commit(id, &mut src, &mut dst, commit_at),
            CommitResult::Stale
        );
    }

    /// Destination instance fails during the final copy: the drained request
    /// is restored to the source batch and the late commit event is stale.
    #[test]
    fn destination_failure_during_final_copy_restores_request() {
        let mut src = engine(0, 4096);
        let mut dst = engine(1, 4096);
        let (mut coord, id, commit_at) = reach_final_copy(&mut src, &mut dst);
        assert_eq!(
            src.state(RequestId(1)).expect("state").phase,
            Phase::Draining
        );
        assert_eq!(
            coord.abort_for_crash(id, InstanceId(1), &mut src),
            AbortReason::DestinationFailed
        );
        assert_eq!(
            src.state(RequestId(1)).expect("state").phase,
            Phase::Running
        );
        assert!(src.running_ids().contains(&RequestId(1)));
        assert_eq!(coord.stats().aborted, 1);
        assert!(!src.migrating());
        assert_eq!(
            coord.on_commit(id, &mut src, &mut dst, commit_at),
            CommitResult::Stale
        );
    }
}
