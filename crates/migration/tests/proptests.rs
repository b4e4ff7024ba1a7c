//! Property tests for the live-migration protocol: random request shapes
//! and random interleavings of decoding with protocol events must preserve
//! the handshake's invariants — no double residency, exact token
//! conservation, and no leaked blocks or reservations on any path.

use llumnix_engine::{
    EngineConfig, EngineEvent, InstanceEngine, InstanceId, Phase, PriorityPair, RequestId,
    RequestMeta,
};
use llumnix_migration::{
    CommitResult, MigrationConfig, MigrationCoordinator, StageOutcome, StartOutcome,
};
use llumnix_model::InstanceSpec;
use llumnix_sim::SimTime;
use proptest::prelude::*;

fn engine(id: u32, capacity: u32) -> InstanceEngine {
    InstanceEngine::new(
        InstanceId(id),
        InstanceSpec::tiny_for_tests(capacity),
        EngineConfig::default(),
    )
}

fn start_running(e: &mut InstanceEngine, meta: RequestMeta) -> SimTime {
    e.add_request(meta, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    while e.state(meta.id).is_some_and(|s| s.phase != Phase::Running) {
        let plan = e.poll_step(now).expect("step towards running");
        now = plan.finish_at();
        e.complete_step(now);
    }
    now
}

proptest! {
    /// A migration of a request with arbitrary shape, racing against its own
    /// decoding, always ends in exactly one of: committed on the destination
    /// with all tokens intact, or aborted with the source untouched. Either
    /// way no block or reservation leaks.
    #[test]
    fn migration_commits_or_aborts_cleanly(
        input in 16u32..3_000,
        output in 1u32..400,
        dst_load in 0u32..3_000,
        start_after_steps in 0u32..50,
    ) {
        let mut src = engine(0, 4_096);
        let mut dst = engine(1, 4_096);
        // Preload the destination.
        if dst_load > 16 {
            let _ = start_running(&mut dst, RequestMeta {
                id: RequestId(99),
                input_len: dst_load,
                output_len: 100_000,
                priority: PriorityPair::NORMAL,
                arrival: SimTime::ZERO,
            });
        }
        let meta = RequestMeta {
            id: RequestId(1),
            input_len: input,
            output_len: output,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::ZERO,
        };
        let mut now = start_running(&mut src, meta);
        // Decode a random while before migrating (the request may finish).
        for _ in 0..start_after_steps {
            let Some(plan) = src.poll_step(now) else { break };
            now = plan.finish_at();
            src.complete_step(now);
        }
        let mut coord = MigrationCoordinator::new(MigrationConfig::default());
        let outcome = coord.start(RequestId(1), &mut src, &mut dst, now);
        let StartOutcome::Started { id, mut stage_done_at } = outcome else {
            // Refused: nothing may have been reserved or counted.
            prop_assert!(dst.check_invariants());
            prop_assert!(src.check_invariants());
            prop_assert_eq!(dst.reserved_blocks(), 0);
            prop_assert!(!src.migrating() && !dst.migrating());
            return Ok(());
        };
        // Drive the race to completion.
        let mut committed = false;
        let mut aborted = false;
        let mut guard = 0u32;
        'protocol: loop {
            guard += 1;
            prop_assert!(guard < 10_000, "protocol did not converge");
            while now < stage_done_at {
                let Some(plan) = src.poll_step(now) else { break };
                now = plan.finish_at();
                let events = src.complete_step(now);
                if events.iter().any(|e| matches!(e, EngineEvent::Drained(_))) {
                    let (mid, commit_at) = coord
                        .on_drained(RequestId(1), &mut src, now)
                        .expect("awaiting drain");
                    let out = coord.on_commit(mid, &mut src, &mut dst, commit_at);
                    prop_assert!(matches!(out, CommitResult::Committed(_)));
                    committed = true;
                    break 'protocol;
                }
            }
            let now_at = stage_done_at.max(now);
            match coord.on_stage_done(id, &mut src, &mut dst, now_at) {
                Some(StageOutcome::NextStage { copy_done_at }) => {
                    stage_done_at = copy_done_at;
                }
                Some(StageOutcome::FinalCopy { commit_at }) => {
                    let out = coord.on_commit(id, &mut src, &mut dst, commit_at);
                    prop_assert!(matches!(out, CommitResult::Committed(_)));
                    committed = true;
                    break;
                }
                Some(StageOutcome::DrainRequested) => {
                    // Continue decoding; Drained fires at the step boundary.
                    if !src.step_in_flight() {
                        // Source idle but drain pending is impossible.
                        prop_assert!(false, "drain pending on idle source");
                    }
                }
                Some(StageOutcome::Aborted(_)) => {
                    aborted = true;
                    break;
                }
                None => {
                    aborted = true; // stale: aborted elsewhere
                    break;
                }
            }
        }
        prop_assert!(committed ^ aborted);
        // Exactly-one-residency and conservation.
        let on_src = src.state(RequestId(1)).is_some();
        let on_dst = dst.state(RequestId(1)).is_some();
        if committed {
            prop_assert!(!on_src && on_dst, "committed ⇒ destination-only");
            // Run the request to completion on the destination.
            let mut steps = 0u32;
            while dst.state(RequestId(1)).is_some() {
                let Some(plan) = dst.poll_step(now) else { break };
                now = plan.finish_at();
                dst.complete_step(now);
                steps += 1;
                prop_assert!(steps < 100_000);
            }
            let fin = dst.take_finished();
            let s = fin.iter().find(|s| s.meta.id == RequestId(1)).expect("finished");
            prop_assert_eq!(s.generated, output, "token conservation");
            prop_assert_eq!(s.migrations, 1);
        } else {
            // Aborted: the request either finished at the source or is still
            // whole there; the destination holds nothing for it.
            prop_assert!(!on_dst || !on_src, "no double residency");
        }
        prop_assert!(src.check_invariants());
        prop_assert!(dst.check_invariants());
        // No reservation leaks, and neither engine still counts the
        // migration.
        prop_assert_eq!(src.reserved_blocks(), 0);
        prop_assert_eq!(dst.reserved_blocks(), 0);
        prop_assert!(!src.migrating() && !dst.migrating());
        prop_assert_eq!(coord.active_count(), 0);
        let stats = coord.stats();
        prop_assert_eq!(stats.started, stats.committed + stats.aborted);
    }
}
