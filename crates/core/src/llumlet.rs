//! The llumlet: Llumnix's per-instance scheduler (§4.3).
//!
//! Each llumlet wraps one engine instance and owns the instance-local pieces
//! of the design: computing the load (virtual-usage-based freeness) that it
//! reports to the global scheduler, and choosing which request to migrate
//! when the global scheduler marks its instance as a migration source.

use llumnix_engine::{InstanceEngine, InstanceId, RequestId};
use llumnix_sim::SimTime;

use crate::policy::{LoadReport, VictimPolicy};
use crate::virtual_usage::{engine_freeness, infaas_memory_load, HeadroomConfig};

/// One instance plus its local scheduler state.
///
/// `Clone` supports the sim-level snapshot/fork capability.
#[derive(Clone)]
pub struct Llumlet {
    /// The wrapped engine.
    pub engine: InstanceEngine,
    /// Draining for termination (the Algorithm 1 fake request).
    pub terminating: bool,
    /// Still starting up until this time (auto-scaling launch delay).
    pub starting_until: Option<SimTime>,
    /// When this instance was launched (cost accounting).
    pub launched_at: SimTime,
}

impl Llumlet {
    /// Wraps an engine launched at `launched_at`, serving from
    /// `starting_until` (or immediately if `None`).
    pub fn new(
        engine: InstanceEngine,
        launched_at: SimTime,
        starting_until: Option<SimTime>,
    ) -> Self {
        Llumlet {
            engine,
            terminating: false,
            starting_until,
            launched_at,
        }
    }

    /// The wrapped instance's id.
    pub fn id(&self) -> InstanceId {
        self.engine.id
    }

    /// Whether the instance is still in its startup delay at `now`.
    pub fn is_starting(&self, now: SimTime) -> bool {
        self.starting_until.is_some_and(|t| now < t)
    }

    /// Builds this instance's load report (§4.3: llumlets report
    /// instance-level metrics only, never per-request state).
    ///
    /// Every call computes the report from the engine's current state; the
    /// serving loop keeps its dispatch index current by asking only for the
    /// instances its store marked dirty. Both freeness signals come from one
    /// allocation-free pass, [`engine_freeness`]; debug builds check both,
    /// to the bit, against Algorithm 1's [`freeness`](crate::freeness) over
    /// an [`InstanceView`](crate::InstanceView).
    pub fn report_fresh(&self, now: SimTime, headroom: &HeadroomConfig) -> LoadReport {
        let (freeness, freeness_physical) =
            engine_freeness(&self.engine, self.terminating, now, headroom);
        #[cfg(debug_assertions)]
        {
            use crate::virtual_usage::{freeness as algorithm1, InstanceView};
            let view = InstanceView::from_engine(&self.engine, self.terminating, now);
            let physical = HeadroomConfig {
                high_priority_target_tokens: None,
                ..*headroom
            };
            debug_assert_eq!(
                (freeness.to_bits(), freeness_physical.to_bits()),
                (
                    algorithm1(&view, headroom).to_bits(),
                    algorithm1(&view, &physical).to_bits()
                ),
                "one-pass freeness diverged from Algorithm 1 on {}",
                self.engine.id
            );
        }
        LoadReport {
            id: self.engine.id,
            freeness,
            freeness_physical,
            memory_load: infaas_memory_load(&self.engine),
            num_running: self.engine.batch_size(),
            num_waiting: self.engine.waiting_len(),
            terminating: self.terminating,
            starting: self.is_starting(now),
        }
    }

    /// Chooses the next request to migrate out under `policy`, skipping
    /// those in `busy` (already migrating). Per §4.4.3, the default policy
    /// "prefers the requests with lower priorities and shorter sequence
    /// lengths".
    pub fn select_migration_victim_with(
        &self,
        policy: VictimPolicy,
        busy: impl Fn(RequestId) -> bool,
    ) -> Option<RequestId> {
        let candidates = self
            .engine
            .migratable_requests()
            .into_iter()
            .filter(|(id, _, _)| !busy(*id));
        match policy {
            VictimPolicy::LowPriorityShortest => candidates
                .min_by_key(|&(id, priority, len)| (priority, len, id))
                .map(|(id, _, _)| id),
            VictimPolicy::Shortest => candidates
                .min_by_key(|&(id, _, len)| (len, id))
                .map(|(id, _, _)| id),
            VictimPolicy::Longest => candidates
                .max_by_key(|&(id, _, len)| (len, core::cmp::Reverse(id)))
                .map(|(id, _, _)| id),
            VictimPolicy::Oldest => candidates.min_by_key(|&(id, _, _)| id).map(|(id, _, _)| id),
        }
    }

    /// Whether the instance has fully drained (safe to terminate).
    pub fn is_drained(&self) -> bool {
        !self.engine.has_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llumnix_engine::{EngineConfig, PriorityPair, RequestMeta};
    use llumnix_model::InstanceSpec;

    fn llumlet(capacity: u32) -> Llumlet {
        Llumlet::new(
            InstanceEngine::new(
                InstanceId(0),
                InstanceSpec::tiny_for_tests(capacity),
                EngineConfig::default(),
            ),
            SimTime::ZERO,
            None,
        )
    }

    fn run_request(l: &mut Llumlet, id: u64, input: u32, output: u32, priority: PriorityPair) {
        l.engine.add_request(
            RequestMeta {
                id: RequestId(id),
                input_len: input,
                output_len: output,
                priority,
                arrival: SimTime::from_micros(id),
            },
            SimTime::ZERO,
        );
        let p = l.engine.poll_step(SimTime::ZERO).expect("prefill");
        let t = p.finish_at();
        l.engine.complete_step(t);
    }

    #[test]
    fn starting_window() {
        let mut l = llumlet(160);
        assert!(!l.is_starting(SimTime::ZERO));
        l.starting_until = Some(SimTime::from_secs(30));
        assert!(l.is_starting(SimTime::from_secs(29)));
        assert!(!l.is_starting(SimTime::from_secs(30)));
        let r = l.report_fresh(SimTime::from_secs(1), &HeadroomConfig::DISABLED);
        assert!(r.starting);
    }

    #[test]
    fn report_reflects_termination() {
        let mut l = llumlet(160);
        l.terminating = true;
        let r = l.report_fresh(SimTime::ZERO, &HeadroomConfig::DISABLED);
        assert!(r.terminating);
        assert_eq!(r.freeness, f64::NEG_INFINITY);
    }

    #[test]
    fn victim_prefers_low_priority_then_short() {
        let mut l = llumlet(4096);
        run_request(&mut l, 1, 400, 50, PriorityPair::NORMAL);
        run_request(&mut l, 2, 100, 50, PriorityPair::NORMAL);
        run_request(&mut l, 3, 50, 50, PriorityPair::HIGH);
        // Normal beats high even though r3 is shortest; r2 shortest normal.
        let paper = VictimPolicy::LowPriorityShortest;
        let v = l
            .select_migration_victim_with(paper, |_| false)
            .expect("victim");
        assert_eq!(v, RequestId(2));
        // Skip busy requests.
        let v = l
            .select_migration_victim_with(paper, |id| id == RequestId(2))
            .expect("victim");
        assert_eq!(v, RequestId(1));
        // All busy → none.
        assert!(l.select_migration_victim_with(paper, |_| true).is_none());
    }

    #[test]
    fn drained_detection() {
        let mut l = llumlet(160);
        assert!(l.is_drained());
        run_request(&mut l, 1, 32, 4, PriorityPair::NORMAL);
        assert!(!l.is_drained());
    }
}
