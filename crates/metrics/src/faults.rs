//! Failure and recovery accounting for fault-injection runs.
//!
//! The serving loop fills a [`FaultStats`] while replaying a fault plan:
//! how many faults of each class actually fired, what happened to the
//! requests a crashed instance was holding, how its in-flight migrations
//! were aborted, and how long lost requests took to produce their first
//! token after the crash (recovery latency).

use serde::Serialize;

use crate::percentile::Summary;

/// Counters and recovery percentiles for one fault-injection run.
///
/// Invariant (checked by [`FaultStats::consistent`]): every request lost to
/// a crash is either redispatched through the main dispatcher or aborted
/// because no dispatch target existed, exactly once:
/// `requests_lost == requests_redispatched + requests_lost_aborted`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultStats {
    /// Instance crashes that fired (a live target existed).
    pub crashes: u64,
    /// Planned crashes skipped because the fleet had ≤ 1 live instance.
    pub crashes_skipped: u64,
    /// Transient slowdown (straggler) faults applied.
    pub slowdowns: u64,
    /// Migration-link failures applied.
    pub link_failures: u64,
    /// Global-scheduler outages applied.
    pub scheduler_outages: u64,
    /// Requests resident on crashed instances (queued + running + draining).
    pub requests_lost: u64,
    /// Lost requests successfully re-dispatched to a surviving instance.
    pub requests_redispatched: u64,
    /// Lost requests aborted because no dispatch target existed.
    pub requests_lost_aborted: u64,
    /// Migration aborts attributed to a crashed source instance.
    pub aborts_source_failed: u64,
    /// Migration aborts attributed to a crashed destination instance.
    pub aborts_destination_failed: u64,
    /// Migration aborts attributed to a downed migration link.
    pub aborts_link_failed: u64,
    /// First-token latency measured from the crash that lost the request
    /// (seconds): queueing after redispatch + the fresh prefill.
    pub recovery_latency: Summary,
}

impl FaultStats {
    /// True when the lost-request ledger balances (see type docs).
    pub fn consistent(&self) -> bool {
        self.requests_lost == self.requests_redispatched + self.requests_lost_aborted
    }

    /// Total migration aborts caused by injected failures (any reason).
    pub fn failure_aborts(&self) -> u64 {
        self.aborts_source_failed + self.aborts_destination_failed + self.aborts_link_failed
    }

    /// True when no fault of any class fired.
    pub fn quiet(&self) -> bool {
        self.crashes == 0
            && self.crashes_skipped == 0
            && self.slowdowns == 0
            && self.link_failures == 0
            && self.scheduler_outages == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_consistency() {
        let mut s = FaultStats::default();
        assert!(s.consistent());
        assert!(s.quiet());
        s.crashes = 2;
        s.requests_lost = 5;
        s.requests_redispatched = 4;
        assert!(!s.consistent());
        assert!(!s.quiet());
        s.requests_lost_aborted = 1;
        assert!(s.consistent());
        assert_eq!(s.failure_aborts(), 0);
        s.aborts_source_failed = 3;
        s.aborts_link_failed = 1;
        assert_eq!(s.failure_aborts(), 4);
        let outage_only = FaultStats {
            scheduler_outages: 1,
            ..FaultStats::default()
        };
        assert!(!outage_only.quiet());
    }
}
