//! Request types and per-request runtime state.
//!
//! A request arrives with a prompt and generates tokens autoregressively
//! until EOS. The *output length is ground truth known only to the trace*:
//! the engine consumes it to decide when EOS fires, but schedulers only ever
//! observe tokens generated so far — the paper's "execution unpredictability"
//! (§1) is preserved by construction.

use llumnix_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Unique request identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl core::fmt::Display for RequestId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Priority classes. `High > Normal` (paper §4.4.1: two classes today, the
/// design generalizes to more).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Priority {
    /// Default class.
    #[default]
    Normal,
    /// Urgent class (e.g. interactive / paid tier).
    High,
}

/// A request's priorities: *scheduling* priority orders the queues,
/// *execution* priority earns a memory headroom on its instance (§4.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct PriorityPair {
    /// Queue-ordering priority.
    pub scheduling: Priority,
    /// Load-headroom priority.
    pub execution: Priority,
}

impl PriorityPair {
    /// Both priorities normal.
    pub const NORMAL: PriorityPair = PriorityPair {
        scheduling: Priority::Normal,
        execution: Priority::Normal,
    };

    /// Both priorities high (how §6.4 tags its 10% of requests).
    pub const HIGH: PriorityPair = PriorityPair {
        scheduling: Priority::High,
        execution: Priority::High,
    };
}

/// Immutable request description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestMeta {
    /// Unique id.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Ground-truth output length (EOS position); not visible to policies.
    pub output_len: u32,
    /// Priorities.
    pub priority: PriorityPair,
    /// Arrival at the cluster frontend.
    pub arrival: SimTime,
}

/// Lifecycle phase of a request on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// In the wait queue; no KV blocks held.
    Waiting,
    /// Admitted: blocks allocated, prefill (or recompute) step pending or
    /// in flight.
    Prefilling,
    /// In the running batch, decoding.
    Running,
    /// Removed from the batch for the final migration stage.
    Draining,
    /// EOS generated; terminal.
    Finished,
}

/// Full runtime state of a request resident on one instance.
///
/// This is exactly the state that travels with the request during a live
/// migration (everything except the KV cache itself, which the migration
/// copies block by block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqState {
    /// Immutable description.
    pub meta: RequestMeta,
    /// Lifecycle phase on this instance.
    pub phase: Phase,
    /// Output tokens generated so far (survives preemption and migration).
    pub generated: u32,
    /// Tokens whose KV cache is resident on this instance. Zero while
    /// waiting; `input + generated` once prefilled/recomputed.
    pub cached_tokens: u32,
    /// KV blocks currently held on this instance.
    pub blocks_held: u32,
    /// When the request entered this instance's queue (re-set on preemption).
    pub enqueued_at: SimTime,
    /// First output token emission time.
    pub first_token_at: Option<SimTime>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
    /// Number of preemptions suffered.
    pub preemptions: u32,
    /// Extra latency caused by preemptions (re-queuing + recompute).
    pub preemption_loss: SimDuration,
    /// When the latest preemption happened (pending loss accounting).
    pub preempted_at: Option<SimTime>,
    /// Pure decode compute time accumulated (stall-free), for Figure 13.
    pub decode_compute: SimDuration,
    /// Completed migrations of this request.
    pub migrations: u32,
    /// Total migration downtime observed.
    pub migration_downtime: SimDuration,
    /// Whether the request was aborted (it can never fit the instance);
    /// aborted requests produce no latency record.
    pub aborted: bool,
    /// Whether the request's KV cache currently lives in host memory
    /// (swap-mode preemption); readmission swaps it back in instead of
    /// recomputing.
    pub swapped_out: bool,
    /// When the most recent token was emitted.
    pub last_token_at: Option<SimTime>,
    /// The longest gap between consecutive emitted tokens — the worst
    /// user-visible stall (preemption, migration downtime, interference).
    pub max_token_gap: SimDuration,
}

impl SeqState {
    /// Fresh state for a newly dispatched request.
    pub fn new(meta: RequestMeta, enqueued_at: SimTime) -> Self {
        SeqState {
            meta,
            phase: Phase::Waiting,
            generated: 0,
            cached_tokens: 0,
            blocks_held: 0,
            enqueued_at,
            first_token_at: None,
            finished_at: None,
            preemptions: 0,
            preemption_loss: SimDuration::ZERO,
            preempted_at: None,
            decode_compute: SimDuration::ZERO,
            migrations: 0,
            migration_downtime: SimDuration::ZERO,
            aborted: false,
            swapped_out: false,
            last_token_at: None,
            max_token_gap: SimDuration::ZERO,
        }
    }

    /// Records a token emission at `now`, updating the worst-stall tracker.
    pub fn note_token(&mut self, now: SimTime) {
        if let Some(prev) = self.last_token_at {
            let gap = now.since(prev);
            if gap > self.max_token_gap {
                self.max_token_gap = gap;
            }
        }
        self.last_token_at = Some(now);
    }

    /// Tokens of KV the request needs resident to run: prompt plus whatever
    /// it has generated so far (a recompute after preemption must rebuild
    /// the KV of already-generated tokens too).
    pub fn required_tokens(&self) -> u32 {
        self.meta.input_len + self.generated
    }

    /// Current total sequence length (prompt + generated).
    pub fn total_len(&self) -> u32 {
        self.meta.input_len + self.generated
    }

    /// Whether EOS has been reached.
    pub fn is_complete(&self) -> bool {
        self.generated >= self.meta.output_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RequestMeta {
        RequestMeta {
            id: RequestId(1),
            input_len: 100,
            output_len: 50,
            priority: PriorityPair::NORMAL,
            arrival: SimTime::from_secs(1),
        }
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High > Priority::Normal);
    }

    #[test]
    fn fresh_state() {
        let s = SeqState::new(meta(), SimTime::from_secs(2));
        assert_eq!(s.phase, Phase::Waiting);
        assert_eq!(s.required_tokens(), 100);
        assert_eq!(s.total_len(), 100);
        assert!(!s.is_complete());
    }

    #[test]
    fn required_tokens_grows_with_generation() {
        let mut s = SeqState::new(meta(), SimTime::ZERO);
        s.generated = 30;
        assert_eq!(s.required_tokens(), 130);
        assert!(!s.is_complete());
        s.generated = 50;
        assert!(s.is_complete());
    }

    #[test]
    fn display_request_id() {
        assert_eq!(RequestId(42).to_string(), "r42");
    }
}
