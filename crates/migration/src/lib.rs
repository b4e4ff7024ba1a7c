//! Live migration of LLM requests (paper §4.2 and Figure 7).
//!
//! The [`MigrationCoordinator`] drives multi-stage pipelined KV-cache copies
//! that exploit the append-only KV cache: decoding continues through every
//! background stage, and only the final one-iteration delta is copied with
//! the request out of the batch — giving a near-zero downtime that is
//! constant in sequence length. A fine-grained handshake (pre-allocate /
//! liveness check / commit / abort) keeps both instances consistent through
//! completions, preemptions, memory pressure, and instance failures.
//!
//! [`reschedule_downtime`] models the naive baselines (recompute, blocking
//! copy) the paper compares against in Figure 10.

#![warn(missing_docs)]

mod baselines;
mod coordinator;
mod types;

pub use baselines::{reschedule_downtime, ReschedulePolicy};
pub use coordinator::{CoordinatorStats, MigrationCoordinator};
pub use types::{
    AbortReason, CommitOutcome, CommitResult, MigrationConfig, MigrationId, StageOutcome,
    StartOutcome,
};
