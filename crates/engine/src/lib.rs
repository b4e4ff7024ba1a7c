//! vLLM-like instance engine for llumnix-rs.
//!
//! Reproduces the scheduling-relevant dynamics of a state-of-the-art LLM
//! inference engine (paper §2): continuous batching, paged KV-cache blocks
//! with dynamic allocation, all-at-once prefill admission, recompute-style
//! preemption — plus the hooks Llumnix's live migration needs (reservations,
//! drain, snapshot, commit).

#![warn(missing_docs)]

mod block;
mod id_hash;
mod instance;
mod queue;
mod request;

pub use block::{BlockError, BlockManager, ReservationId};
pub use instance::{
    DrainOutcome, EngineConfig, EngineEvent, EngineStats, InstanceEngine, InstanceId,
    PreemptionMode, StepKind, StepPlan,
};
pub use queue::{QueueOrder, WaitQueue};
pub use request::{Phase, Priority, PriorityPair, RequestId, RequestMeta, SeqState};
