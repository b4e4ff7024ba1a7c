//! Calibrated performance, memory, and transfer models for llumnix-rs.
//!
//! With no GPUs available, the reproduction replaces measured step latencies
//! with analytical models — exactly the substitution the paper itself makes
//! in its §6.6 scalability study. This crate holds those models:
//!
//! * [`ModelSpec`] — published architectural constants;
//! * [`BlockGeometry`] — paged KV-cache geometry (vLLM-style blocks);
//! * [`CostModel`] / [`CalibratedCostModel`] — decode/prefill step latencies
//!   calibrated to the paper's Figure 4 envelope;
//! * [`TransferModel`] — Gloo-over-VM-network KV copy costs, with and without
//!   the paper's block fusion (§5);
//! * [`InstanceSpec`] — the bundle describing one serving instance type.

#![warn(missing_docs)]

mod cost;
mod instance;
mod memory;
mod specs;
mod transfer;

pub use cost::{
    CalibratedCostModel, CostModel, DecodeBatch, DecodeCostMemo, PrefillBatch,
    DECODE_MEMO_BUCKET_TOKENS,
};
pub use instance::InstanceSpec;
pub use memory::{presets, BlockGeometry};
pub use specs::ModelSpec;
pub use transfer::{TransferMode, TransferModel};
