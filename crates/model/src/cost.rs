//! Calibrated step-latency model.
//!
//! The paper's §6.6 stress test replaces GPU execution with "a simple sleep
//! command, whose duration is determined by offline measurement on A10 GPUs
//! with different sequence lengths and batch sizes". This module is that
//! substitution made explicit: analytical latency functions whose constants
//! are calibrated so the *shape* of the paper's Figure 4 holds —
//!
//! * decode steps are memory-bandwidth-bound: a large constant term (weights
//!   traffic) plus terms linear in the number of sequences and the total
//!   number of batched tokens (KV traffic);
//! * the spread between a lone sequence and the same sequence inside a full
//!   batch reaches ≈2.6× (paper §3, Figure 4);
//! * prefill is compute-bound: linear in prompt tokens with a small quadratic
//!   attention term, so recomputing an 8k sequence on LLaMA-30B costs ≈3.5 s
//!   (paper §6.2, Figure 10).

use llumnix_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A batch summary handed to the cost model for a decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeBatch {
    /// Number of sequences decoding in the step.
    pub num_seqs: u32,
    /// Total tokens (input + generated so far) across those sequences.
    pub total_tokens: u64,
}

/// A batch summary for a prefill step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillBatch {
    /// Number of prompts prefetched in the step.
    pub num_seqs: u32,
    /// Total prompt tokens across those prompts.
    pub total_tokens: u64,
    /// Largest single prompt in the batch (drives the quadratic term).
    pub max_tokens: u64,
}

/// Step-latency model for one instance type.
pub trait CostModel: Send + Sync {
    /// Latency of one decode step over the given batch.
    fn decode_step(&self, batch: DecodeBatch) -> SimDuration;

    /// Latency of one prefill step over the given batch of prompts.
    fn prefill_step(&self, batch: PrefillBatch) -> SimDuration;

    /// Latency to recompute `tokens` of KV cache for a single sequence
    /// (used by preemption-recovery and the recompute rescheduling baseline).
    fn recompute(&self, tokens: u64) -> SimDuration {
        self.prefill_step(PrefillBatch {
            num_seqs: 1,
            total_tokens: tokens,
            max_tokens: tokens,
        })
    }
}

/// Affine decode / linear-plus-quadratic prefill model.
///
/// # Examples
///
/// ```
/// use llumnix_model::{CalibratedCostModel, CostModel, DecodeBatch};
///
/// let m = CalibratedCostModel::llama_7b_a10();
/// let lone = m.decode_step(DecodeBatch { num_seqs: 1, total_tokens: 256 });
/// let loaded = m.decode_step(DecodeBatch { num_seqs: 32, total_tokens: 13_616 });
/// // Interference: the same step is slower inside a saturated batch.
/// assert!(loaded > lone.saturating_mul(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibratedCostModel {
    /// Model name, for reports.
    pub name: String,
    /// Fixed decode-step cost in ms (weight traffic, kernel launches).
    pub decode_base_ms: f64,
    /// Decode cost per sequence in the batch, in ms.
    pub decode_per_seq_ms: f64,
    /// Decode cost per batched token, in ms.
    pub decode_per_token_ms: f64,
    /// Fixed prefill-step cost in ms.
    pub prefill_base_ms: f64,
    /// Prefill cost per prompt token, in ms.
    pub prefill_per_token_ms: f64,
    /// Quadratic attention cost per squared prompt token, in ms.
    pub prefill_quadratic_ms: f64,
}

impl CalibratedCostModel {
    /// LLaMA-7B on one A10.
    ///
    /// Sanity anchors: lone short sequence ≈22 ms/step; a full instance
    /// (13.6k tokens, batch 32–64) ≈55–60 ms/step; spread at equal sequence
    /// length tops out near 2.6× (Figure 4 left). Prefilling 2k tokens
    /// ≈0.45 s.
    pub fn llama_7b_a10() -> Self {
        CalibratedCostModel {
            name: "LLaMA-7B@A10".to_string(),
            decode_base_ms: 22.0,
            decode_per_seq_ms: 0.20,
            decode_per_token_ms: 0.0018,
            prefill_base_ms: 10.0,
            prefill_per_token_ms: 0.21,
            prefill_quadratic_ms: 1.5e-7,
        }
    }

    /// LLaMA-30B on 4×A10 with tensor parallelism.
    ///
    /// Sanity anchors: lone sequence ≈41 ms/step; full instance ≈105 ms/step;
    /// recomputing an 8k sequence ≈3.3 s (Figure 10's 3.5 s).
    pub fn llama_30b_4xa10() -> Self {
        CalibratedCostModel {
            name: "LLaMA-30B@4xA10".to_string(),
            decode_base_ms: 40.0,
            decode_per_seq_ms: 0.30,
            decode_per_token_ms: 0.0040,
            prefill_base_ms: 20.0,
            prefill_per_token_ms: 0.38,
            prefill_quadratic_ms: 3.0e-7,
        }
    }
}

/// Token-bucket width of decode-step costs: see [`DecodeBatch::bucket_floor`].
pub const DECODE_MEMO_BUCKET_TOKENS: u64 = 16;

impl DecodeBatch {
    /// The batch a decode step is priced at: `total_tokens` floored to a
    /// multiple of [`DECODE_MEMO_BUCKET_TOKENS`]. Every engine step costs
    /// [`CostModel::decode_step`] of this batch, so a step's duration depends
    /// on its batch size and token bucket only.
    pub fn bucket_floor(self) -> DecodeBatch {
        DecodeBatch {
            num_seqs: self.num_seqs,
            total_tokens: self.total_tokens / DECODE_MEMO_BUCKET_TOKENS * DECODE_MEMO_BUCKET_TOKENS,
        }
    }
}

/// The price of the last decode batch one engine met: a one-entry memo of
/// [`CostModel::decode_step`] at [`DecodeBatch::bucket_floor`].
///
/// Consecutive decode steps of one engine usually keep their batch size and
/// token bucket, so the entry answers most calls and the model's divide and
/// rounding run only on a miss. A miss evaluates the model at the floor and
/// stores the result, so a hit returns exactly what evaluating the model
/// would (DESIGN.md §7.2).
///
/// One memo serves one model: the key is the batch alone, so a memo that
/// priced a batch under one model returns that price under any other.
#[derive(Debug, Clone, Copy)]
pub struct DecodeCostMemo {
    /// The floored batch of the stored price. Its initial `total_tokens`,
    /// `u64::MAX`, is no multiple of the bucket width, so no floored batch
    /// matches it before the first miss.
    key: DecodeBatch,
    cost: SimDuration,
}

impl Default for DecodeCostMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeCostMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        DecodeCostMemo {
            key: DecodeBatch {
                num_seqs: 0,
                total_tokens: u64::MAX,
            },
            cost: SimDuration::ZERO,
        }
    }

    /// Exactly `model.decode_step(batch.bucket_floor())`.
    pub fn decode_step<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        batch: DecodeBatch,
    ) -> SimDuration {
        let key = batch.bucket_floor();
        if key != self.key {
            self.key = key;
            self.cost = model.decode_step(key);
        }
        self.cost
    }
}

impl CostModel for CalibratedCostModel {
    fn decode_step(&self, batch: DecodeBatch) -> SimDuration {
        if batch.num_seqs == 0 {
            return SimDuration::ZERO;
        }
        let ms = self.decode_base_ms
            + self.decode_per_seq_ms * batch.num_seqs as f64
            + self.decode_per_token_ms * batch.total_tokens as f64;
        SimDuration::from_millis_f64(ms)
    }

    fn prefill_step(&self, batch: PrefillBatch) -> SimDuration {
        if batch.num_seqs == 0 {
            return SimDuration::ZERO;
        }
        let ms = self.prefill_base_ms
            + self.prefill_per_token_ms * batch.total_tokens as f64
            + self.prefill_quadratic_ms * (batch.max_tokens as f64).powi(2);
        SimDuration::from_millis_f64(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seven_b() -> CalibratedCostModel {
        CalibratedCostModel::llama_7b_a10()
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let m = seven_b();
        assert_eq!(
            m.decode_step(DecodeBatch {
                num_seqs: 0,
                total_tokens: 0
            }),
            SimDuration::ZERO
        );
        assert_eq!(
            m.prefill_step(PrefillBatch {
                num_seqs: 0,
                total_tokens: 0,
                max_tokens: 0
            }),
            SimDuration::ZERO
        );
    }

    #[test]
    fn decode_monotone_in_batch_and_tokens() {
        let m = seven_b();
        let lone = m.decode_step(DecodeBatch {
            num_seqs: 1,
            total_tokens: 256,
        });
        let bigger_batch = m.decode_step(DecodeBatch {
            num_seqs: 16,
            total_tokens: 256 * 16,
        });
        let longer = m.decode_step(DecodeBatch {
            num_seqs: 1,
            total_tokens: 4096,
        });
        assert!(bigger_batch > lone);
        assert!(longer > lone);
    }

    #[test]
    fn figure4_interference_spread_near_2_6x() {
        // Paper §3: the decode latency gap at the same sequence length is up
        // to 2.6×. Compare a lone short sequence against the same sequence
        // inside a saturated instance.
        let m = seven_b();
        let lone = m.decode_step(DecodeBatch {
            num_seqs: 1,
            total_tokens: 128,
        });
        let saturated = m.decode_step(DecodeBatch {
            num_seqs: 64,
            total_tokens: 13_616,
        });
        let ratio = saturated.as_secs_f64() / lone.as_secs_f64();
        assert!(
            (2.0..3.0).contains(&ratio),
            "interference spread {ratio:.2} outside the paper's ≈2.6× band"
        );
    }

    #[test]
    fn decode_step_magnitudes_match_figure4() {
        let m7 = seven_b();
        let lone7 = m7
            .decode_step(DecodeBatch {
                num_seqs: 1,
                total_tokens: 256,
            })
            .as_millis_f64();
        assert!((15.0..35.0).contains(&lone7), "7B lone step {lone7} ms");
        let m30 = CalibratedCostModel::llama_30b_4xa10();
        let lone30 = m30
            .decode_step(DecodeBatch {
                num_seqs: 1,
                total_tokens: 256,
            })
            .as_millis_f64();
        assert!((30.0..60.0).contains(&lone30), "30B lone step {lone30} ms");
        assert!(lone30 > lone7);
    }

    #[test]
    fn recompute_8k_on_30b_near_3_5s() {
        // Paper §6.2: "recomputing an 8k sequence for LLaMA-30B takes 3.5s".
        let m = CalibratedCostModel::llama_30b_4xa10();
        let t = m.recompute(8 * 1024).as_secs_f64();
        assert!((2.8..4.2).contains(&t), "8k recompute = {t:.2}s");
    }

    #[test]
    fn prefill_2k_on_7b_subsecond() {
        let m = seven_b();
        let t = m.recompute(2048).as_secs_f64();
        assert!((0.2..0.8).contains(&t), "2k prefill = {t:.2}s");
    }

    #[test]
    fn memo_matches_model_at_bucket_floor_and_is_order_independent() {
        let m = seven_b();
        let mut memo = DecodeCostMemo::new();
        // Two token counts in the same bucket give the same memoized value.
        let a = memo.decode_step(
            &m,
            DecodeBatch {
                num_seqs: 4,
                total_tokens: 1_000,
            },
        );
        let b = memo.decode_step(
            &m,
            DecodeBatch {
                num_seqs: 4,
                total_tokens: 1_007,
            },
        );
        assert_eq!(a, b);
        // The stored value is the model evaluated at the bucket floor, no
        // matter which member of the bucket was seen first.
        let floor = (1_000 / DECODE_MEMO_BUCKET_TOKENS) * DECODE_MEMO_BUCKET_TOKENS;
        let expect = m.decode_step(DecodeBatch {
            num_seqs: 4,
            total_tokens: floor,
        });
        assert_eq!(a, expect);
        let mut memo2 = DecodeCostMemo::new();
        let b2 = memo2.decode_step(
            &m,
            DecodeBatch {
                num_seqs: 4,
                total_tokens: 1_007,
            },
        );
        assert_eq!(b2, expect, "first-seen member must not matter");
        // Different batch sizes are distinct entries.
        let c = memo.decode_step(
            &m,
            DecodeBatch {
                num_seqs: 5,
                total_tokens: 1_000,
            },
        );
        assert!(c > a);
        // Empty batches still cost nothing.
        assert_eq!(
            memo.decode_step(
                &m,
                DecodeBatch {
                    num_seqs: 0,
                    total_tokens: 0
                }
            ),
            SimDuration::ZERO
        );
        // Misses and hits alternate: each odd call repeats the floored batch
        // of the call before it, and each even call changes its size, its
        // bucket or both. Every result is the model's own value to the bit.
        let mut memo = DecodeCostMemo::new();
        for (num_seqs, total_tokens) in [
            (4, 1_000),
            (4, 1_007),
            (4, 1_008),
            (4, 1_023),
            (5, 1_023),
            (5, 1_010),
            (4, 1_000),
            (4, 995),
            (0, 0),
            (0, 15),
            (4, 1_015),
            (4, 1_012),
        ] {
            let batch = DecodeBatch {
                num_seqs,
                total_tokens,
            };
            assert_eq!(
                memo.decode_step(&m, batch),
                m.decode_step(batch.bucket_floor()),
                "{batch:?}"
            );
        }
    }
}
