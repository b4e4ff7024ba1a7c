//! Property tests for the cost, memory, and transfer models.

use llumnix_model::{
    BlockGeometry, CalibratedCostModel, CostModel, DecodeBatch, ModelSpec, PrefillBatch,
    TransferMode, TransferModel,
};
use proptest::prelude::*;

proptest! {
    /// Decode cost is monotone in both batch size and total tokens.
    #[test]
    fn decode_cost_monotone(
        seqs in 1u32..256,
        tokens in 1u64..200_000,
        extra_seqs in 0u32..64,
        extra_tokens in 0u64..50_000,
    ) {
        let m = CalibratedCostModel::llama_7b_a10();
        let base = m.decode_step(DecodeBatch { num_seqs: seqs, total_tokens: tokens });
        let more = m.decode_step(DecodeBatch {
            num_seqs: seqs + extra_seqs,
            total_tokens: tokens + extra_tokens,
        });
        prop_assert!(more >= base);
        prop_assert!(!base.is_zero());
    }

    /// Prefill cost is monotone in token count and superadditive in the
    /// quadratic regime (splitting a prompt never costs more than one shot
    /// minus the fixed overhead).
    #[test]
    fn prefill_cost_monotone(tokens in 1u64..16_384, extra in 0u64..8_192) {
        let m = CalibratedCostModel::llama_30b_4xa10();
        let one = m.prefill_step(PrefillBatch { num_seqs: 1, total_tokens: tokens, max_tokens: tokens });
        let two = m.prefill_step(PrefillBatch {
            num_seqs: 1,
            total_tokens: tokens + extra,
            max_tokens: tokens + extra,
        });
        prop_assert!(two >= one);
    }

    /// Block math: blocks_for_tokens is the exact ceiling, and capacity is a
    /// whole number of blocks.
    #[test]
    fn block_geometry_ceiling(capacity in 16u32..200_000, tokens in 0u32..200_000, bs in 1u32..128) {
        let g = BlockGeometry::new(&ModelSpec::llama_7b(), capacity, bs);
        let blocks = g.blocks_for_tokens(tokens);
        prop_assert!(blocks as u64 * bs as u64 >= tokens as u64);
        if blocks > 0 {
            let lower = (blocks as u64 - 1) * bs as u64;
            prop_assert!(lower < tokens as u64);
        }
        prop_assert_eq!(g.capacity_tokens() % bs, 0);
        prop_assert!(g.capacity_tokens() <= capacity);
    }

    /// Transfer time is monotone in tokens; fusion never loses.
    #[test]
    fn transfer_monotone_and_fusion_wins(a in 1u32..20_000, b in 0u32..20_000) {
        let t = TransferModel::alibaba_vm_network();
        let m = ModelSpec::llama_7b();
        let small = t.copy_time(a, &m, TransferMode::GlooFused);
        let large = t.copy_time(a + b, &m, TransferMode::GlooFused);
        prop_assert!(large >= small);
        let unfused = t.copy_time(a, &m, TransferMode::GlooUnfused);
        prop_assert!(unfused >= small, "fusion can only help");
    }
}
