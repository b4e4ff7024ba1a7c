//! KV-cache memory geometry: blocks, capacities, and token↔block math.
//!
//! vLLM-style PagedAttention stores the KV cache in fixed-size blocks of
//! `block_tokens` token positions. A request occupying `n` tokens holds
//! `ceil(n / block_tokens)` blocks; the last block may be partially filled
//! (internal fragmentation), and unallocated blocks spread across instances
//! are the *external* fragmentation the paper's de-fragmentation targets.

use serde::{Deserialize, Serialize};

use crate::specs::ModelSpec;

/// Geometry of the paged KV cache on one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockGeometry {
    /// Token positions per block (vLLM default: 16).
    pub block_tokens: u32,
    /// Total KV-cache bytes per block across all layers, keys and values.
    pub bytes_per_block: u64,
    /// Total number of KV blocks on the instance.
    pub total_blocks: u32,
}

impl BlockGeometry {
    /// Builds a geometry from a model and a token capacity.
    ///
    /// The capacity is rounded down to a whole number of blocks.
    pub fn new(model: &ModelSpec, capacity_tokens: u32, block_tokens: u32) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        BlockGeometry {
            block_tokens,
            bytes_per_block: model.kv_bytes_per_token() * block_tokens as u64,
            total_blocks: capacity_tokens / block_tokens,
        }
    }

    /// Number of blocks needed to hold `tokens` token positions.
    pub fn blocks_for_tokens(&self, tokens: u32) -> u32 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Token capacity of the whole instance (whole blocks only).
    pub fn capacity_tokens(&self) -> u32 {
        self.total_blocks * self.block_tokens
    }
}

/// Capacity presets matching the paper's testbed.
pub mod presets {
    use super::BlockGeometry;
    use crate::specs::ModelSpec;

    /// Paper §6.1: an A10 fits 13,616 tokens of LLaMA-7B KV cache.
    pub const LLAMA_7B_A10_CAPACITY_TOKENS: u32 = 13_616;

    /// Derived for LLaMA-30B on 4×A10: 4×24 GiB minus 65 GiB of weights and a
    /// ~10% activation reserve leaves ≈14,400 tokens of 1.56 MiB/token KV.
    pub const LLAMA_30B_4XA10_CAPACITY_TOKENS: u32 = 14_400;

    /// Geometry for one LLaMA-7B instance on an A10 (851 blocks of 16).
    pub fn llama_7b_a10() -> BlockGeometry {
        BlockGeometry::new(&ModelSpec::llama_7b(), LLAMA_7B_A10_CAPACITY_TOKENS, 16)
    }

    /// Geometry for one LLaMA-30B instance on 4×A10.
    pub fn llama_30b_4xa10() -> BlockGeometry {
        BlockGeometry::new(&ModelSpec::llama_30b(), LLAMA_30B_4XA10_CAPACITY_TOKENS, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::presets;
    use super::*;

    #[test]
    fn llama_7b_a10_geometry_matches_paper() {
        let g = presets::llama_7b_a10();
        assert_eq!(g.total_blocks, 851);
        assert_eq!(g.block_tokens, 16);
        assert_eq!(g.capacity_tokens(), 13_616);
        // 16 tokens × 512 KiB/token = 8 MiB per block.
        assert_eq!(g.bytes_per_block, 8 * 1024 * 1024);
    }

    #[test]
    fn blocks_for_tokens_rounds_up() {
        let g = presets::llama_7b_a10();
        assert_eq!(g.blocks_for_tokens(0), 0);
        assert_eq!(g.blocks_for_tokens(1), 1);
        assert_eq!(g.blocks_for_tokens(16), 1);
        assert_eq!(g.blocks_for_tokens(17), 2);
        assert_eq!(g.blocks_for_tokens(13_616), 851);
    }

    #[test]
    fn byte_accounting() {
        let m = ModelSpec::llama_7b();
        let g = presets::llama_7b_a10();
        assert_eq!(2 * g.bytes_per_block, 16 * 1024 * 1024);
        // 1k tokens of LLaMA-7B KV is 512 MiB (paper §5: 4k blocks × 128 KiB).
        assert_eq!(1024 * m.kv_bytes_per_token(), 512 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "block_tokens must be positive")]
    fn zero_block_tokens_rejected() {
        let _ = BlockGeometry::new(&ModelSpec::llama_7b(), 1024, 0);
    }
}
