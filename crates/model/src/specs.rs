//! Architectural constants for the served models.
//!
//! The numbers here are the published LLaMA architecture parameters of the
//! models the paper serves.

use serde::{Deserialize, Serialize};

/// Architectural description of a served LLM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"LLaMA-7B"`.
    pub name: String,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Total parameter count.
    pub params: u64,
    /// Bytes per parameter / activation element (2 for fp16).
    pub dtype_bytes: u32,
    /// Number of GPUs the model is sharded over (tensor parallelism).
    pub tensor_parallel: u32,
}

impl ModelSpec {
    /// LLaMA-7B served on a single GPU (paper's main model).
    pub fn llama_7b() -> Self {
        ModelSpec {
            name: "LLaMA-7B".to_string(),
            layers: 32,
            hidden: 4096,
            params: 6_738_000_000,
            dtype_bytes: 2,
            tensor_parallel: 1,
        }
    }

    /// LLaMA-30B served on 4 GPUs of one machine via tensor parallelism
    /// (paper §6.1).
    pub fn llama_30b() -> Self {
        ModelSpec {
            name: "LLaMA-30B".to_string(),
            layers: 60,
            hidden: 6656,
            params: 32_529_000_000,
            dtype_bytes: 2,
            tensor_parallel: 4,
        }
    }

    /// KV-cache bytes stored per token: key and value vectors for each layer.
    ///
    /// For fp16 LLaMA-7B this is `2 × 32 × 4096 × 2 = 512 KiB`, matching the
    /// paper's §5 figure of "128 KB for key or value tensors of 16 tokens in
    /// each layer" (`128 KiB × 2 × 32 / 16 = 512 KiB` per token).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.hidden as u64 * self.dtype_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_7b_kv_bytes_match_paper() {
        let m = ModelSpec::llama_7b();
        // 512 KiB per token (paper §5: 4k blocks of 128 KiB per 1k tokens,
        // i.e. 4096 × 128 KiB / 1024 tokens = 512 KiB/token).
        assert_eq!(m.kv_bytes_per_token(), 512 * 1024);
        // The per-(layer, k-or-v) block of 16 tokens is 128 KiB.
        let per_layer_kv_block = 16 * m.hidden as u64 * m.dtype_bytes as u64;
        assert_eq!(per_layer_kv_block, 128 * 1024);
    }

    #[test]
    fn llama_30b_is_tensor_parallel() {
        let m = ModelSpec::llama_30b();
        assert_eq!(m.tensor_parallel, 4);
        assert!(m.kv_bytes_per_token() > ModelSpec::llama_7b().kv_bytes_per_token());
    }
}
