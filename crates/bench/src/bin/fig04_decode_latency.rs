//! Figure 4: latencies of one decode step of LLaMA-7B and LLaMA-30B with
//! different sequence lengths and batch sizes.
//!
//! The paper plots decode-step time against the total number of tokens in
//! the batch, for several per-sequence lengths, and observes the step time
//! growing with batch size with an up-to-2.6× gap at the same sequence
//! length. This binary prints the same series from the calibrated cost
//! model (the reproduction's substitute for GPU measurement).

use llumnix_bench::{BenchOpts, Flag};
use llumnix_metrics::Table;
use llumnix_model::{CalibratedCostModel, CostModel, DecodeBatch};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    seq_len: u32,
    batch_size: u32,
    total_tokens: u64,
    step_ms: f64,
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Json]);
    let mut rows = Vec::new();
    for (name, model, max_tokens) in [
        ("LLaMA-7B", CalibratedCostModel::llama_7b_a10(), 13_616u64),
        ("LLaMA-30B", CalibratedCostModel::llama_30b_4xa10(), 14_400),
    ] {
        let mut table = Table::new(
            format!("Figure 4: decode step latency, {name}"),
            &["seq len", "batch", "total tokens", "step (ms)", "vs lone"],
        );
        for seq_len in [128u32, 256, 512, 1024, 2048] {
            let lone = model
                .decode_step(DecodeBatch {
                    num_seqs: 1,
                    total_tokens: seq_len as u64,
                })
                .as_millis_f64();
            for batch in [1u32, 2, 4, 8, 16, 32, 64] {
                let total = seq_len as u64 * batch as u64;
                if total > max_tokens {
                    continue;
                }
                let ms = model
                    .decode_step(DecodeBatch {
                        num_seqs: batch,
                        total_tokens: total,
                    })
                    .as_millis_f64();
                table.row(&[
                    format!("{seq_len}"),
                    format!("{batch}"),
                    format!("{total}"),
                    format!("{ms:.1}"),
                    format!("{:.2}x", ms / lone),
                ]);
                rows.push(Row {
                    model: name.to_string(),
                    seq_len,
                    batch_size: batch,
                    total_tokens: total,
                    step_ms: ms,
                });
            }
        }
        println!("{}", table.render());
        // The paper's headline: the same sequence length can decode up to
        // 2.6× slower inside a loaded batch.
        let worst = model
            .decode_step(DecodeBatch {
                num_seqs: 64,
                total_tokens: max_tokens,
            })
            .as_millis_f64();
        let best = model
            .decode_step(DecodeBatch {
                num_seqs: 1,
                total_tokens: 128,
            })
            .as_millis_f64();
        println!(
            "{name}: max interference spread {:.2}x (paper: up to 2.6x)\n",
            worst / best
        );
    }
    opts.maybe_write_json(&rows);
}
