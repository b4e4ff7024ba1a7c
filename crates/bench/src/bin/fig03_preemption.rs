//! Figure 3: request preemptions in LLaMA-7B serving.
//!
//! Paper setup (§3): one LLaMA-7B instance on an A10, a 2,000-request trace
//! from a Poisson process, input/output lengths power-law with mean 256
//! (the Medium distribution), at a rate giving a moderate (~62%) average
//! memory load. The paper observes ≈8% of requests preempted, P99 per-token
//! decode latency ≈3.8× the P50, and preemption loss accounting for ~70% of
//! the P99 request's latency.
//!
//! The rate, 0.55 req/s, is the rate at which this reproduction's cost
//! model (faster than the paper's A10 testbed, so the paper's 0.42 req/s
//! leaves it lighter loaded) reads the paper's 62% memory load at the
//! default seed. There 5.0% of requests are preempted and the P99/P50
//! decode ratio is 7.9×, against the paper's 8% and 3.8×: this
//! reproduction's tail is sharper and rarer (EXPERIMENTS.md).

use llumnix_bench::{build_trace, BenchOpts, Flag};
use llumnix_core::{run_serving, SchedulerKind, ServingConfig};
use llumnix_metrics::{percentile, Table};
use llumnix_workload::Arrivals;
use serde::Serialize;

/// Arrival rate (req/s) that gives the paper's 62% memory load here.
const RATE: f64 = 0.55;

#[derive(Serialize)]
struct Row {
    percentile: String,
    decode_latency_s: f64,
    preemption_loss_s: f64,
    loss_fraction: f64,
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json]);
    let n = opts.scaled(2_000);
    let trace = build_trace("M-M", n, Arrivals::poisson(RATE), 0.0, opts.seed);
    // A single instance and no migration: this is plain vLLM behaviour.
    let config = ServingConfig::new(SchedulerKind::RoundRobin, 1);
    let total_blocks = f64::from(config.spec.geometry.total_blocks);
    let out = run_serving(config, trace);

    let mem_load = 1.0 - out.free_blocks.mean() / total_blocks;
    let preempted = out.records.iter().filter(|r| r.preemptions > 0).count();
    let frac = preempted as f64 / out.records.len() as f64;

    // Sort requests by per-token decode latency and inspect the percentiles,
    // attributing each request's preemption loss (as in Figure 3).
    let mut by_decode: Vec<&llumnix_metrics::RequestRecord> =
        out.records.iter().filter(|r| r.output_len > 1).collect();
    by_decode.sort_by(|a, b| {
        a.decode_latency_per_token()
            .partial_cmp(&b.decode_latency_per_token())
            .expect("finite")
    });
    let decode_sorted: Vec<f64> = by_decode
        .iter()
        .map(|r| r.decode_latency_per_token())
        .collect();

    let mut table = Table::new(
        format!(
            "Figure 3: preemptions on 1×LLaMA-7B (rate {RATE} req/s, mem load {:.0}%, {:.1}% requests preempted)",
            mem_load * 100.0,
            frac * 100.0
        ),
        &["pct", "decode/token", "preempt loss", "loss fraction of decode"],
    );
    let mut rows = Vec::new();
    for (label, q) in [("P50", 0.50), ("P80", 0.80), ("P95", 0.95), ("P99", 0.99)] {
        let decode = percentile(&decode_sorted, q);
        // Requests in a ±1% window around this percentile of decode latency;
        // their average preemption loss shows what the tail is made of.
        let lo = (((by_decode.len() - 1) as f64 * (q - 0.01)).max(0.0)) as usize;
        let hi = (((by_decode.len() - 1) as f64 * (q + 0.01)) as usize).min(by_decode.len() - 1);
        let window = &by_decode[lo..=hi];
        let loss =
            window.iter().map(|r| r.preemption_loss_secs()).sum::<f64>() / window.len() as f64;
        let decode_span = window
            .iter()
            .map(|r| r.finish.since(r.first_token).as_secs_f64())
            .sum::<f64>()
            / window.len() as f64;
        let loss_frac = loss / decode_span.max(1e-9);
        table.row(&[
            label.to_string(),
            format!("{:.3}s", decode),
            format!("{:.2}s", loss),
            format!("{:.0}%", loss_frac * 100.0),
        ]);
        rows.push(Row {
            percentile: label.to_string(),
            decode_latency_s: decode,
            preemption_loss_s: loss,
            loss_fraction: loss_frac,
        });
    }
    println!("{}", table.render());
    let p50 = percentile(&decode_sorted, 0.50);
    let p99 = percentile(&decode_sorted, 0.99);
    println!(
        "P99/P50 per-token decode latency: {:.1}x (paper: 3.8x)",
        p99 / p50
    );
    opts.maybe_write_json(&rows);
}
