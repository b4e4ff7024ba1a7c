//! Table 1: real and generated sequence-length distributions.
//!
//! Regenerates the paper's Table 1 by sampling each fitted distribution and
//! reporting mean / P50 / P80 / P95 / P99, next to the published anchors.

use llumnix_bench::{parallel_map, BenchOpts, Flag};
use llumnix_metrics::{Summary, Table};
use llumnix_sim::SimRng;
use llumnix_workload::{table1, AnchoredDistribution, LengthSampler};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    distribution: String,
    mean: f64,
    p50: f64,
    p80: f64,
    p95: f64,
    p99: f64,
    paper_mean: f64,
}

fn sample_summary(d: &AnchoredDistribution, rng: &SimRng) -> Summary {
    let mut r = rng.split(&d.name);
    let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut r) as f64).collect();
    Summary::from_samples(samples)
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Json, Flag::Threads]);
    let rng = SimRng::new(opts.seed);
    let dists: Vec<(&str, AnchoredDistribution, [f64; 5])> = vec![
        (
            "ShareGPT In",
            table1::sharegpt_input(),
            [306.0, 74.0, 348.0, 1484.0, 3388.0],
        ),
        (
            "ShareGPT Out",
            table1::sharegpt_output(),
            [500.0, 487.0, 781.0, 988.0, 1234.0],
        ),
        (
            "BurstGPT In",
            table1::burstgpt_input(),
            [830.0, 582.0, 1427.0, 2345.0, 3549.0],
        ),
        (
            "BurstGPT Out",
            table1::burstgpt_output(),
            [271.0, 243.0, 434.0, 669.0, 964.0],
        ),
        (
            "Short (S)",
            table1::short(),
            [128.0, 38.0, 113.0, 413.0, 1464.0],
        ),
        (
            "Medium (M)",
            table1::medium(),
            [256.0, 32.0, 173.0, 1288.0, 4208.0],
        ),
        (
            "Long (L)",
            table1::long(),
            [512.0, 55.0, 582.0, 3113.0, 5166.0],
        ),
    ];
    let mut table = Table::new(
        "Table 1: sequence-length distributions (sampled / paper)",
        &["distribution", "mean", "P50", "P80", "P95", "P99"],
    );
    // Each distribution's sampler derives from `rng.split(&d.name)`, so the
    // seven 200k-sample jobs are independent and fan out across cores.
    let summaries: Vec<Summary> = parallel_map(dists.iter().collect(), |(_, dist, _)| {
        sample_summary(dist, &rng)
    });
    let mut rows = Vec::new();
    for ((name, _, paper), s) in dists.iter().zip(&summaries) {
        table.row(&[
            name.to_string(),
            format!("{:.0}/{:.0}", s.mean, paper[0]),
            format!("{:.0}/{:.0}", s.p50, paper[1]),
            format!("{:.0}/{:.0}", s.p80, paper[2]),
            format!("{:.0}/{:.0}", s.p95, paper[3]),
            format!("{:.0}/{:.0}", s.p99, paper[4]),
        ]);
        rows.push(Row {
            distribution: name.to_string(),
            mean: s.mean,
            p50: s.p50,
            p80: s.p80,
            p95: s.p95,
            p99: s.p99,
            paper_mean: paper[0],
        });
    }
    println!("{}", table.render());
    opts.maybe_write_json(&rows);
}
