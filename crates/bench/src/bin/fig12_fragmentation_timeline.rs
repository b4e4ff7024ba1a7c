//! Figure 12: memory fragmentation over time.
//!
//! Paper setup (§6.3): the M-M trace at its case-study rate; the fragmented
//! memory at each moment is the portion of cluster free memory that could
//! satisfy the head-of-line blocked requests if it were not fragmented,
//! reported as a proportion of total cluster memory. The paper measures
//! INFaaS++ often above 10% with an average of 7.9%, against 0.7% for
//! Llumnix (92% reduction).

use llumnix_bench::{build_trace, BenchOpts, Flag};
use llumnix_core::{run_serving, SchedulerKind, ServingConfig};
use llumnix_metrics::{Table, TimeSeries};
use llumnix_sim::SimTime;
use llumnix_workload::Arrivals;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    rate: f64,
    llumnix_mean_fragmentation: f64,
    infaas_mean_fragmentation: f64,
    reduction: f64,
    infaas_fraction_above_10pct: f64,
    llumnix_fraction_above_10pct: f64,
}

/// Restricts a fragmentation series to the busy window (while arrivals are
/// still flowing: the first 90% of the span).
fn busy(ts: &TimeSeries, span: SimTime) -> TimeSeries {
    ts.window(
        SimTime::ZERO,
        SimTime::from_secs_f64(span.as_secs_f64() * 0.9),
    )
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json]);
    let rate = 11.0;
    let n = opts.scaled(10_000);
    let trace = build_trace("M-M", n, Arrivals::poisson(rate), 0.0, opts.seed);
    let span = trace.span();
    let infaas = run_serving(
        ServingConfig::new(SchedulerKind::InfaasPlusPlus, 16),
        trace.clone(),
    );
    let llumnix = run_serving(ServingConfig::new(SchedulerKind::Llumnix, 16), trace);
    let fi = busy(&infaas.fragmentation, span);
    let fl = busy(&llumnix.fragmentation, span);

    let mut table = Table::new(
        format!("Figure 12: fragmented-memory proportion, M-M @ {rate} req/s"),
        &[
            "scheduler",
            "mean",
            "mean when fragmented",
            "time >5%",
            "max",
        ],
    );
    for (name, ts) in [("infaas++", &fi), ("llumnix", &fl)] {
        let busy_samples: Vec<f64> = ts
            .points()
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v > 0.0)
            .collect();
        let conditional = if busy_samples.is_empty() {
            0.0
        } else {
            busy_samples.iter().sum::<f64>() / busy_samples.len() as f64
        };
        table.row(&[
            name.to_string(),
            format!("{:.2}%", ts.mean() * 100.0),
            format!("{:.2}%", conditional * 100.0),
            format!("{:.0}%", ts.fraction_above(0.05) * 100.0),
            format!("{:.1}%", ts.max() * 100.0),
        ]);
    }
    println!("{}", table.render());
    let reduction = 1.0 - fl.mean() / fi.mean().max(1e-12);
    println!(
        "fragmentation reduction: {:.0}% (paper: 92%, 0.7% vs 7.9%)",
        reduction * 100.0
    );

    // Timeline excerpt: ten busiest consecutive samples for each arm.
    let mut excerpt = Table::new("Timeline excerpt", &["t (s)", "infaas++", "llumnix"]);
    let pts_i = fi.points();
    let pts_l = fl.points();
    if let Some(peak) = pts_i
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite"))
        .map(|(i, _)| i)
    {
        let lo = peak.saturating_sub(5);
        let hi = (lo + 10).min(pts_i.len());
        for (i, point) in pts_i.iter().enumerate().take(hi).skip(lo) {
            excerpt.row(&[
                format!("{:.0}", point.0.as_secs_f64()),
                format!("{:.1}%", point.1 * 100.0),
                format!("{:.1}%", pts_l.get(i).map(|p| p.1).unwrap_or(0.0) * 100.0),
            ]);
        }
    }
    println!("{}", excerpt.render());
    opts.maybe_write_json(&Out {
        rate,
        llumnix_mean_fragmentation: fl.mean(),
        infaas_mean_fragmentation: fi.mean(),
        reduction,
        infaas_fraction_above_10pct: fi.fraction_above(0.10),
        llumnix_fraction_above_10pct: fl.fraction_above(0.10),
    });
}
