//! Figure 5: total free memory vs demands of head-of-line queuing requests
//! across four LLaMA-7B instances.
//!
//! Paper setup (§3): four instances, Medium-Medium lengths, Poisson
//! arrivals, a spreading (lowest-memory-load) dispatch policy. The paper
//! shows that for most of the time span the cluster's total free memory
//! could satisfy the head-of-line queuing requests on at least three
//! instances — the requests queue *only because of fragmentation*.
//!
//! The rate, 3.4 req/s, is this model's equivalent of the paper's 1.9 req/s
//! operating point.

use llumnix_bench::{build_trace, BenchOpts, Flag};
use llumnix_core::{run_serving, SchedulerKind, ServingConfig};
use llumnix_metrics::Table;
use llumnix_workload::Arrivals;
use serde::Serialize;

/// Arrival rate (req/s): the paper's 1.9 req/s operating point here.
const RATE: f64 = 3.4;

#[derive(Serialize)]
struct Out {
    rate: f64,
    samples: usize,
    fraction_with_queuing: f64,
    fraction_hol_satisfiable_when_queuing: f64,
    mean_free_blocks: f64,
    mean_fragmentation: f64,
}

fn main() {
    let opts = BenchOpts::from_args(&[Flag::Seed, Flag::Scale, Flag::Json]);
    let n = opts.scaled(2_000);
    let trace = build_trace("M-M", n, Arrivals::poisson(RATE), 0.0, opts.seed);
    // The paper's "spreading dispatching policy that dispatches new requests
    // to the instance with the lowest memory load" is INFaaS++'s dispatch.
    let config = ServingConfig::new(SchedulerKind::InfaasPlusPlus, 4);
    let fleet_blocks = config.spec.geometry.total_blocks * config.initial_instances;
    let out = run_serving(config, trace);

    // Count samples where at least one request queues, and among those, how
    // often the cluster-wide free memory could have satisfied its head-of-
    // line demand(s) — the fragmentation evidence.
    let queue_points = out.queued.points();
    let hol_points = out.hol_satisfiable.points();
    let mut with_queue = 0usize;
    let mut satisfiable = 0usize;
    for (q, h) in queue_points.iter().zip(hol_points) {
        if q.1 > 0.0 {
            with_queue += 1;
            if h.1 > 0.0 {
                satisfiable += 1;
            }
        }
    }
    let mut table = Table::new(
        format!("Figure 5: fragmentation on 4×LLaMA-7B, M-M @ {RATE} req/s"),
        &["metric", "value"],
    );
    let frac_queue = with_queue as f64 / queue_points.len().max(1) as f64;
    let frac_sat = satisfiable as f64 / with_queue.max(1) as f64;
    table.row(&[
        "samples with queuing requests".into(),
        format!("{:.0}% of time", frac_queue * 100.0),
    ]);
    table.row(&[
        "…where total free memory could admit the HOL request".into(),
        format!("{:.0}% (paper: most of the span)", frac_sat * 100.0),
    ]);
    table.row(&[
        "mean free blocks (cluster)".into(),
        format!("{:.0} / {}", out.free_blocks.mean(), fleet_blocks),
    ]);
    table.row(&[
        "mean fragmented-memory proportion".into(),
        format!("{:.1}%", out.fragmentation.mean() * 100.0),
    ]);
    println!("{}", table.render());

    // A short excerpt of the timeline, mirroring the figure's two series.
    let mut excerpt = Table::new(
        "Timeline excerpt (busiest 20 samples)",
        &["t (s)", "free blocks", "HOL demands satisfiable"],
    );
    let busiest = queue_points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.1 > 0.0)
        .take(20)
        .map(|(i, _)| i)
        .collect::<Vec<_>>();
    for i in busiest {
        excerpt.row(&[
            format!("{:.0}", queue_points[i].0.as_secs_f64()),
            format!("{:.0}", out.free_blocks.points()[i].1),
            format!("{:.0}", hol_points[i].1),
        ]);
    }
    println!("{}", excerpt.render());
    opts.maybe_write_json(&Out {
        rate: RATE,
        samples: queue_points.len(),
        fraction_with_queuing: frac_queue,
        fraction_hol_satisfiable_when_queuing: frac_sat,
        mean_free_blocks: out.free_blocks.mean(),
        mean_fragmentation: out.fragmentation.mean(),
    });
}
