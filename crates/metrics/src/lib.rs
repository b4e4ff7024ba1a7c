//! Measurement, aggregation, and reporting for llumnix-rs experiments.
//!
//! * [`RequestRecord`] — per-request timestamps, preemption loss, migration
//!   downtime, and the derived latencies the paper reports (§6.1);
//! * [`Summary`] / [`percentile`] — mean and P50/P80/P95/P99 statistics;
//! * [`LatencyReport`] — one experiment arm's full latency table;
//! * [`TimeSeries`] — cluster metrics over time (fragmentation, instance
//!   count) for Figures 5, 12, 14 and 15;
//! * [`FaultStats`] — failure/recovery counters for fault-injection runs;
//! * [`Table`] and JSON helpers for the benchmark binaries' output.

#![warn(missing_docs)]

mod aggregate;
mod faults;
mod percentile;
mod plot;
mod report;
mod request;
mod streaming;
mod timeline;

pub use aggregate::LatencyReport;
pub use faults::FaultStats;
pub use percentile::{percentile, Summary};
pub use plot::{sparkline, sparkline_annotated, to_csv};
pub use report::{fmt_secs, to_json, Table};
pub use request::{RecordPriority, RequestRecord};
pub use streaming::SummaryAccumulator;
pub use timeline::TimeSeries;
