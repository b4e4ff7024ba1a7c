//! # llumnix-rs
//!
//! A Rust reproduction of **Llumnix: Dynamic Scheduling for Large Language
//! Model Serving** (OSDI 2024). Llumnix reschedules LLM inference requests
//! across serving instances at runtime — like an OS context-switching
//! processes across cores — using a live migration mechanism for requests
//! and their KV-cache state, a distributed scheduling architecture
//! (global scheduler + per-instance llumlets), and a unified dynamic policy
//! built on *virtual usage* and *freeness*.
//!
//! Because no GPUs are available in this environment, the serving substrate
//! (a vLLM-like engine: continuous batching, paged KV blocks, preemption) is
//! a deterministic discrete-event simulation with step latencies calibrated
//! to the paper's measurements — the same substitution the paper itself uses
//! for its scalability study (§6.6). The Llumnix logic on top (Algorithm 1,
//! the Figure 7 migration handshake, dispatch/pairing/auto-scaling) is
//! implemented faithfully.
//!
//! ## Quick start
//!
//! ```
//! use llumnix::prelude::*;
//!
//! // A small trace: 50 requests at 2 req/s, Medium-Medium lengths.
//! let spec = trace_presets::by_name("M-M", 50, Arrivals::poisson(2.0)).unwrap();
//! let trace = spec.generate(&SimRng::new(42));
//!
//! // Serve it with Llumnix on 4 LLaMA-7B instances.
//! let config = ServingConfig::new(SchedulerKind::Llumnix, 4);
//! let out = run_serving(config, trace);
//! let report = LatencyReport::from_records(&out.records);
//! assert_eq!(report.e2e.count, 50);
//! println!("mean e2e latency: {:.2}s", report.e2e.mean);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | deterministic event kernel: time, queue, RNG |
//! | [`model`] | calibrated cost/memory/transfer models (LLaMA on A10) |
//! | [`engine`] | vLLM-like instance engine |
//! | [`migration`] | live-migration coordinator and baselines |
//! | [`faults`] | seeded fault plans: crashes, stragglers, link outages |
//! | [`core`] | virtual usage, llumlets, global scheduling, serving sim |
//! | [`workload`] | Table 1 length distributions, arrivals, traces |
//! | [`metrics`] | records, percentiles, timelines, reports |

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub use llumnix_core as core;
pub use llumnix_engine as engine;
pub use llumnix_faults as faults;
pub use llumnix_metrics as metrics;
pub use llumnix_migration as migration;
pub use llumnix_model as model;
pub use llumnix_sim as sim;
pub use llumnix_workload as workload;

/// The most common imports for building experiments.
pub mod prelude {
    pub use llumnix_core::{
        run_serving, AutoScaleConfig, FaultKind, FaultPlan, FaultPlanConfig, HeadroomConfig,
        MigrationThresholds, PlannedFault, SchedulerKind, ServingConfig, ServingOutput, ServingSim,
        SimSnapshot,
    };
    pub use llumnix_engine::{EngineConfig, InstanceId, Priority, PriorityPair, RequestId};
    pub use llumnix_metrics::{
        fmt_secs, LatencyReport, RecordPriority, Summary, Table, TimeSeries,
    };
    pub use llumnix_migration::{reschedule_downtime, MigrationConfig, ReschedulePolicy};
    pub use llumnix_model::{CalibratedCostModel, CostModel, InstanceSpec, ModelSpec};
    pub use llumnix_sim::{SimDuration, SimRng, SimTime};
    pub use llumnix_workload::{
        presets as trace_presets, table1, Arrivals, LengthDist, Trace, TraceSpec,
    };
}
