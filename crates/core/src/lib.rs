//! Llumnix core: the paper's contribution, hosted on the simulated substrate.
//!
//! * [`virtual_usage`](crate::virtual_usage) — Algorithm 1: virtual usages
//!   and instance freeness;
//! * [`Llumlet`] — the per-instance scheduler: load reports and migration
//!   victim selection;
//! * [`policy`] — the global scheduler's decisions: dispatch, migration
//!   pairing, auto-scaling, and the baseline schedulers;
//! * [`CentralScheduler`] — the §6.6 centralized-scheduler stall model;
//! * [`ServingSim`] — the end-to-end event-driven serving simulation every
//!   experiment runs on.

#![warn(missing_docs)]

mod central;
pub mod index;
mod llumlet;
pub mod policy;
mod serving;
pub mod store;
pub mod virtual_usage;

pub use central::{CentralScheduler, CentralSchedulerModel};
pub use index::{DispatchIndex, IndexPolicy};
pub use llumlet::Llumlet;
pub use llumnix_faults::{FaultKind, FaultPlan, FaultPlanConfig, PlannedFault};
pub use policy::{
    pair_migrations, AutoScaleConfig, AutoScaler, Dispatcher, LoadReport, MigrationThresholds,
    ScaleAction, SchedulerKind, VictimPolicy,
};
pub use serving::{run_serving, ServingConfig, ServingOutput, ServingSim, SimSnapshot};
pub use store::InstanceStore;
pub use virtual_usage::{
    engine_freeness, freeness, infaas_equivalent_freeness, infaas_memory_load, virtual_usage,
    HeadroomConfig, InstanceView, QueuingRule, RequestView,
};
