//! Workload generation for llumnix-rs experiments.
//!
//! Reproduces the paper's §6.1 trace methodology: sequence-length
//! distributions anchored to Table 1 (the real ShareGPT/BurstGPT datasets and
//! the generated Short/Medium/Long power-law mixes), Poisson and Gamma(CV)
//! arrival processes, and a deterministic trace builder with optional
//! high-priority tagging (§6.4).

#![warn(missing_docs)]

mod arrivals;
mod diurnal;
mod lengths;
mod sampling;
mod trace;

pub use arrivals::{ArrivalProcess, Arrivals, GammaArrivals, Poisson};
pub use diurnal::{Phase, PhasedSpec};
pub use lengths::{table1, Anchor, AnchoredDistribution, FixedLength, LengthSampler};
pub use sampling::{exponential, gamma, standard_normal};
pub use trace::{presets, LengthDist, Trace, TraceRequest, TraceSpec};
