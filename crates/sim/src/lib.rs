//! Deterministic discrete-event simulation kernel for llumnix-rs.
//!
//! This crate provides the minimal machinery the serving simulator is built
//! on: microsecond-resolution [`SimTime`]/[`SimDuration`] types, a
//! FIFO-tie-broken [`EventQueue`], and the splittable seeded [`SimRng`].
//! Everything is deterministic: a simulation driven from a single seed
//! replays identically across runs and platforms.

#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
