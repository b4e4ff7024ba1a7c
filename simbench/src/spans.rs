//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The recorder keeps the summed host time of each span name, which is all
//! the per-layer metrics need. A disabled recorder runs the wrapped calls and
//! records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// The span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans::default()
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans {
            enabled: true,
            ..Spans::default()
        }
    }

    /// Runs `f`, adding its host time to the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        *self.totals.entry(name).or_default() += started.elapsed().as_secs_f64();
        out
    }

    /// Summed host seconds of the spans named `name`; 0 if none ran.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Forgets every recorded span.
    pub fn clear(&mut self) {
        self.totals.clear();
    }
}
