//! Multi-phase (diurnal) workloads for auto-scaling experiments.
//!
//! Production request rates swing over the day; the paper's auto-scaling
//! experiments (§6.5) use stationary Gamma burstiness, but evaluating the
//! scaler against an explicit ramp (quiet → peak → quiet) exposes the
//! saturate/drain behaviours of Figure 1(d) directly. A [`PhasedSpec`] is a
//! sequence of constant-rate phases stitched into one trace.

use llumnix_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::lengths::LengthSampler;
use crate::sampling::exponential;
use crate::trace::{LengthDist, Trace, TraceRequest};

/// One constant-rate phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Poisson request rate during the phase, req/s.
    pub rate: f64,
    /// Phase duration in seconds.
    pub duration_secs: f64,
}

/// A trace specification made of consecutive constant-rate phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedSpec {
    /// Trace name.
    pub name: String,
    /// The phases, in order.
    pub phases: Vec<Phase>,
    /// Prompt-length distribution.
    pub input: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Fraction of requests marked high priority.
    pub high_priority_fraction: f64,
    /// Cap on input + output tokens.
    pub max_total_tokens: u32,
}

impl PhasedSpec {
    /// Creates a phased spec with no priorities and the LLaMA-7B cap.
    pub fn new(
        name: impl Into<String>,
        phases: Vec<Phase>,
        input: LengthDist,
        output: LengthDist,
    ) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.rate > 0.0 && p.duration_secs > 0.0),
            "phases need positive rate and duration"
        );
        PhasedSpec {
            name: name.into(),
            phases,
            input,
            output,
            high_priority_fraction: 0.0,
            max_total_tokens: 13_616,
        }
    }

    /// Sets the high-priority fraction.
    pub fn with_high_priority_fraction(mut self, fraction: f64) -> Self {
        self.high_priority_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Expected number of requests.
    pub fn expected_requests(&self) -> f64 {
        self.phases.iter().map(|p| p.rate * p.duration_secs).sum()
    }

    /// Generates the trace deterministically from `rng`.
    pub fn generate(&self, rng: &SimRng) -> Trace {
        let mut arrivals = rng.split("phased/arrivals");
        let mut input_rng = rng.split("phased/input");
        let mut output_rng = rng.split("phased/output");
        let mut priority_rng = rng.split("phased/priority");
        let mut requests = Vec::with_capacity(self.expected_requests() as usize + 16);
        let mut now = 0.0f64;
        let mut phase_end = 0.0f64;
        let mut id = 0u64;
        for phase in &self.phases {
            phase_end += phase.duration_secs;
            loop {
                let gap = exponential(&mut arrivals, phase.rate);
                if now + gap >= phase_end {
                    // The leftover gap does not carry across phases; the
                    // next phase restarts its exponential clock at the
                    // boundary (a standard piecewise-Poisson construction).
                    now = phase_end;
                    break;
                }
                now += gap;
                let mut input_len = self.input.sample(&mut input_rng).max(1);
                let mut output_len = self.output.sample(&mut output_rng).max(1);
                if input_len >= self.max_total_tokens {
                    input_len = self.max_total_tokens - 1;
                }
                if input_len + output_len > self.max_total_tokens {
                    output_len = self.max_total_tokens - input_len;
                }
                requests.push(TraceRequest {
                    id,
                    arrival: SimTime::from_secs_f64(now),
                    input_len,
                    output_len,
                    high_priority: priority_rng.chance(self.high_priority_fraction),
                });
                id += 1;
            }
        }
        Trace {
            name: self.name.clone(),
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lengths::{table1, FixedLength};

    fn spec() -> PhasedSpec {
        PhasedSpec::new(
            "day",
            vec![
                Phase {
                    rate: 1.0,
                    duration_secs: 100.0,
                },
                Phase {
                    rate: 10.0,
                    duration_secs: 200.0,
                },
                Phase {
                    rate: 1.0,
                    duration_secs: 100.0,
                },
            ],
            LengthDist::Anchored(table1::short()),
            LengthDist::Anchored(table1::short()),
        )
    }

    #[test]
    fn phases_shape_the_rate() {
        let trace = spec().generate(&SimRng::new(1));
        let count_in = |lo: f64, hi: f64| {
            trace
                .requests
                .iter()
                .filter(|r| {
                    let t = r.arrival.as_secs_f64();
                    t >= lo && t < hi
                })
                .count() as f64
        };
        let quiet = count_in(0.0, 100.0) / 100.0;
        let peak = count_in(100.0, 300.0) / 200.0;
        let tail = count_in(300.0, 400.0) / 100.0;
        assert!((0.5..2.0).contains(&quiet), "quiet rate {quiet}");
        assert!((8.0..12.0).contains(&peak), "peak rate {peak}");
        assert!((0.5..2.0).contains(&tail), "tail rate {tail}");
        // Total close to the expectation.
        let expected = spec().expected_requests();
        assert!((trace.len() as f64 - expected).abs() < expected * 0.15);
    }

    #[test]
    fn arrivals_sorted_and_bounded() {
        let trace = spec().generate(&SimRng::new(2));
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        let total_secs: f64 = spec().phases.iter().map(|p| p.duration_secs).sum();
        assert!(trace.span().as_secs_f64() <= total_secs);
        assert!(trace
            .requests
            .iter()
            .enumerate()
            .all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn deterministic() {
        let a = spec().generate(&SimRng::new(3));
        let b = spec().generate(&SimRng::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn respects_cap_and_priorities() {
        let s = PhasedSpec::new(
            "capped",
            vec![Phase {
                rate: 20.0,
                duration_secs: 50.0,
            }],
            LengthDist::Fixed(FixedLength(900)),
            LengthDist::Fixed(FixedLength(900)),
        )
        .with_high_priority_fraction(0.5);
        let mut s = s;
        s.max_total_tokens = 1_000;
        let trace = s.generate(&SimRng::new(4));
        for r in &trace.requests {
            assert!(r.total_len() <= 1_000);
        }
        let high = trace.requests.iter().filter(|r| r.high_priority).count();
        let frac = high as f64 / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "high fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn rejects_zero_rate_phase() {
        let _ = PhasedSpec::new(
            "bad",
            vec![Phase {
                rate: 0.0,
                duration_secs: 10.0,
            }],
            LengthDist::Fixed(FixedLength(10)),
            LengthDist::Fixed(FixedLength(10)),
        );
    }
}
