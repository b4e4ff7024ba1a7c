//! Trace construction: arrivals × length distributions × priorities.
//!
//! A trace is the full input to one serving experiment: a time-ordered list
//! of requests with arrival instants, prompt/output lengths (the output
//! length is ground truth the schedulers must not peek at), and a
//! high-priority flag (the paper's §6.4 marks a random 10% of requests).

use llumnix_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::arrivals::{ArrivalProcess, Arrivals};
use crate::lengths::{table1, AnchoredDistribution, FixedLength, LengthSampler};

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Unique id, dense from 0 in arrival order.
    pub id: u64,
    /// Arrival time at the cluster frontend.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Output length in tokens — *ground truth*; schedulers must not read it.
    pub output_len: u32,
    /// Whether the request carries high scheduling + execution priority.
    pub high_priority: bool,
}

impl TraceRequest {
    /// Total sequence length at completion.
    pub fn total_len(&self) -> u32 {
        self.input_len + self.output_len
    }
}

/// A length distribution usable in a trace spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LengthDist {
    /// Percentile-anchored distribution (Table 1 rows).
    Anchored(AnchoredDistribution),
    /// Constant length.
    Fixed(FixedLength),
}

impl LengthSampler for LengthDist {
    fn sample(&self, rng: &mut SimRng) -> u32 {
        match self {
            LengthDist::Anchored(d) => d.sample(rng),
            LengthDist::Fixed(d) => d.sample(rng),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            LengthDist::Anchored(d) => d.mean(),
            LengthDist::Fixed(d) => d.mean(),
        }
    }

    fn max_len(&self) -> u32 {
        match self {
            LengthDist::Anchored(d) => d.max_len(),
            LengthDist::Fixed(d) => d.max_len(),
        }
    }
}

/// Specification of a trace to generate.
///
/// # Examples
///
/// ```
/// use llumnix_sim::SimRng;
/// use llumnix_workload::{presets, Arrivals};
///
/// let spec = presets::by_name("M-M", 100, Arrivals::poisson(2.0)).unwrap();
/// let trace = spec.generate(&SimRng::new(7));
/// assert_eq!(trace.len(), 100);
/// assert!(trace.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Trace name, e.g. `"M-M"` or `"ShareGPT"`.
    pub name: String,
    /// Number of requests (the paper uses 10,000 per trace).
    pub num_requests: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Prompt-length distribution.
    pub input: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Fraction of requests marked high priority (paper §6.4: 0.10).
    pub high_priority_fraction: f64,
    /// Cap on input + output so a request always fits one instance
    /// (13,616 tokens for LLaMA-7B on an A10).
    pub max_total_tokens: u32,
}

impl TraceSpec {
    /// A spec with no high-priority requests and the A10 LLaMA-7B cap.
    pub fn new(
        name: impl Into<String>,
        num_requests: usize,
        arrivals: Arrivals,
        input: LengthDist,
        output: LengthDist,
    ) -> Self {
        TraceSpec {
            name: name.into(),
            num_requests,
            arrivals,
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

    /// Sets the total-length cap.
    pub fn with_max_total_tokens(mut self, cap: u32) -> Self {
        assert!(cap >= 2, "cap must allow at least 1 input + 1 output token");
        self.max_total_tokens = cap;
        self
    }

    /// Generates the trace deterministically from `rng`.
    pub fn generate(&self, rng: &SimRng) -> Trace {
        let mut arrival_rng = rng.split("trace/arrivals");
        let mut input_rng = rng.split("trace/input");
        let mut output_rng = rng.split("trace/output");
        let mut priority_rng = rng.split("trace/priority");
        let mut now = SimTime::ZERO;
        let mut requests = Vec::with_capacity(self.num_requests);
        for id in 0..self.num_requests as u64 {
            now += self.arrivals.next_gap(&mut arrival_rng);
            let mut input_len = self.input.sample(&mut input_rng).max(1);
            let mut output_len = self.output.sample(&mut output_rng).max(1);
            // Clamp so the request fits within one instance's KV capacity.
            if input_len >= self.max_total_tokens {
                input_len = self.max_total_tokens - 1;
            }
            if input_len + output_len > self.max_total_tokens {
                output_len = self.max_total_tokens - input_len;
            }
            requests.push(TraceRequest {
                id,
                arrival: now,
                input_len,
                output_len,
                high_priority: priority_rng.chance(self.high_priority_fraction),
            });
        }
        Trace {
            name: self.name.clone(),
            requests,
        }
    }
}

/// A generated trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Trace name.
    pub name: String,
    /// Requests in arrival order.
    pub requests: Vec<TraceRequest>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The arrival of the last request (ZERO for an empty trace).
    pub fn span(&self) -> SimTime {
        self.requests.last().map_or(SimTime::ZERO, |r| r.arrival)
    }

    /// Mean input length over the trace.
    pub fn mean_input_len(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.input_len as f64)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Mean output length over the trace.
    pub fn mean_output_len(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.output_len as f64)
            .sum::<f64>()
            / self.requests.len() as f64
    }
}

/// The paper's named workload combinations (§6.1): the first letter picks
/// the input distribution, the second the output distribution.
pub mod presets {
    use super::*;

    fn combo(
        name: &str,
        input: AnchoredDistribution,
        output: AnchoredDistribution,
    ) -> (LengthDist, LengthDist, String) {
        (
            LengthDist::Anchored(input),
            LengthDist::Anchored(output),
            name.to_string(),
        )
    }

    /// Builds one of the paper's trace specs by name:
    /// `"S-S"`, `"M-M"`, `"L-L"`, `"S-L"`, `"L-S"`, `"ShareGPT"`, `"BurstGPT"`.
    ///
    /// Returns `None` for unknown names.
    pub fn by_name(name: &str, num_requests: usize, arrivals: Arrivals) -> Option<TraceSpec> {
        let (input, output, label) = match name {
            "S-S" => combo("S-S", table1::short(), table1::short()),
            "M-M" => combo("M-M", table1::medium(), table1::medium()),
            "L-L" => combo("L-L", table1::long(), table1::long()),
            "S-L" => combo("S-L", table1::short(), table1::long()),
            "L-S" => combo("L-S", table1::long(), table1::short()),
            "ShareGPT" => combo(
                "ShareGPT",
                table1::sharegpt_input(),
                table1::sharegpt_output(),
            ),
            "BurstGPT" => combo(
                "BurstGPT",
                table1::burstgpt_input(),
                table1::burstgpt_output(),
            ),
            _ => return None,
        };
        Some(TraceSpec::new(label, num_requests, arrivals, input, output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium_spec(n: usize) -> TraceSpec {
        presets::by_name("M-M", n, Arrivals::poisson(2.0)).expect("known")
    }

    #[test]
    fn generates_requested_count_in_order() {
        let trace = medium_spec(500).generate(&SimRng::new(1));
        assert_eq!(trace.len(), 500);
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace
            .requests
            .iter()
            .enumerate()
            .all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = medium_spec(200).generate(&SimRng::new(7));
        let b = medium_spec(200).generate(&SimRng::new(7));
        assert_eq!(a, b);
        let c = medium_spec(200).generate(&SimRng::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_respect_cap() {
        let spec = medium_spec(2_000).with_max_total_tokens(4_096);
        let trace = spec.generate(&SimRng::new(3));
        for r in &trace.requests {
            assert!(r.input_len >= 1 && r.output_len >= 1);
            assert!(r.total_len() <= 4_096, "request {} too long", r.id);
        }
    }

    #[test]
    fn high_priority_fraction_approximate() {
        let spec = medium_spec(10_000).with_high_priority_fraction(0.10);
        let trace = spec.generate(&SimRng::new(4));
        let high = trace.requests.iter().filter(|r| r.high_priority).count();
        let frac = high as f64 / trace.len() as f64;
        assert!((frac - 0.10).abs() < 0.02, "high fraction {frac}");
    }

    #[test]
    fn arrival_rate_matches_process() {
        let spec = medium_spec(5_000);
        let trace = spec.generate(&SimRng::new(5));
        let rate = (trace.len() - 1) as f64 / trace.span().as_secs_f64();
        assert!((rate - 2.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn all_figure11_presets_exist() {
        // Figure 11's traces, in the paper's row order.
        for name in ["ShareGPT", "BurstGPT", "S-S", "M-M", "L-L", "S-L", "L-S"] {
            let spec = presets::by_name(name, 10, Arrivals::poisson(1.0));
            assert!(spec.is_some(), "missing preset {name}");
        }
        assert!(presets::by_name("X-X", 10, Arrivals::poisson(1.0)).is_none());
    }

    #[test]
    fn mean_lengths_track_distributions() {
        let trace = medium_spec(20_000).generate(&SimRng::new(11));
        // Medium mean is 256; the cap trims a little tail mass.
        assert!(
            (200.0..300.0).contains(&trace.mean_input_len()),
            "mean in {}",
            trace.mean_input_len()
        );
        assert!(
            (200.0..300.0).contains(&trace.mean_output_len()),
            "mean out {}",
            trace.mean_output_len()
        );
    }

    #[test]
    fn empty_trace_helpers() {
        let t = Trace {
            name: "empty".into(),
            requests: vec![],
        };
        assert!(t.is_empty());
        assert_eq!(t.span(), SimTime::ZERO);
        assert_eq!(t.mean_input_len(), 0.0);
    }
}
