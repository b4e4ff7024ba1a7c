//! Centralized-scheduler stall model for the §6.6 scalability baseline.
//!
//! The paper's baseline extends the vLLM scheduler to manage every request
//! across all instances: before each iteration an instance synchronizes
//! request statuses and scheduling decisions with the central scheduler,
//! which serializes that work. We model the scheduler as a single FIFO
//! server whose per-decision service time grows with the number of requests
//! it must synchronize; the stall an instance observes is the queueing delay
//! plus its own service time. Llumnix's distributed llumlets do this work
//! locally and report only instance-level metrics, so their stall is zero.
//!
//! The per-decision service time is *sub-linear* in the synchronized request
//! count: status sync is batched into one round trip, so the marginal cost
//! per request falls as the batch grows (amortized headers, vectorized
//! bookkeeping). The earlier linear model was calibrated at the paper's
//! 64-instance operating point (≈ 20 tracked requests per decision) and
//! extrapolated linearly to the 128–1024-instance sweeps, overcharging big
//! batches; the saturating curve below keeps the calibrated 64-instance
//! behaviour while decisions at 4× the tracked count cost well under 4× as
//! much (DESIGN.md §11 documents the fit against the fig16 arms).

use llumnix_sim::{SimDuration, SimTime};

/// Fixed cost per scheduling round trip (RPC + bookkeeping).
const BASE: SimDuration = SimDuration::from_micros(150);

/// Marginal cost per synchronized request at small batch sizes.
const PER_REQUEST: SimDuration = SimDuration::from_micros(28);

/// Amortization scale `s` of the saturating sync curve: a decision
/// synchronizing `t` requests pays for `⌊t·s/(s+t)⌋` of them (integer
/// arithmetic, so the curve is platform-exact). Marginal cost halves at
/// `t = s` and the sync term saturates at `PER_REQUEST · s`.
const AMORTIZATION_SCALE: u64 = 256;

/// Service time of one decision synchronizing `tracked_requests`.
///
/// Calibrated so the whole *measured* 64-instance regime reproduces the old
/// validated linear model: at the ≈ 20-tracked-requests anchor the old model
/// charged 150 + 20 × 25 = 650 µs and this one charges
/// 150 + ⌊20·256/276⌋ × 28 = 654 µs (+0.6 %); even at the regime's top
/// (t = 64) the two stay within 10 %. Past it the curves split: at 256
/// tracked requests the linear model extrapolates to 6.55 ms while the
/// amortized curve charges 3.73 ms (DESIGN.md §11 documents the fit).
fn service_time(tracked_requests: usize) -> SimDuration {
    let t = tracked_requests as u64;
    BASE + PER_REQUEST * (t * AMORTIZATION_SCALE / (AMORTIZATION_SCALE + t))
}

/// The single-server FIFO queue the centralized scheduler forms; the
/// default is idle.
#[derive(Debug, Clone, Default)]
pub struct CentralScheduler {
    free_at: SimTime,
}

impl CentralScheduler {
    /// An instance asks for its pre-iteration scheduling decision at `now`,
    /// synchronizing `tracked_requests` request statuses. Returns the stall
    /// the instance observes before its step may start.
    pub fn request_decision(&mut self, now: SimTime, tracked_requests: usize) -> SimDuration {
        let start = self.free_at.max(now);
        self.free_at = start + service_time(tracked_requests);
        self.free_at.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_scheduler_costs_service_only() {
        let mut c = CentralScheduler::default();
        let stall = c.request_decision(SimTime::from_secs(1), 20);
        // 150 µs + ⌊20·256/276⌋ × 28 µs = 150 + 18 × 28 = 654 µs — within
        // 1 % of the old linear model's 650 µs at the calibration anchor.
        assert_eq!(stall, SimDuration::from_micros(654));
    }

    #[test]
    fn contention_builds_queueing_delay() {
        let mut c = CentralScheduler::default();
        let now = SimTime::from_secs(1);
        // 64 instances all asking at the same instant: the last one queues
        // behind 63 service times.
        let stalls: Vec<SimDuration> = (0..64).map(|_| c.request_decision(now, 20)).collect();
        assert!(stalls.windows(2).all(|w| w[0] < w[1]));
        let last = stalls.last().expect("non-empty");
        assert_eq!(*last, SimDuration::from_micros(654 * 64));
        assert!(
            last.as_millis_f64() > 40.0,
            "64-way contention should stall tens of ms, got {last}"
        );
    }

    #[test]
    fn drains_when_spread_out() {
        let mut c = CentralScheduler::default();
        // Requests 10 ms apart never queue: stall = service(10) =
        // 150 + ⌊10·256/266⌋ × 28 = 150 + 9 × 28 = 402 µs.
        for i in 0..10 {
            let stall = c.request_decision(SimTime::from_millis(10 * i), 10);
            assert_eq!(stall, SimDuration::from_micros(402));
        }
    }

    #[test]
    fn sync_cost_is_sublinear_and_saturates() {
        // Doubling the batch never doubles the sync term.
        for t in [16usize, 32, 64, 128, 256, 512] {
            let sync = |n: usize| service_time(n) - BASE;
            assert!(
                sync(2 * t) < sync(t) * 2,
                "sync cost must be sub-linear at t={t}"
            );
        }
        // Saturation bound: the sync term never exceeds PER_REQUEST · s.
        let cap = BASE + PER_REQUEST * AMORTIZATION_SCALE;
        assert!(service_time(1_000_000) < cap);
        // Monotone in t.
        assert!(service_time(10) < service_time(11));
    }
}
