//! Property tests for the simulation kernel.

use llumnix_sim::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn queue_pops_in_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    // FIFO within the same instant: indices ascend only if
                    // they were inserted at the same time.
                    if times[prev] == times[idx] {
                        prop_assert!(idx > prev);
                    }
                }
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = t;
        }
    }

    /// Time arithmetic never wraps: adding any duration to any time is
    /// monotone, and `since` is the inverse of `+` when it does not clamp.
    #[test]
    fn time_arithmetic_is_monotone(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        let later = t + d;
        prop_assert!(later >= t);
        prop_assert_eq!(later.since(t), d);
        prop_assert_eq!(later - t, d);
    }

    /// Split RNG streams are stable: the same label yields the same stream
    /// regardless of other draws, and different labels differ.
    #[test]
    fn rng_split_stability(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = SimRng::new(seed);
        let mut a = root.split(&label);
        let mut other = root.split("noise");
        let _ = other.uniform();
        let mut b = SimRng::new(seed).split(&label);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Uniform samples stay in [0, 1).
    #[test]
    fn uniform_in_range(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Routing any subset of pushes through the coalesced calendar tier never
    /// changes the pop sequence: a mixed queue and a plain heap-only queue fed
    /// the same (time, payload) stream, with interleaved pops, stay in
    /// lockstep. Times are drawn from a tiny range so buckets really coalesce.
    #[test]
    fn coalesced_tier_is_pop_order_transparent(
        ops in prop::collection::vec((0u64..16, any::<bool>(), any::<bool>()), 1..400)
    ) {
        let mut mixed = EventQueue::new();
        let mut plain = EventQueue::new();
        for (i, &(t, coalesce, pop_after)) in ops.iter().enumerate() {
            let at = SimTime::from_micros(t);
            if coalesce {
                mixed.push_coalesced(at, i);
            } else {
                mixed.push(at, i);
            }
            plain.push(at, i);
            prop_assert_eq!(mixed.len(), plain.len());
            prop_assert_eq!(mixed.peek_time(), plain.peek_time());
            if pop_after {
                prop_assert_eq!(mixed.pop(), plain.pop());
            }
        }
        loop {
            let (a, b) = (mixed.pop(), plain.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

}
