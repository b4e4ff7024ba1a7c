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

    /// Scaling by exactly 1.0 returns the duration unchanged up to 2^50 µs
    /// (about 35 years), so an engine may skip the float round trip when no
    /// migration overhead applies. Each case checks a run of 1 000
    /// consecutive durations; half the runs start below one second.
    #[test]
    fn mul_by_one_is_the_identity(
        start in prop_oneof![0u64..1_000_000, 0u64..(1 << 50) + 1],
    ) {
        for micros in start..(start + 1_000).min((1 << 50) + 1) {
            let d = SimDuration::from_micros(micros);
            prop_assert_eq!(d.mul_f64(1.0), d);
        }
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

    /// The queue against a sort-based reference: a list kept stably sorted
    /// by time, where `push` appends and `push_first` prepends before
    /// sorting, and `pop` takes the front. As its contract demands, at most
    /// one `push_first` entry is pending at a time; while one is, the
    /// operation that would add another does nothing. Every pop agrees, and
    /// so does a clone taken mid-stream: drained as is, or after a
    /// `push_first` of its own. The length agrees after every operation.
    /// Times come from a tiny range so that same-instant ties dominate.
    ///
    /// `peek_time` drops the root a `pop` leaves in place, so it is checked
    /// after only some operations, and one operation pops and pushes with
    /// nothing in between: a push often fills the root the pop vacated, and
    /// clones and `push_first` run while one is in place.
    #[test]
    fn queue_matches_a_stable_sort_reference(
        ops in prop::collection::vec((0u8..10, 0u64..4), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, usize)> = Vec::new();
        // The payload of the pending `push_first` entry, if any.
        let mut first: Option<usize> = None;
        let add = |reference: &mut Vec<(SimTime, usize)>, at_front: bool, entry| {
            reference.insert(if at_front { 0 } else { reference.len() }, entry);
            reference.sort_by_key(|&(at, _)| at);
        };
        let pop = |reference: &mut Vec<(SimTime, usize)>, first: &mut Option<usize>| {
            let popped = (!reference.is_empty()).then(|| reference.remove(0));
            if popped.is_some_and(|(_, e)| Some(e) == *first) {
                *first = None;
            }
            popped
        };
        for (i, &(op, t)) in ops.iter().enumerate() {
            let at = SimTime::from_micros(t);
            match op {
                0..=2 => {
                    q.push(at, i);
                    add(&mut reference, false, (at, i));
                }
                3 => {
                    if first.is_none() {
                        q.push_first(at, i);
                        add(&mut reference, true, (at, i));
                        first = Some(i);
                    }
                }
                4 | 5 => {
                    let want = pop(&mut reference, &mut first);
                    prop_assert_eq!(q.pop(), want, "op {}", i);
                }
                6 => {
                    let want = pop(&mut reference, &mut first);
                    prop_assert_eq!(q.pop(), want, "op {}", i);
                    q.push(at, i);
                    add(&mut reference, false, (at, i));
                }
                7 => {
                    let mut clone = q.clone();
                    let mut want = reference.clone();
                    if first.is_none() {
                        clone.push_first(at, i);
                        add(&mut want, true, (at, i));
                    }
                    let rest: Vec<_> = std::iter::from_fn(|| clone.pop()).collect();
                    prop_assert_eq!(rest, want, "clone at op {}", i);
                }
                _ => {
                    let mut clone = q.clone();
                    let rest: Vec<_> = std::iter::from_fn(|| clone.pop()).collect();
                    prop_assert_eq!(&rest, &reference, "clone at op {}", i);
                }
            }
            prop_assert_eq!(q.len(), reference.len(), "op {}", i);
            prop_assert_eq!(q.is_empty(), reference.is_empty(), "op {}", i);
            if i % 3 == 0 {
                prop_assert_eq!(q.peek_time(), reference.first().map(|&(at, _)| at));
            }
        }
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(rest, reference);
    }
}
