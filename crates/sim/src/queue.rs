//! Deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time.
//! Events scheduled for the same instant pop in insertion order (FIFO), which
//! makes simulation runs reproducible regardless of the payload type.
//!
//! # Coalesced tier
//!
//! High-volume periodic events (one engine step completion per instance per
//! step, at 1024+ instances) would each pay an `O(log n)` heap sift. Such
//! events can instead be scheduled through [`EventQueue::push_coalesced`],
//! which appends them to a calendar bucket keyed by firing time: instances
//! whose steps finish at the same instant share one `BTreeMap` node and each
//! append is an amortised `O(1)` `VecDeque` push. Both tiers draw sequence
//! numbers from the same counter and [`EventQueue::pop`] merges them by
//! `(time, seq)`, so the pop order is *exactly* the order a single heap would
//! have produced — coalescing is a representation change, not a scheduling
//! change. Debug builds verify this on every pop against a shadow schedule
//! that records each push the way the unbatched heap would have.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled event: when it fires, a tie-breaking sequence number, and the
/// caller's payload.
#[derive(Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top,
        // with the lowest sequence number breaking ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use llumnix_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Cloning a queue (for [`crate`]-level snapshot/fork support) copies both
/// tiers, the sequence counter and — in debug builds — the shadow schedule,
/// so a clone pops the exact same stream as the original and keeps
/// cross-checking it.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Calendar tier: events coalesced into per-instant buckets. Appends
    /// within a bucket are in ascending `seq` order, so the bucket front
    /// always holds the bucket's minimum sequence number.
    buckets: BTreeMap<SimTime, VecDeque<(u64, E)>>,
    bucket_len: usize,
    next_seq: u64,
    /// Unbatched reference schedule: every push lands here too, and every pop
    /// must match it. This is the determinism cross-check demanded by the
    /// coalescing contract (DESIGN.md §7.4).
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            buckets: BTreeMap::new(),
            bucket_len: 0,
            next_seq: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.take_seq(at);
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` to fire at `at` through the coalesced calendar
    /// tier.
    ///
    /// Pops interleave with [`EventQueue::push`]-ed events in exact
    /// `(time, insertion)` order; the only difference is cost. Use this for
    /// high-volume event classes where many events share firing instants
    /// (e.g. per-instance engine step completions in a large fleet).
    pub fn push_coalesced(&mut self, at: SimTime, payload: E) {
        let seq = self.take_seq(at);
        self.buckets
            .entry(at)
            .or_default()
            .push_back((seq, payload));
        self.bucket_len += 1;
    }

    /// Schedules `payload` at `at`, ordered *before* every currently-pending
    /// event in same-instant tie-breaks.
    ///
    /// A plain [`EventQueue::push`] takes the next sequence number, so among
    /// events firing at the same instant it pops *after* everything already
    /// pending. Forking a snapshot sometimes needs the opposite: an event
    /// injected mid-run (e.g. re-activating a fault plan) must occupy the
    /// tie-break slot it would have held had it been scheduled at seed time —
    /// below every pending seed and re-armed event. This inserts with a
    /// sequence number strictly smaller than the pending minimum; if that
    /// minimum is already 0, every pending sequence number (both tiers, the
    /// shadow, and the counter) is first shifted up by one — a uniform shift,
    /// so no relative order changes.
    pub fn push_below_pending(&mut self, at: SimTime, payload: E) {
        let heap_min = self.heap.iter().map(|s| s.seq).min();
        // Within a bucket appends are in ascending seq order, so each front
        // carries its bucket's minimum.
        let bucket_min = self
            .buckets
            .values()
            .map(|dq| dq.front().expect("buckets are never empty").0)
            .min();
        let seq = match heap_min.into_iter().chain(bucket_min).min() {
            // Nothing pending: plain push semantics.
            None => {
                self.push(at, payload);
                return;
            }
            Some(0) => {
                self.shift_pending_seqs_up();
                0
            }
            Some(m) => m - 1,
        };
        #[cfg(debug_assertions)]
        self.shadow.push(std::cmp::Reverse((at, seq)));
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Adds 1 to every pending sequence number (and the counter). Uniform, so
    /// relative order is untouched; frees seq 0 for [`Self::push_below_pending`].
    fn shift_pending_seqs_up(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for s in &mut entries {
            s.seq += 1;
        }
        self.heap = entries.into();
        for dq in self.buckets.values_mut() {
            for (seq, _) in dq.iter_mut() {
                *seq += 1;
            }
        }
        #[cfg(debug_assertions)]
        {
            let entries = std::mem::take(&mut self.shadow).into_vec();
            self.shadow = entries
                .into_iter()
                .map(|std::cmp::Reverse((at, seq))| std::cmp::Reverse((at, seq + 1)))
                .collect();
        }
        self.next_seq += 1;
    }

    fn take_seq(&mut self, _at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(debug_assertions)]
        self.shadow.push(std::cmp::Reverse((_at, seq)));
        seq
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Both tiers order by (time, seq); the bucket front carries its
        // bucket's minimum seq, so comparing the heap top against the first
        // bucket's front picks the global minimum.
        let heap_key = self.heap.peek().map(|s| (s.at, s.seq));
        let bucket_key = self
            .buckets
            .first_key_value()
            .map(|(&at, dq)| (at, dq.front().expect("buckets are never empty").0));
        let from_bucket = match (heap_key, bucket_key) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(h), Some(b)) => b < h,
        };
        let (at, _seq, payload) = if from_bucket {
            let mut entry = self.buckets.first_entry().expect("checked non-empty");
            let at = *entry.key();
            let (seq, payload) = entry.get_mut().pop_front().expect("non-empty bucket");
            if entry.get().is_empty() {
                entry.remove();
            }
            self.bucket_len -= 1;
            (at, seq, payload)
        } else {
            let s = self.heap.pop().expect("checked non-empty");
            (s.at, s.seq, s.payload)
        };
        #[cfg(debug_assertions)]
        {
            let expected = self.shadow.pop().expect("shadow tracks every push").0;
            debug_assert_eq!(
                (at, _seq),
                expected,
                "coalesced pop diverged from the unbatched schedule"
            );
        }
        Some((at, payload))
    }

    /// The firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_at = self.heap.peek().map(|s| s.at);
        let bucket_at = self.buckets.first_key_value().map(|(&at, _)| at);
        match (heap_at, bucket_at) {
            (Some(h), Some(b)) => Some(h.min(b)),
            (h, b) => h.or(b),
        }
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.bucket_len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.bucket_len == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.buckets.clear();
        self.bucket_len = 0;
        #[cfg(debug_assertions)]
        self.shadow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
    }

    #[test]
    fn coalesced_interleaves_with_heap_in_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        q.push(t, 0);
        q.push_coalesced(t, 1);
        q.push(t, 2);
        q.push_coalesced(t, 3);
        q.push_coalesced(SimTime::from_millis(3), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn coalesced_tier_drains_and_reopens_an_instant() {
        let mut q = EventQueue::new();
        for i in 0..12u64 {
            // Three distinct instants, four events each.
            q.push_coalesced(SimTime::from_millis(i % 3), i);
        }
        assert_eq!(q.len(), 12);
        // Draining and refilling an instant opens a fresh bucket.
        while q.pop().is_some() {}
        assert!(q.is_empty());
        q.push_coalesced(SimTime::from_millis(1), 99);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 99)));
    }

    #[test]
    fn peek_len_clear_span_both_tiers() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(20), "heap");
        q.push_coalesced(SimTime::from_millis(10), "bucket");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("bucket"));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(20)));
        q.push_coalesced(SimTime::from_millis(30), "later");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clone_pops_identically_and_keeps_counting() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(t, 0);
        q.push_coalesced(t, 1);
        q.push(SimTime::from_millis(2), 2);
        q.push_coalesced(t, 3);
        let mut c = q.clone();
        assert_eq!(c.len(), q.len());
        // Identical pop stream (debug builds also cross-check each clone pop
        // against the cloned shadow).
        loop {
            let (a, b) = (q.pop(), c.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // The clone's seq counter continues from the original's, so pushes
        // after the fork still order consistently.
        c.push(t, 7);
        c.push(t, 8);
        assert_eq!(c.pop().map(|(_, e)| e), Some(7));
        assert_eq!(c.pop().map(|(_, e)| e), Some(8));
    }

    #[test]
    fn push_below_pending_wins_same_instant_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push(t, 1);
        q.push_coalesced(t, 2);
        // Pops before both pending same-time events despite being pushed last.
        q.push_below_pending(t, 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn push_below_pending_shifts_when_seq_zero_pending() {
        // The very first push holds seq 0, exercising the uniform-shift path.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push(t, 1); // seq 0
        q.push_coalesced(t, 2); // seq 1
        q.push(SimTime::from_millis(5), 3); // seq 2, earlier time
        q.push_below_pending(t, 0); // must take over seq 0 at time t
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn push_below_pending_on_empty_queue_is_plain_push() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push_below_pending(t, 0);
        q.push(t, 1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1]);
    }

    /// Exhaustive equivalence: a mixed push/push_coalesced stream must pop in
    /// exactly the order a plain single-heap queue produces for the same
    /// stream of (time, payload) pushes.
    #[test]
    fn mixed_stream_matches_plain_queue() {
        let mut mixed = EventQueue::new();
        let mut plain = EventQueue::new();
        // Deterministic pseudo-random stream (xorshift).
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for i in 0..2_000u64 {
            let at = SimTime::from_micros(step(64)); // heavy time collisions
            if step(2) == 0 {
                mixed.push_coalesced(at, i);
            } else {
                mixed.push(at, i);
            }
            plain.push(at, i);
            if step(4) == 0 {
                assert_eq!(mixed.pop(), plain.pop());
            }
        }
        loop {
            let (a, b) = (mixed.pop(), plain.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Arrival-shaped stream: an open-loop trace pushes monotone
    /// non-decreasing timestamps with bursts of exact collisions (high-rate
    /// traces at 1024+ instances quantize onto shared microseconds). Arrivals
    /// ride the coalesced tier while step-completion-style events hit the
    /// heap at scattered future times; pops must match a plain single-heap
    /// queue byte for byte. (In debug builds every pop is additionally
    /// cross-checked against the internal shadow heap.)
    #[test]
    fn bursty_arrival_stream_matches_plain_queue() {
        let mut mixed = EventQueue::new();
        let mut plain = EventQueue::new();
        let mut x = 0xdeadbeefcafef00du64;
        let mut step = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut now = 0u64;
        let mut payload = 0u64;
        for _ in 0..500 {
            // A burst of 1–8 arrivals sharing one timestamp.
            now += step(50);
            let at = SimTime::from_micros(now);
            for _ in 0..=step(8) {
                mixed.push_coalesced(at, payload);
                plain.push(at, payload);
                payload += 1;
            }
            // A few step completions at scattered future instants.
            for _ in 0..step(3) {
                let f = SimTime::from_micros(now + 1 + step(100));
                mixed.push(f, payload);
                plain.push(f, payload);
                payload += 1;
            }
            // Drain everything due strictly before the burst's instant, the
            // way the serving loop drains between arrivals.
            while plain.peek_time().is_some_and(|t| t < at) {
                assert_eq!(mixed.pop(), plain.pop());
            }
        }
        loop {
            let (a, b) = (mixed.pop(), plain.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
