//! Deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time.
//! Events scheduled for the same instant pop in insertion order (FIFO), which
//! makes simulation runs reproducible regardless of the payload type.
//!
//! It is one binary heap keyed `(time, seq)`, where `seq` is a per-queue push
//! counter. Step completions rarely share a microsecond, so batching them by
//! firing time would cost more than it saves (DESIGN.md §7.4).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// Cloning a queue (for [`crate`]-level snapshot/fork support) copies the
/// heap and the sequence counter, so a clone pops the exact same stream as
/// the original and orders later pushes the same way.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
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
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Exactly [`EventQueue::push`], kept only until its remaining callers
    /// switch to `push`.
    pub fn push_coalesced(&mut self, at: SimTime, payload: E) {
        self.push(at, payload);
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
    /// minimum is already 0, every pending sequence number (and the counter)
    /// is first shifted up by one — a uniform shift, so no relative order
    /// changes.
    pub fn push_below_pending(&mut self, at: SimTime, payload: E) {
        let seq = match self.heap.iter().map(|s| s.seq).min() {
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
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// The firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
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
    fn clone_pops_identically_and_keeps_counting() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(t, 0);
        q.push(t, 1);
        q.push(SimTime::from_millis(2), 2);
        q.push(t, 3);
        let mut c = q.clone();
        assert_eq!(c.len(), q.len());
        // Identical pop stream.
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
        q.push(t, 2);
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
        q.push(t, 2); // seq 1
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
}
