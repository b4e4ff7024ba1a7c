//! Deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time.
//! Events scheduled for the same instant pop in insertion order (FIFO), which
//! makes simulation runs reproducible regardless of the payload type.
//!
//! It is one binary heap keyed `(time, seq)`, where `seq` is a per-queue push
//! counter, packed into one `u128` so that each heap comparison is a single
//! integer compare. Step completions rarely share a microsecond, so batching
//! them by firing time would cost more than it saves (DESIGN.md §7.4). The
//! counter starts at 1: `seq` 0 is reserved for [`EventQueue::push_first`].
//!
//! `pop` leaves the entry it returns at the root, and the next `push`
//! overwrites that vacated root and sifts it down once, instead of the heap
//! sifting once to remove the root and again to add the new entry. The
//! serving loop pops a step completion and then pushes the same instance's
//! next one, so nearly every push fills a vacated root.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// `time << 64 | seq`: ordering these keys orders by time, then by push order.
fn pack(at: SimTime, seq: u64) -> u128 {
    u128::from(at.as_micros()) << 64 | u128::from(seq)
}

/// A scheduled event: its packed `(time, seq)` key and the caller's payload.
#[derive(Clone)]
struct Scheduled<E> {
    /// The bitwise complement of [`pack`]`(time, seq)`, so that the
    /// max-heap's top is the earliest event, the lowest `seq` breaking ties.
    inverted_key: u128,
    payload: E,
}

impl<E> Scheduled<E> {
    fn new(at: SimTime, seq: u64, payload: E) -> Self {
        Scheduled {
            inverted_key: !pack(at, seq),
            payload,
        }
    }

    /// [`pack`]`(time, seq)`.
    fn key(&self) -> u128 {
        !self.inverted_key
    }

    fn at(&self) -> SimTime {
        SimTime::from_micros((self.key() >> 64) as u64)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.inverted_key == other.inverted_key
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
        self.inverted_key.cmp(&other.inverted_key)
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
/// heap, the vacated-root flag and the sequence counter, so a clone pops the
/// exact same stream as the original and orders later pushes the same way.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Whether the heap's root is the entry the last [`EventQueue::pop`]
    /// returned, left in place for the next push to overwrite. It is no
    /// longer pending: every other operation drops or skips it.
    vacated: bool,
    next_seq: u64,
    /// Debug builds: no pending key is below this. A pop asserts its key is
    /// at least this and raises it past that key, and an insert lowers it to
    /// the new key, so keys pop strictly increasing unless a push lands below
    /// the last one popped (as [`EventQueue::push_first`] may).
    #[cfg(debug_assertions)]
    floor: u128,
}

impl<E: Clone> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            vacated: false,
            next_seq: 1,
            #[cfg(debug_assertions)]
            floor: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Scheduled::new(at, seq, payload));
    }

    /// Adds `entry`, overwriting the vacated root if there is one. Assigning
    /// through `peek_mut` sifts the new root down once when the guard drops.
    fn insert(&mut self, entry: Scheduled<E>) {
        #[cfg(debug_assertions)]
        {
            self.floor = self.floor.min(entry.key());
        }
        if std::mem::take(&mut self.vacated) {
            *self.heap.peek_mut().expect("a vacated root is in the heap") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Removes the vacated root, if any, so the heap holds only pending
    /// events.
    fn drop_vacated(&mut self) {
        if std::mem::take(&mut self.vacated) {
            self.heap.pop();
        }
    }

    /// Exactly [`EventQueue::push`], kept only until its remaining callers
    /// switch to `push`.
    pub fn push_coalesced(&mut self, at: SimTime, payload: E) {
        self.push(at, payload);
    }

    /// Schedules `payload` at `at` with the reserved `seq` 0, so it pops
    /// before every other event at the same instant, whenever those were
    /// pushed. At most one such event may be pending: two would tie on the
    /// whole key.
    ///
    /// This is the slot of a run's first planned fault, so a fork that
    /// activates a plan mid-run orders it exactly as a run configured with
    /// the plan from the start does.
    pub fn push_first(&mut self, at: SimTime, payload: E) {
        self.insert(Scheduled::new(at, 0, payload));
    }

    /// Removes and returns the earliest event, if any.
    ///
    /// The entry stays in the heap as its vacated root until the next
    /// operation, which overwrites or drops it; the caller gets a copy of
    /// the payload.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.drop_vacated();
        let root = self.heap.peek()?;
        #[cfg(debug_assertions)]
        {
            assert!(
                root.key() >= self.floor,
                "event queue popped key {:#x} below its floor {:#x}",
                root.key(),
                self.floor
            );
            self.floor = root.key().saturating_add(1);
        }
        self.vacated = true;
        Some((root.at(), root.payload.clone()))
    }

    /// The firing time of the earliest event, if any. Drops the vacated
    /// root, so it takes `&mut self`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_vacated();
        self.heap.peek().map(Scheduled::at)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.vacated)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), ())));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), ())));
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
    fn a_push_after_a_pop_fills_the_vacated_root() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert_eq!((q.heap.len(), q.len()), (2, 1));
        q.push(SimTime::from_millis(2), 2);
        // The new entry took the popped one's place: the heap did not grow.
        assert_eq!((q.heap.len(), q.len()), (2, 2));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        // A later key written into the root sifts below the pending one.
        q.push(SimTime::from_millis(4), 4);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 4)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_first_wins_same_instant_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_millis(5), 3);
        // Pushed last: ahead of every pending same-instant event, behind an
        // earlier one.
        q.push_first(t, 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn push_first_into_an_empty_queue_leads_later_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push_first(t, 0);
        q.push(t, 1);
        q.push(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn push_first_fills_the_popped_root() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.push(SimTime::from_millis(1), 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 0)));
        // The popped entry is not pending: the injected one overwrites it,
        // so the heap does not grow.
        q.push_first(t, 2);
        assert_eq!((q.heap.len(), q.len()), (2, 2));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 1]);
    }
}
