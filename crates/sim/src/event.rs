//! Deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(time, sequence)`. The sequence
//! number is a monotonically increasing insertion counter, so two events
//! scheduled for the same simulated time are always delivered in the order
//! they were pushed. This property is what makes every experiment in this
//! workspace reproducible run-to-run: there is no dependence on hash-map
//! iteration order or allocator behaviour.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated timestamp, in the clock domain chosen by the caller
/// (the Dvé system simulator uses core cycles at 3 GHz).
pub type Time = u64;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Example
///
/// ```
/// use dve_sim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(100, "tick");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (100, "tick"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current time ([`Self::now`]) —
    /// scheduling into the past is always a simulator bug — or if the
    /// insertion counter would wrap. A silent `next_seq` wraparound would
    /// flip FIFO-within-time ordering for the wrapped pushes, breaking
    /// replay determinism without any visible error.
    pub fn push(&mut self, time: Time, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq = seq
            .checked_add(1)
            .expect("EventQueue sequence counter overflowed u64");
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        // Popped times must never run backwards: `push` rejects past
        // events, so a violation here means the heap ordering itself is
        // broken (or `now` was corrupted).
        debug_assert!(
            entry.time >= self.now,
            "popped event time {} ran behind the clock {}",
            entry.time,
            self.now
        );
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(5, ());
        q.push(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn panics_on_past_event() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(3, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(42, ());
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.now(), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clone_is_independent() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(20, "b");
        let mut snapshot = q.clone();
        assert_eq!(q.pop(), Some((10, "a")));
        // The clone still holds both events and its own clock.
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.now(), 0);
        assert_eq!(snapshot.pop(), Some((10, "a")));
        assert_eq!(snapshot.pop(), Some((20, "b")));
        // Sequence counters are independent too: pushes to the clone do
        // not perturb the original's FIFO-within-time ordering.
        assert_eq!(q.pop(), Some((20, "b")));
    }

    #[test]
    fn clone_replays_identically_under_interleaving() {
        // A clone must carry the insertion counter, not just the heap:
        // if `next_seq` reset on clone, a fresh push into the clone
        // could slot *before* surviving same-time events and the clone
        // would pop in a different order than the original given the
        // same subsequent pushes. Drive both queues through an
        // identical interleaved push/pop schedule and demand identical
        // pop sequences throughout.
        let mut original = EventQueue::new();
        original.push(5, "e0");
        original.push(5, "e1");
        original.push(9, "e2");
        let mut clone = original.clone();

        let schedule: &[(&str, Time, &str)] = &[
            ("pop", 0, ""),
            ("push", 5, "e3"), // same time as pending e1: seq decides
            ("push", 9, "e4"), // same time as pending e2: seq decides
            ("pop", 0, ""),
            ("pop", 0, ""),
            ("push", 9, "e5"),
            ("pop", 0, ""),
            ("pop", 0, ""),
            ("pop", 0, ""),
        ];
        for &(kind, time, tag) in schedule {
            match kind {
                "push" => {
                    original.push(time, tag);
                    clone.push(time, tag);
                }
                _ => {
                    assert_eq!(original.pop(), clone.pop(), "replay diverged");
                }
            }
        }
        assert_eq!(original.pop(), None);
        assert_eq!(clone.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_determinism() {
        let mut q = EventQueue::new();
        q.push(1, "a");
        q.push(3, "c");
        assert_eq!(q.pop(), Some((1, "a")));
        q.push(3, "d");
        q.push(2, "b");
        assert_eq!(q.pop(), Some((2, "b")));
        assert_eq!(q.pop(), Some((3, "c")));
        assert_eq!(q.pop(), Some((3, "d")));
    }
}
