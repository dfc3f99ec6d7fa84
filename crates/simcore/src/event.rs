//! Future-event list: a deterministic, time-ordered scheduler.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queued for execution at a given simulated instant.
///
/// Events at equal times are delivered in insertion order (FIFO among ties),
/// which makes simulations deterministic regardless of heap internals.
///
/// Internally the `(time, sequence)` ordering pair is packed into a single
/// `u128` (time in the high 64 bits, insertion sequence in the low 64), so
/// every heap sift-up/down comparison is one integer compare instead of
/// two — the event heap is the innermost loop of the simulator.
#[derive(Debug)]
pub struct Scheduled<E> {
    /// `(at.as_nanos() << 64) | seq`; lexicographic `(at, seq)` order and
    /// numeric `u128` order coincide.
    key: u128,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    fn new(at: SimTime, seq: u64, event: E) -> Self {
        Scheduled {
            key: (u128::from(at.as_nanos()) << 64) | u128::from(seq),
            event,
        }
    }

    /// When the event fires.
    pub fn at(&self) -> SimTime {
        // tg-lint: allow(lossy-cast) -- exact: the upper half of the packed (time, seq) u128 key — `>> 64` bounds it below 2^64
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list.
///
/// Determinism guarantee: two events scheduled for the same instant are
/// delivered in the order they were scheduled.
///
/// # Example
///
/// ```
/// use tailguard_simcore::{Scheduler, SimDuration, SimTime};
///
/// let mut sched: Scheduler<&'static str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_millis(2), "late");
/// sched.schedule_at(SimTime::from_millis(1), "early");
/// sched.schedule_in(SimTime::from_millis(1), SimDuration::ZERO, "tie");
///
/// let order: Vec<_> = std::iter::from_fn(|| sched.pop().map(|s| s.event)).collect();
/// assert_eq!(order, vec!["early", "tie", "late"]);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute instant `at`.
    /// `at` is virtual time (nanosecond domain).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled::new(at, seq, event));
    }

    /// Schedules `event` to fire `delay` after `now`.
    /// `now` is virtual time (nanosecond domain).
    pub fn schedule_in(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(5), 5);
        s.schedule_at(SimTime::from_millis(1), 1);
        s.schedule_at(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_offsets_from_now() {
        let mut s = Scheduler::new();
        s.schedule_in(SimTime::from_millis(2), SimDuration::from_millis(3), ());
        assert_eq!(s.pop().map(|e| e.at()), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_at(SimTime::ZERO, ());
        s.schedule_at(SimTime::ZERO, ());
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 10);
        s.schedule_at(SimTime::from_millis(1), 1);
        assert_eq!(s.pop().unwrap().event, 1);
        s.schedule_at(SimTime::from_millis(2), 2);
        s.schedule_at(SimTime::from_millis(20), 20);
        assert_eq!(s.pop().unwrap().event, 2);
        assert_eq!(s.pop().unwrap().event, 10);
        assert_eq!(s.pop().unwrap().event, 20);
        assert!(s.pop().is_none());
    }
}
