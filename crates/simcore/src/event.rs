//! Future-event list: a deterministic, time-ordered scheduler — a binary
//! heap plus FIFO lanes for events a caller schedules in time order.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event queued for execution at a given simulated instant.
///
/// Events at equal times are delivered in insertion order (FIFO among ties),
/// which makes simulations deterministic regardless of heap internals.
///
/// Internally the `(time, sequence)` ordering pair is packed into a single
/// `u128` (time in the high 64 bits, insertion sequence in the low 64), so
/// every heap sift-up/down comparison is one integer compare instead of
/// two — the event list is the innermost loop of the simulator.
#[derive(Debug)]
pub struct Scheduled<E> {
    /// `(at.as_nanos() << 64) | seq`; lexicographic `(at, seq)` order and
    /// numeric `u128` order coincide.
    key: u128,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// When the event fires.
    pub fn at(&self) -> SimTime {
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

/// FIFO lanes a [`Scheduler`] keeps beside its heap; see
/// [`Scheduler::schedule_in_lane`].
const LANES: usize = 3;

/// A deterministic future-event list: a binary heap plus a few FIFO lanes.
///
/// Determinism guarantee: two events scheduled for the same instant are
/// delivered in the order they were scheduled, whichever lane or the heap
/// holds them.
///
/// Every scheduled event gets the next sequence number and the packed
/// `(time, seq)` key, wherever it is stored. [`Scheduler::schedule_at`]
/// pushes onto the heap. [`Scheduler::schedule_in_lane`] appends to a
/// lane when that keeps the lane sorted by key — a caller whose events of
/// one kind are born in time order (lease expiries at `now + ttl`, a
/// chain of arrivals) pays a queue append and a front read for them
/// instead of two heap sifts. [`Scheduler::pop`] returns the least key
/// among the heap top and the lane fronts, so the pop order is the
/// `(time, seq)` order whatever a caller routes where.
///
/// # Example
///
/// ```
/// use tailguard_simcore::{Scheduler, SimDuration, SimTime};
///
/// let mut sched: Scheduler<&'static str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_millis(2), "late");
/// sched.schedule_in_lane(0, SimTime::from_millis(1), "early");
/// sched.schedule_in(SimTime::from_millis(1), SimDuration::ZERO, "tie");
///
/// let order: Vec<_> = std::iter::from_fn(|| sched.pop().map(|s| s.event)).collect();
/// assert_eq!(order, vec!["early", "tie", "late"]);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Each lane is sorted by key, front first.
    lanes: [VecDeque<Scheduled<E>>; LANES],
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Number of FIFO lanes; [`Scheduler::schedule_in_lane`] sends a lane
    /// index at or past this to the heap.
    pub const LANES: usize = LANES;

    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            seq: 0,
        }
    }

    // tg-lint: hot(event-queue)
    /// The next event's packed key; advances the sequence.
    fn key(&mut self, at: SimTime) -> u128 {
        let seq = self.seq;
        self.seq += 1;
        (u128::from(at.as_nanos()) << 64) | u128::from(seq)
    }

    /// Schedules `event` to fire at absolute instant `at`.
    /// `at` is virtual time (nanosecond domain).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let key = self.key(at);
        self.heap.push(Scheduled { key, event });
    }

    /// Schedules `event` to fire at absolute instant `at`, appending it to
    /// FIFO lane `lane` when `at` is not earlier than that lane's last
    /// event, and pushing it onto the heap otherwise (or when `lane` is
    /// not below [`Scheduler::LANES`]). Either way it fires exactly where
    /// [`Scheduler::schedule_at`] would have put it: the lane is only
    /// where it waits.
    /// `at` is virtual time (nanosecond domain).
    pub fn schedule_in_lane(&mut self, lane: usize, at: SimTime, event: E) {
        let key = self.key(at);
        let scheduled = Scheduled { key, event };
        match self.lanes.get_mut(lane) {
            // The new key's seq is the largest yet, so the lane stays
            // sorted exactly when `at` is not earlier than its back's.
            Some(fifo) if fifo.back().is_none_or(|back| back.key < key) => {
                fifo.push_back(scheduled);
            }
            _ => self.heap.push(scheduled),
        }
    }

    /// Schedules `event` to fire `delay` after `now`.
    /// `now` is virtual time (nanosecond domain).
    pub fn schedule_in(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        // Keys are unique, and only the 2^64-th event could carry the
        // all-ones key, so it is safe as "heap empty".
        let mut least = self.heap.peek().map_or(u128::MAX, |top| top.key);
        let mut from = None;
        for (i, fifo) in self.lanes.iter().enumerate() {
            if let Some(front) = fifo.front() {
                if front.key < least {
                    least = front.key;
                    from = Some(i);
                }
            }
        }
        match from.and_then(|i| self.lanes.get_mut(i)) {
            Some(fifo) => fifo.pop_front(),
            None => self.heap.pop(),
        }
    }
    // tg-lint: endhot

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
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

    #[test]
    fn same_instant_ties_fire_in_schedule_order_across_heap_and_lanes() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(1);
        s.schedule_in_lane(1, t, 'a');
        s.schedule_at(t, 'b');
        s.schedule_in_lane(0, t, 'c');
        s.schedule_in_lane(Scheduler::<char>::LANES, t, 'd');
        s.schedule_in_lane(0, t, 'e');
        s.schedule_at(t, 'f');
        s.schedule_in_lane(1, t, 'g');
        // Out of lane 0's order: waits on the heap, fires by its key.
        s.schedule_in_lane(0, SimTime::from_millis(2), 'i');
        s.schedule_in_lane(0, SimTime::ZERO, 'h');
        assert_eq!(s.len(), 9);
        let order: String = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, "habcdefgi");
        assert!(s.is_empty());
    }

    /// The pre-lane `Scheduler`: one `BinaryHeap` keyed by `(time, seq)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Reference {
        fn schedule_at(&mut self, at: u64, id: u32) {
            self.heap.push(std::cmp::Reverse((at, self.seq, id)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap
                .pop()
                .map(|std::cmp::Reverse((at, _, id))| (at, id))
        }
    }

    /// Seeded random mixes of heap pushes, in-order and out-of-order lane
    /// pushes, out-of-range lanes and pops, over a few nanoseconds so ties
    /// land in the heap and in several lanes at once: every pop and every
    /// `len` matches the reference.
    #[test]
    fn pops_match_a_plain_heap_oracle() {
        let lanes = Scheduler::<u32>::LANES;
        for seed in 0..200 {
            let mut rng = crate::SimRng::seed(seed);
            let (mut s, mut r) = (Scheduler::new(), Reference::default());
            // The last time asked of each lane, plus two past the end.
            let mut last = vec![0u64; lanes + 2];
            let mut now = 0u64;
            for id in 0..400u32 {
                let roll = rng.index(10);
                if roll < 3 {
                    let at = now + rng.index(4) as u64;
                    s.schedule_at(SimTime::from_nanos(at), id);
                    r.schedule_at(at, id);
                } else if roll < 7 {
                    let lane = rng.index(last.len());
                    let at = if rng.chance(0.8) {
                        last[lane].max(now) + rng.index(3) as u64
                    } else {
                        last[lane].saturating_sub(1 + rng.index(3) as u64).max(now)
                    };
                    last[lane] = at;
                    s.schedule_in_lane(lane, SimTime::from_nanos(at), id);
                    r.schedule_at(at, id);
                } else {
                    let got = s.pop().map(|e| (e.at().as_nanos(), e.event));
                    assert_eq!(got, r.pop(), "seed {seed} step {id}");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
                assert_eq!(s.len(), r.heap.len(), "seed {seed} step {id}");
                assert_eq!(s.is_empty(), r.heap.is_empty());
            }
            while let Some(want) = r.pop() {
                let got = s.pop().map(|e| (e.at().as_nanos(), e.event));
                assert_eq!(got, Some(want), "seed {seed} drain");
            }
            assert!(s.pop().is_none() && s.is_empty());
        }
    }
}
