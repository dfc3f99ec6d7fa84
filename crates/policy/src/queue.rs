//! The one task queue: every policy is a sort key over one binary heap.

use crate::{Policy, QueuedTask, TaskQueue};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A task-server queue under any [`Policy`]: a binary min-heap on
/// `(key, seq)`.
///
/// `key` is the policy's rank for the task, computed once at push, and
/// `seq` is the queue's insertion counter, so tasks with equal keys leave
/// in arrival order. The four policies of §III.A (and the SJF extension)
/// differ only in the key:
///
/// | policy | key | dequeue order |
/// |---|---|---|
/// | FIFO | `0` | arrival order |
/// | PRIQ | the service class | class 0 first, FIFO within a class |
/// | T-EDFQ, TF-EDFQ | the queuing deadline `t_D` | earliest deadline first, ties FIFO |
/// | SJF | [`QueuedTask::size_hint`] | shortest task first, ties FIFO |
///
/// T-EDFQ and TF-EDFQ share a key and differ only in how the query handler
/// computes `t_D` ([`Policy::deadline_rule`]). With a single class, the
/// paper notes that PRIQ and T-EDFQ both degenerate to FIFO, which is why
/// Fig. 4 compares TailGuard against FIFO alone. Both `push` and `pop` are
/// `O(log n)`.
///
/// # Example
///
/// ```
/// use tailguard_policy::{Policy, PolicyQueue, QueuedTask, ServiceClass, TaskQueue};
/// use tailguard_simcore::SimTime;
///
/// let mut q = PolicyQueue::new(Policy::Priq);
/// q.push(QueuedTask::new(1, ServiceClass(1), SimTime::ZERO, SimTime::ZERO));
/// q.push(QueuedTask::new(2, ServiceClass(0), SimTime::ZERO, SimTime::ZERO));
/// assert_eq!(q.pop().unwrap().task_id, 2); // class 0 wins
/// ```
#[derive(Debug)]
pub struct PolicyQueue {
    policy: Policy,
    heap: BinaryHeap<Entry>,
    seq: u64,
}

/// A queued task under its rank `key << 64 | seq`: the `u128` order is the
/// lexicographic order on `(key, seq)`, and no two entries share a rank.
#[derive(Debug)]
struct Entry {
    rank: u128,
    task: QueuedTask,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` pops its greatest entry, and the least
        // rank leaves first.
        other.rank.cmp(&self.rank)
    }
}

impl PolicyQueue {
    /// Creates an empty queue ordering tasks by `policy`'s key.
    pub fn new(policy: Policy) -> Self {
        PolicyQueue {
            policy,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl TaskQueue for PolicyQueue {
    fn push(&mut self, task: QueuedTask) {
        let key = self
            .policy
            .queue_key(task.class, task.deadline, task.size_hint);
        let rank = u128::from(key) << 64 | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Entry { rank, task });
    }

    fn pop(&mut self) -> Option<QueuedTask> {
        self.heap.pop().map(|e| e.task)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceClass;
    use proptest::prelude::*;
    use tailguard_simcore::{SimDuration, SimRng, SimTime};

    /// Policies in [`Policy::WITH_EXTENSIONS`] order: the column order of
    /// every expectation table below.
    const POLICIES: [Policy; 5] = Policy::WITH_EXTENSIONS;

    /// One table row: a name, push (`Some`) and pop (`None`) steps, and
    /// the ids each policy pops, in [`POLICIES`] order.
    type Row = (&'static str, Vec<Option<QueuedTask>>, [&'static [u64]; 5]);

    fn task(id: u64, class: u8, deadline_ms: u64, size_us: u64) -> QueuedTask {
        QueuedTask::new(
            id,
            ServiceClass(class),
            SimTime::from_millis(deadline_ms),
            SimTime::ZERO,
        )
        .with_size_hint(SimDuration::from_micros(size_us))
    }

    /// `v`'s base-`radix` digits as (class, deadline ms, size µs), so one
    /// drawn integer makes one task and a small `radix` makes ties common.
    fn decode(id: u64, v: u64, radix: u64) -> QueuedTask {
        let digit = |i: u32| v / radix.pow(i) % radix;
        task(id, digit(0) as u8, digit(1), digit(2))
    }

    /// §III.A's dequeue rule, written from the definitions rather than from
    /// [`PolicyQueue`]'s key: `a` leaves strictly before `b` when it has the
    /// lesser class (PRIQ), deadline (T-EDFQ, TF-EDFQ) or size (SJF); FIFO
    /// prefers no task over another.
    fn before(policy: Policy, a: &QueuedTask, b: &QueuedTask) -> bool {
        match policy {
            Policy::Fifo => false,
            Policy::Priq => a.class < b.class,
            Policy::TEdf | Policy::TfEdf => a.deadline < b.deadline,
            Policy::Sjf => a.size_hint < b.size_hint,
        }
    }

    /// The reference queue: a `Vec` in insertion order, scanned linearly
    /// for the first task no other task is [`before`], so the earliest
    /// insertion breaks ties.
    fn reference_pop(policy: Policy, waiting: &mut Vec<QueuedTask>) -> Option<QueuedTask> {
        let mut best = 0;
        for (i, t) in waiting.iter().enumerate().skip(1) {
            if before(policy, t, &waiting[best]) {
                best = i;
            }
        }
        (best < waiting.len()).then(|| waiting.remove(best))
    }

    /// Ids popped, in order: one per `None` step of `ops` (`Some` pushes),
    /// then the rest of the queue drained.
    fn run(policy: Policy, ops: &[Option<QueuedTask>]) -> Vec<u64> {
        let mut q = PolicyQueue::new(policy);
        let mut popped = Vec::new();
        for op in ops {
            match op {
                Some(t) => q.push(t.clone()),
                None => popped.extend(q.pop().map(|t| t.task_id)),
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop().map(|t| t.task_id)));
        assert!(q.pop().is_none() && q.is_empty());
        popped
    }

    #[test]
    fn each_policy_dequeues_in_its_order() {
        let p = |id, class, deadline_ms, size_us| Some(task(id, class, deadline_ms, size_us));
        #[rustfmt::skip]
        let table: [Row; 9] = [
            // Columns: TailGuard, FIFO, PRIQ, T-EDFQ, SJF.
            ("FIFO ignores deadlines and classes",
             vec![p(0, 9, 100, 0), p(1, 0, 1, 0)],
             [&[1, 0], &[0, 1], &[1, 0], &[1, 0], &[0, 1]]),
            ("strict priority across classes",
             vec![p(1, 2, 0, 0), p(2, 0, 0, 0), p(3, 1, 0, 0), p(4, 0, 0, 0)],
             [&[1, 2, 3, 4], &[1, 2, 3, 4], &[2, 4, 3, 1], &[1, 2, 3, 4], &[1, 2, 3, 4]]),
            ("highest priority first",
             vec![p(1, 5, 0, 0), p(2, 2, 0, 0)],
             [&[1, 2], &[1, 2], &[2, 1], &[1, 2], &[1, 2]]),
            ("high-class arrival preempts queue position",
             vec![p(1, 1, 0, 0), p(2, 1, 0, 0), None, p(3, 0, 0, 0)],
             [&[1, 2, 3], &[1, 2, 3], &[1, 3, 2], &[1, 2, 3], &[1, 2, 3]]),
            ("deadline order",
             vec![p(1, 0, 30, 0), p(2, 0, 10, 0), p(3, 0, 20, 0)],
             [&[2, 3, 1], &[1, 2, 3], &[1, 2, 3], &[2, 3, 1], &[1, 2, 3]]),
            ("urgent arrival jumps the queue",
             vec![p(1, 0, 100, 0), p(2, 0, 200, 0), p(3, 0, 1, 0)],
             [&[3, 1, 2], &[1, 2, 3], &[1, 2, 3], &[3, 1, 2], &[1, 2, 3]]),
            // The low-priority class wins under EDF because its deadline is
            // earlier: the paper's point about class-based scheduling.
            ("EDF ignores classes",
             vec![p(1, 0, 10, 0), p(2, 5, 1, 0)],
             [&[2, 1], &[1, 2], &[1, 2], &[2, 1], &[1, 2]]),
            ("shortest first",
             vec![p(1, 0, 0, 500), p(2, 0, 0, 100), p(3, 0, 0, 300)],
             [&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[2, 3, 1]]),
            // The small task wins under SJF although the other is far more
            // urgent: the blindness the paper criticizes (§II.B).
            ("SJF ignores deadlines and classes",
             vec![p(1, 0, 1, 900), p(2, 9, 999, 100)],
             [&[1, 2], &[1, 2], &[1, 2], &[1, 2], &[2, 1]]),
        ];
        for (name, ops, expected) in &table {
            for (policy, want) in POLICIES.iter().zip(expected) {
                assert_eq!(run(*policy, ops), *want, "{name}: {policy}");
            }
        }
    }

    #[test]
    fn equal_keys_leave_in_arrival_order() {
        for policy in POLICIES {
            let ops: Vec<_> = (0..100).map(|id| Some(task(id, 1, 5, 100))).collect();
            assert_eq!(run(policy, &ops), (0..100).collect::<Vec<_>>(), "{policy}");
        }
    }

    #[test]
    fn len_and_emptiness() {
        for policy in POLICIES {
            let mut q = PolicyQueue::new(policy);
            assert!(q.is_empty());
            assert!(q.pop().is_none());
            q.push(task(5, 0, 0, 0));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.push(task(6, 3, 0, 0));
            q.push(task(7, 7, 0, 0));
            assert_eq!(q.len(), 3);
            q.pop();
            assert_eq!(q.len(), 2);
        }
    }

    /// Random push/pop interleavings over few distinct keys (so ties are
    /// common) dequeue exactly as the linear-scan reference does.
    #[test]
    fn matches_the_linear_scan_reference() {
        for policy in POLICIES {
            for seed in 0..64 {
                let mut rng = SimRng::seed(seed);
                let mut q = PolicyQueue::new(policy);
                let mut waiting = Vec::new();
                for id in 0..400 {
                    if rng.chance(0.55) {
                        let t = decode(id, rng.u64() % 27, 3);
                        q.push(t.clone());
                        waiting.push(t);
                    } else {
                        let want = reference_pop(policy, &mut waiting);
                        assert_eq!(q.pop(), want, "{policy}, seed {seed}, step {id}");
                    }
                    assert_eq!(q.len(), waiting.len());
                }
                while let Some(want) = reference_pop(policy, &mut waiting) {
                    assert_eq!(q.pop(), Some(want), "{policy}, seed {seed}, drain");
                }
                assert!(q.pop().is_none());
            }
        }
    }

    proptest! {
        /// Popped keys are non-decreasing for any push sequence.
        #[test]
        fn prop_pop_order_sorted(values in proptest::collection::vec(0u64..1 << 24, 1..200)) {
            for policy in POLICIES {
                let mut q = PolicyQueue::new(policy);
                for (id, v) in values.iter().enumerate() {
                    q.push(decode(id as u64, *v, 256));
                }
                let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
                for pair in popped.windows(2) {
                    prop_assert!(!before(policy, &pair[1], &pair[0]), "{policy}: out of order");
                }
            }
        }

        /// Equal-key tasks always pop in insertion order, even interleaved
        /// with other keys.
        #[test]
        fn prop_stable_among_ties(values in proptest::collection::vec(0u64..8, 1..200)) {
            for policy in POLICIES {
                let mut q = PolicyQueue::new(policy);
                for (id, v) in values.iter().enumerate() {
                    q.push(decode(id as u64, *v, 2));
                }
                let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
                for (i, a) in popped.iter().enumerate() {
                    for b in &popped[i + 1..] {
                        let tie = !before(policy, a, b) && !before(policy, b, a);
                        prop_assert!(!tie || a.task_id < b.task_id, "{policy}: tie broken out of FIFO order");
                    }
                }
            }
        }

        /// Push/pop interleavings conserve tasks: everything pushed comes
        /// out exactly once.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..300)) {
            for policy in POLICIES {
                let mut q = PolicyQueue::new(policy);
                let mut pushed = std::collections::HashSet::new();
                let mut popped = std::collections::HashSet::new();
                for (id, op) in ops.iter().enumerate() {
                    match op {
                        Some(v) => {
                            q.push(decode(id as u64, *v, 10));
                            pushed.insert(id as u64);
                        }
                        None => {
                            if let Some(t) = q.pop() {
                                prop_assert!(popped.insert(t.task_id), "task popped twice");
                            }
                        }
                    }
                }
                while let Some(t) = q.pop() {
                    prop_assert!(popped.insert(t.task_id), "task popped twice");
                }
                prop_assert_eq!(pushed, popped);
            }
        }
    }
}
