//! Task queue disciplines for the TailGuard reproduction.
//!
//! The paper (§III.A) compares four queuing policies at the task servers:
//!
//! * **FIFO** — first-in-first-out,
//! * **PRIQ** — strict priority across service classes, FIFO within a class,
//! * **T-EDFQ** — earliest-deadline-first with the *fanout-unaware* deadline
//!   `t_D = t_0 + x_p^SLO`,
//! * **TF-EDFQ (TailGuard)** — earliest-deadline-first with the fanout-aware
//!   deadline `t_D = t_0 + x_p^SLO − x_p^u(k_f)` (Eq. 6).
//!
//! They differ in one decision only, the order in which a server dequeues
//! its tasks, so one queue type serves them all: [`PolicyQueue`] is a
//! binary min-heap on `(key, seq)`, where the key is `0`, the class, `t_D`
//! or (for the SJF extension) the task size, and `seq` breaks ties in
//! arrival order. T-EDFQ and TF-EDFQ share the key and differ only in how
//! deadlines are computed — that computation lives in the `tailguard` core
//! crate ([`DeadlineRule`] names the variants). This crate is purely about
//! queue *ordering*.
//!
//! # Example
//!
//! ```
//! use tailguard_policy::{Policy, QueuedTask, ServiceClass};
//! use tailguard_simcore::SimTime;
//!
//! let mut q = Policy::TfEdf.new_queue();
//! q.push(QueuedTask::new(1, ServiceClass(0), SimTime::from_millis(5), SimTime::ZERO));
//! q.push(QueuedTask::new(2, ServiceClass(0), SimTime::from_millis(2), SimTime::ZERO));
//! assert_eq!(q.pop().unwrap().task_id, 2); // earliest deadline first
//! ```

mod queue;
mod task;

pub use queue::PolicyQueue;
pub use task::{QueuedTask, ServiceClass};

use serde::{Deserialize, Serialize};
use std::fmt;
use tailguard_simcore::{SimDuration, SimTime};

/// A task queue at (or in front of) a task server.
///
/// [`PolicyQueue`] is its one implementation, for every policy; the trait
/// lets a caller hold a queue behind [`Policy::new_queue`]'s box.
/// Implementations must be *work-conserving-friendly*: `pop` returns `Some`
/// whenever `len() > 0`.
pub trait TaskQueue: fmt::Debug + Send {
    /// Enqueues a task.
    fn push(&mut self, task: QueuedTask);

    /// Dequeues the next task according to the discipline.
    fn pop(&mut self) -> Option<QueuedTask>;

    /// Number of queued tasks.
    fn len(&self) -> usize;

    /// True when no tasks are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The queuing policies evaluated in the paper (§III.A, §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First-in-first-out task queuing.
    Fifo,
    /// Strict per-class priority queuing (class 0 = highest priority).
    Priq,
    /// Tail-latency-SLO-aware EDF: deadline `t_0 + x_p^SLO` (fanout-unaware).
    TEdf,
    /// TailGuard's TF-EDFQ: deadline `t_0 + x_p^SLO − x_p^u(k_f)` (Eq. 6).
    TfEdf,
    /// Shortest-job-first with a perfect size oracle — the task-size-aware
    /// reordering baseline class the paper's related work deems inadequate
    /// (§II.B); not part of the paper's four evaluated policies.
    Sjf,
}

impl Policy {
    /// The paper's four evaluated policies, in the order its figures list
    /// them.
    pub const ALL: [Policy; 4] = [Policy::TfEdf, Policy::Fifo, Policy::Priq, Policy::TEdf];

    /// The paper's four plus the size-aware SJF extension baseline.
    pub const WITH_EXTENSIONS: [Policy; 5] = [
        Policy::TfEdf,
        Policy::Fifo,
        Policy::Priq,
        Policy::TEdf,
        Policy::Sjf,
    ];

    /// Creates an empty queue implementing this policy's ordering.
    pub fn new_queue(&self) -> Box<dyn TaskQueue> {
        Box::new(PolicyQueue::new(*self))
    }

    /// Which deadline computation this policy expects from the query
    /// handler.
    pub fn deadline_rule(&self) -> DeadlineRule {
        match self {
            Policy::Fifo | Policy::Priq | Policy::Sjf => DeadlineRule::Unused,
            Policy::TEdf => DeadlineRule::SloOnly,
            Policy::TfEdf => DeadlineRule::SloAndFanout,
        }
    }

    /// The key a [`PolicyQueue`] ranks a task by, least first: `0` (FIFO),
    /// the class (PRIQ), the queuing deadline `t_D` (T-EDFQ, TF-EDFQ) or
    /// the size hint (SJF). Ties leave in arrival order. `deadline` is
    /// virtual time and `size_hint` a virtual-time duration (nanosecond
    /// domain).
    pub fn queue_key(&self, class: ServiceClass, deadline: SimTime, size_hint: SimDuration) -> u64 {
        match self {
            Policy::Fifo => 0,
            Policy::Priq => u64::from(class.0),
            Policy::TEdf | Policy::TfEdf => deadline.as_nanos(),
            Policy::Sjf => size_hint.as_nanos(),
        }
    }

    /// The display name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO",
            Policy::Priq => "PRIQ",
            Policy::TEdf => "T-EDFQ",
            Policy::TfEdf => "TailGuard",
            Policy::Sjf => "SJF",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a query handler should derive task queuing deadlines for a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeadlineRule {
    /// Deadlines are ignored by the queue (FIFO, PRIQ).
    Unused,
    /// `t_D = t_0 + x_p^SLO` — T-EDFQ, fanout-unaware.
    SloOnly,
    /// `t_D = t_0 + x_p^SLO − x_p^u(k_f)` — TF-EDFQ / TailGuard (Eq. 6).
    SloAndFanout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_simcore::SimTime;

    fn t(id: u64, class: u8, deadline_ms: u64) -> QueuedTask {
        QueuedTask::new(
            id,
            ServiceClass(class),
            SimTime::from_millis(deadline_ms),
            SimTime::ZERO,
        )
    }

    #[test]
    fn factory_orderings_differ_as_expected() {
        // Same three tasks pushed everywhere: class-1 early deadline,
        // class-0 late deadline, class-0 mid deadline.
        let tasks = [t(1, 1, 1), t(2, 0, 9), t(3, 0, 5)];

        let mut fifo = Policy::Fifo.new_queue();
        let mut priq = Policy::Priq.new_queue();
        let mut edf = Policy::TfEdf.new_queue();
        for q in [&mut fifo, &mut priq, &mut edf] {
            for task in &tasks {
                q.push(task.clone());
            }
        }
        let drain = |q: &mut Box<dyn TaskQueue>| -> Vec<u64> {
            std::iter::from_fn(|| q.pop().map(|x| x.task_id)).collect()
        };
        assert_eq!(drain(&mut fifo), vec![1, 2, 3]);
        assert_eq!(drain(&mut priq), vec![2, 3, 1]); // class 0 first, FIFO within
        assert_eq!(drain(&mut edf), vec![1, 3, 2]); // deadline order
    }

    #[test]
    fn deadline_rules_match_paper() {
        assert_eq!(Policy::Fifo.deadline_rule(), DeadlineRule::Unused);
        assert_eq!(Policy::Priq.deadline_rule(), DeadlineRule::Unused);
        assert_eq!(Policy::TEdf.deadline_rule(), DeadlineRule::SloOnly);
        assert_eq!(Policy::TfEdf.deadline_rule(), DeadlineRule::SloAndFanout);
    }

    #[test]
    fn names_for_figures() {
        assert_eq!(Policy::TfEdf.to_string(), "TailGuard");
        assert_eq!(Policy::TEdf.to_string(), "T-EDFQ");
        assert_eq!(Policy::ALL.len(), 4);
    }
}
