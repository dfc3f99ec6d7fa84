//! The unit of queuing: a dispatched task.

use serde::{Deserialize, Serialize};
use std::fmt;
use tailguard_simcore::{SimDuration, SimTime};

/// A service class identifier (0 = highest priority / tightest SLO).
///
/// The paper evaluates one-, two- and four-class configurations; TailGuard
/// itself "permits an unlimited number of query classes" (§I), so the class
/// is just a `u8` label rather than an enum.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ServiceClass(pub u8);

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class-{}", self.0)
    }
}

/// A task waiting in (or about to enter) a task-server queue.
///
/// Carries exactly the metadata the disciplines need: the task's identity
/// (`task_id`), the service class (PRIQ's key), the queuing deadline `t_D`
/// (the key of T-EDFQ / TF-EDFQ), the size hint (SJF's key), and the
/// enqueue timestamp (pre-dequeuing-time accounting). Ties between equal
/// keys break by insertion order inside [`crate::PolicyQueue`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedTask {
    /// Unique id of the task within a run; links the queue entry back to the
    /// simulator's task table.
    pub task_id: u64,
    /// The query's service class.
    pub class: ServiceClass,
    /// The task queuing deadline `t_D` (Eq. 6). Ignored by FIFO/PRIQ.
    pub deadline: SimTime,
    /// When the task entered the queue (`t_0` of its query, in the central
    /// queuing model).
    pub enqueued_at: SimTime,
    /// The task's (estimated) service demand — the queue key of the
    /// size-aware [`crate::Policy::Sjf`] baseline only; zero when unknown.
    pub size_hint: SimDuration,
}

impl QueuedTask {
    /// Creates a queue entry.
    /// `deadline` is virtual time (nanosecond domain).
    pub fn new(task_id: u64, class: ServiceClass, deadline: SimTime, enqueued_at: SimTime) -> Self {
        QueuedTask {
            task_id,
            class,
            deadline,
            enqueued_at,
            size_hint: SimDuration::ZERO,
        }
    }

    /// Attaches a service-demand estimate (builder-style), for size-aware
    /// disciplines.
    /// `size_hint` is a virtual-time duration (nanosecond domain).
    pub fn with_size_hint(mut self, size_hint: SimDuration) -> Self {
        self.size_hint = size_hint;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ordering() {
        assert!(ServiceClass(0) < ServiceClass(1));
        assert_eq!(ServiceClass(2).to_string(), "class-2");
    }

    #[test]
    fn task_carries_fields() {
        let t = QueuedTask::new(7, ServiceClass(1), SimTime::from_millis(3), SimTime::ZERO);
        assert_eq!(t.task_id, 7);
        assert_eq!(t.class, ServiceClass(1));
        assert_eq!(t.deadline, SimTime::from_millis(3));
    }
}
