//! The flight-recorder event taxonomy and sink trait.
//!
//! The [`QueryHandler`](crate::QueryHandler) narrates every query and task
//! lifecycle transition as a [`TraceEvent`] into a [`TraceSink`], one
//! [`TraceSink::record`] call per event as it happens. Without a sink the
//! handler builds no event at all: untraced runs pay one predictable branch
//! per emission point, allocate nothing, and leave the golden pins
//! bit-for-bit identical.
//!
//! Events carry handler-local ids ([`QueryId`]/[`TaskId`]) and virtual
//! timestamps; both runtimes emit the same stream for the same input, which
//! is what makes recorder contents comparable across `--jobs` levels and
//! across the simulator/testbed pair. Recording sinks (ring buffers,
//! registries, exporters) live in `tailguard-obs`; this module only defines
//! the contract so the scheduling core stays dependency-free.

use crate::handler::{QueryId, TaskId};
use crate::AttemptKind;
use tailguard_lifecycle::LeaseToken;
use tailguard_simcore::{SimDuration, SimTime};

/// One scheduling-lifecycle event, emitted at the instant it happens.
///
/// All variants are `Copy` and carry no heap data: a sink that drops the
/// event costs nothing beyond the enum construction, and a ring buffer can
/// store events inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query passed admission; its tasks are about to be enqueued with
    /// the shared queuing deadline `t_D = t_0 + T_b` (Eq. 6).
    QueryAdmitted {
        /// Event time (`t_0`).
        at: SimTime,
        /// The admitted query.
        query: QueryId,
        /// Its service class.
        class: u8,
        /// Its fanout `k_f`.
        fanout: u32,
        /// The stamped queuing deadline `t_D`.
        deadline: SimTime,
    },
    /// A query was turned away by §III.C admission control.
    QueryRejected {
        /// Event time.
        at: SimTime,
        /// The rejected query's class.
        class: u8,
        /// Its fanout.
        fanout: u32,
    },
    /// A task attempt entered a server's queue (or went straight into
    /// service — a [`TraceEvent::TaskDequeued`] at the same instant
    /// follows).
    TaskEnqueued {
        /// Event time.
        at: SimTime,
        /// The attempt's task id.
        task: TaskId,
        /// The logical task (slot) this attempt serves — distinguishes
        /// hedge/retry copies of one fanout task in exported timelines.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The query's class.
        class: u8,
        /// The target server.
        server: u32,
        /// Original, hedge, or retry.
        kind: AttemptKind,
        /// The attempt's queuing deadline.
        deadline: SimTime,
    },
    /// A task attempt left its queue and entered service under a fresh
    /// lease.
    TaskDequeued {
        /// Event time.
        at: SimTime,
        /// The attempt's task id.
        task: TaskId,
        /// The logical task (slot) this attempt serves.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The query's class.
        class: u8,
        /// Original, hedge, or retry.
        kind: AttemptKind,
        /// The serving server.
        server: u32,
        /// The fencing token of the lease this dispatch runs under.
        token: LeaseToken,
        /// Queue wait (enqueue → dequeue).
        waited: SimDuration,
        /// Deadline slack at dequeue in nanoseconds: `t_D − now`, negative
        /// when the dequeue itself is the miss.
        slack_ns: i64,
    },
    /// A task missed its queuing deadline — detected at dequeue, exactly
    /// where the admission window counts it.
    DeadlineMissed {
        /// Event time (the dequeue instant).
        at: SimTime,
        /// The late attempt.
        task: TaskId,
        /// The owning query.
        query: QueryId,
        /// The serving server.
        server: u32,
        /// How far past `t_D` the dequeue happened.
        late_by: SimDuration,
    },
    /// A hedge copy was issued because the slot's remaining budget crossed
    /// the [`MitigationConfig::hedge_after`](crate::MitigationConfig)
    /// threshold. The copy's own [`TraceEvent::TaskEnqueued`] follows.
    HedgeIssued {
        /// Event time.
        at: SimTime,
        /// The hedge copy's task id.
        task: TaskId,
        /// The logical task (slot) being hedged.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The backup server chosen.
        server: u32,
    },
    /// A queued attempt was discarded at dequeue because its slot had
    /// already resolved (hedge loser, or straggler of an early-quorum
    /// query). It never entered service.
    TaskCancelled {
        /// Event time.
        at: SimTime,
        /// The discarded attempt.
        task: TaskId,
        /// The logical task (slot) the attempt served.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server whose queue it was discarded from.
        server: u32,
    },
    /// A task attempt finished service. `won` is false for losers whose
    /// slot another attempt already resolved (their result is ignored but
    /// the server's busy time stands).
    TaskCompleted {
        /// Event time.
        at: SimTime,
        /// The completed attempt.
        task: TaskId,
        /// The logical task (slot) the attempt served.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server that served it.
        server: u32,
        /// Service time actually spent.
        busy: SimDuration,
        /// Whether this completion resolved its slot.
        won: bool,
    },
    /// A task attempt in service was lost to an injected fault or worker
    /// failure (no result, no busy time learned).
    TaskLost {
        /// Event time.
        at: SimTime,
        /// The lost attempt.
        task: TaskId,
        /// The logical task (slot) the attempt served.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server it was in service at.
        server: u32,
    },
    /// An expired lease was reclaimed: the attempt's incarnation under
    /// `token` is presumed dead, the task returns to `Queued` with its
    /// *original* deadline `t_D`, and the suspected server is freed. Any
    /// later result under `token` is fenced off as stale.
    LeaseReclaimed {
        /// Event time (the reclaim check that found the lease expired).
        at: SimTime,
        /// The reclaimed attempt.
        task: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server whose lease expired.
        server: u32,
        /// The token of the expired (now fenced) lease incarnation.
        token: LeaseToken,
    },
    /// A redelivered result for an already-terminal attempt was suppressed
    /// idempotently (at-least-once delivery tolerance).
    DuplicateSuppressed {
        /// Event time.
        at: SimTime,
        /// The attempt whose result arrived again.
        task: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server that (re)delivered it.
        server: u32,
    },
    /// A result carrying a stale lease token was rejected by fencing — a
    /// zombie incarnation reported after its lease was reclaimed.
    StaleCommitRejected {
        /// Event time.
        at: SimTime,
        /// The attempt the stale result targeted.
        task: TaskId,
        /// The owning query.
        query: QueryId,
        /// The server that delivered the stale result.
        server: u32,
        /// The stale token the result carried.
        token: LeaseToken,
    },
    /// Admission flipped from admitting to rejecting (the window's miss
    /// ratio crossed the threshold).
    AdmissionPause {
        /// Event time.
        at: SimTime,
    },
    /// Admission flipped back to admitting (hysteresis recovery or window
    /// drain).
    AdmissionResume {
        /// Event time.
        at: SimTime,
    },
    /// The health tracker ejected a server: its EWMA score crossed the
    /// eject threshold and dispatch diverts around it (recovery probes
    /// excepted).
    ServerEjected {
        /// Event time (the evaluation that flipped the state).
        at: SimTime,
        /// The ejected server.
        server: u32,
    },
    /// The health tracker readmitted an ejected server after its score
    /// recovered below the readmit threshold.
    ServerReadmitted {
        /// Event time (the evaluation that flipped the state).
        at: SimTime,
        /// The readmitted server.
        server: u32,
    },
    /// A hedge or retry was denied because the class's token bucket of
    /// outstanding duplicates was empty
    /// ([`MitigationConfig::hedge_budget`](crate::MitigationConfig)).
    HedgeBudgetExhausted {
        /// Event time.
        at: SimTime,
        /// The logical task (slot) the denied copy would have served.
        slot: TaskId,
        /// The owning query.
        query: QueryId,
        /// The query's class (whose bucket was empty).
        class: u8,
    },
}

impl TraceEvent {
    /// The instant the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::QueryAdmitted { at, .. }
            | TraceEvent::QueryRejected { at, .. }
            | TraceEvent::TaskEnqueued { at, .. }
            | TraceEvent::TaskDequeued { at, .. }
            | TraceEvent::DeadlineMissed { at, .. }
            | TraceEvent::HedgeIssued { at, .. }
            | TraceEvent::TaskCancelled { at, .. }
            | TraceEvent::TaskCompleted { at, .. }
            | TraceEvent::TaskLost { at, .. }
            | TraceEvent::LeaseReclaimed { at, .. }
            | TraceEvent::DuplicateSuppressed { at, .. }
            | TraceEvent::StaleCommitRejected { at, .. }
            | TraceEvent::AdmissionPause { at }
            | TraceEvent::AdmissionResume { at }
            | TraceEvent::ServerEjected { at, .. }
            | TraceEvent::ServerReadmitted { at, .. }
            | TraceEvent::HedgeBudgetExhausted { at, .. } => at,
        }
    }

    /// The owning query, for query-scoped events.
    pub fn query(&self) -> Option<QueryId> {
        match *self {
            TraceEvent::QueryAdmitted { query, .. }
            | TraceEvent::TaskEnqueued { query, .. }
            | TraceEvent::TaskDequeued { query, .. }
            | TraceEvent::DeadlineMissed { query, .. }
            | TraceEvent::HedgeIssued { query, .. }
            | TraceEvent::TaskCancelled { query, .. }
            | TraceEvent::TaskCompleted { query, .. }
            | TraceEvent::TaskLost { query, .. }
            | TraceEvent::LeaseReclaimed { query, .. }
            | TraceEvent::DuplicateSuppressed { query, .. }
            | TraceEvent::StaleCommitRejected { query, .. }
            | TraceEvent::HedgeBudgetExhausted { query, .. } => Some(query),
            TraceEvent::QueryRejected { .. }
            | TraceEvent::AdmissionPause { .. }
            | TraceEvent::AdmissionResume { .. }
            | TraceEvent::ServerEjected { .. }
            | TraceEvent::ServerReadmitted { .. } => None,
        }
    }

    /// The event's short kind name (stable; used by exporters).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::QueryAdmitted { .. } => "query_admitted",
            TraceEvent::QueryRejected { .. } => "query_rejected",
            TraceEvent::TaskEnqueued { .. } => "task_enqueued",
            TraceEvent::TaskDequeued { .. } => "task_dequeued",
            TraceEvent::DeadlineMissed { .. } => "deadline_missed",
            TraceEvent::HedgeIssued { .. } => "hedge_issued",
            TraceEvent::TaskCancelled { .. } => "task_cancelled",
            TraceEvent::TaskCompleted { .. } => "task_completed",
            TraceEvent::TaskLost { .. } => "task_lost",
            TraceEvent::LeaseReclaimed { .. } => "lease_reclaimed",
            TraceEvent::DuplicateSuppressed { .. } => "duplicate_suppressed",
            TraceEvent::StaleCommitRejected { .. } => "stale_commit_rejected",
            TraceEvent::AdmissionPause { .. } => "admission_pause",
            TraceEvent::AdmissionResume { .. } => "admission_resume",
            TraceEvent::ServerEjected { .. } => "server_ejected",
            TraceEvent::ServerReadmitted { .. } => "server_readmitted",
            TraceEvent::HedgeBudgetExhausted { .. } => "hedge_budget_exhausted",
        }
    }
}

/// Where lifecycle events go.
///
/// Sinks receive events strictly in emission order (which, at equal
/// timestamps, is the handler's deterministic processing order), each in
/// its own [`TraceSink::record`] call before the handler call that emitted
/// it returns. A sink that wants batches keeps its own buffer. A sink must
/// not call back into the handler. Sinks are `Send` so a traced handler can
/// still move across the parallel runner's worker threads.
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);

    /// How many events a caller that replays a recorded stream may hand
    /// over per [`TraceSink::record_batch`] call. The handler never calls
    /// it; the default is 1.
    fn batch_hint(&self) -> usize {
        1
    }

    /// Records a run of events, in order. The default forwards them one by
    /// one to [`TraceSink::record`]; the handler never calls it.
    fn record_batch(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let ev = TraceEvent::TaskDequeued {
            at: SimTime::from_millis(3),
            task: 7,
            slot: 7,
            query: 2,
            class: 0,
            kind: AttemptKind::Original,
            server: 1,
            token: LeaseToken(4),
            waited: SimDuration::from_millis(1),
            slack_ns: -50,
        };
        assert_eq!(ev.at(), SimTime::from_millis(3));
        assert_eq!(ev.query(), Some(2));
        assert_eq!(ev.kind_name(), "task_dequeued");
        let pause = TraceEvent::AdmissionPause { at: SimTime::ZERO };
        assert_eq!(pause.query(), None);
        let reclaim = TraceEvent::LeaseReclaimed {
            at: SimTime::from_millis(9),
            task: 7,
            query: 2,
            server: 1,
            token: LeaseToken(4),
        };
        assert_eq!(reclaim.query(), Some(2));
        assert_eq!(reclaim.kind_name(), "lease_reclaimed");
        let ejected = TraceEvent::ServerEjected {
            at: SimTime::from_millis(5),
            server: 3,
        };
        assert_eq!(ejected.query(), None);
        assert_eq!(ejected.kind_name(), "server_ejected");
        let denied = TraceEvent::HedgeBudgetExhausted {
            at: SimTime::from_millis(6),
            slot: 7,
            query: 2,
            class: 1,
        };
        assert_eq!(denied.query(), Some(2));
        assert_eq!(denied.kind_name(), "hedge_budget_exhausted");
    }
}
