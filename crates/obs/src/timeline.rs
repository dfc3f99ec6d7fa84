//! Per-query timeline reconstruction from a trace-event stream.
//!
//! The flight recorder stores flat lifecycle events; this module folds
//! them back into one [`QueryTimeline`] per query — every attempt's
//! enqueue → dequeue → completion (or cancellation/loss), hedges and
//! retries included — which is what the `tailguard trace` CLI renders and
//! what the acceptance test checks for completeness.

use std::collections::BTreeMap;
use tailguard_dist::LogHistogram;
use tailguard_sched::{AttemptKind, QueryId, TaskId, TraceEvent};
use tailguard_simcore::{SimDuration, SimTime};

/// The reconstructed life of one task attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// The attempt's task id.
    pub task: TaskId,
    /// The logical slot (the original attempt's task id) this attempt
    /// serves — hedges/retries of one slot share it, so the attempts of a
    /// query are distinguishable *and* groupable.
    pub slot: TaskId,
    /// Its target server.
    pub server: u32,
    /// Original, hedge, or retry.
    pub kind: AttemptKind,
    /// How many times an expired lease bounced this attempt back into its
    /// queue (0 for the common case).
    pub reclaims: u64,
    /// When it entered its server's queue.
    pub enqueued_at: SimTime,
    /// Its queuing deadline `t_D`.
    pub deadline: SimTime,
    /// When it entered service, if it ever did.
    pub dequeued_at: Option<SimTime>,
    /// Queue wait (enqueue → dequeue).
    pub waited: Option<SimDuration>,
    /// Signed deadline slack at dequeue (ns).
    pub slack_ns: Option<i64>,
    /// Whether the dequeue was a detected deadline miss.
    pub missed_deadline: bool,
    /// When it finished service.
    pub completed_at: Option<SimTime>,
    /// Service time spent on it.
    pub busy: Option<SimDuration>,
    /// Whether its completion resolved the slot (false for hedge losers).
    pub won: bool,
    /// When it was discarded at dequeue (slot already resolved).
    pub cancelled_at: Option<SimTime>,
    /// When it was lost to a fault.
    pub lost_at: Option<SimTime>,
}

impl AttemptRecord {
    /// Whether the attempt reached a terminal state (completed, cancelled,
    /// or lost) — i.e. its timeline is closed, not truncated.
    pub fn is_terminal(&self) -> bool {
        self.completed_at.is_some() || self.cancelled_at.is_some() || self.lost_at.is_some()
    }
}

/// The reconstructed life of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTimeline {
    /// The query id.
    pub query: QueryId,
    /// Its service class.
    pub class: u8,
    /// Its fanout `k_f`.
    pub fanout: u32,
    /// Admission time `t_0`.
    pub admitted_at: SimTime,
    /// The stamped queuing deadline `t_D`.
    pub deadline: SimTime,
    /// Every attempt issued for it, in task-id order (originals first,
    /// then hedges/retries as they were issued).
    pub attempts: Vec<AttemptRecord>,
    /// Hedges/retries this query was denied because its class's
    /// token bucket was empty (`TraceEvent::HedgeBudgetExhausted`).
    pub budget_denials: u64,
}

impl QueryTimeline {
    /// When the query finished: the latest winning completion (partial
    /// quorums complete at their last counted win). `None` when no attempt
    /// won — the query failed or the recording was truncated.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.attempts
            .iter()
            .filter(|a| a.won)
            .filter_map(|a| a.completed_at)
            .max()
    }

    /// Arrival-to-completion latency, when the query completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed_at()
            .map(|done| done.saturating_since(self.admitted_at))
    }

    /// Whether every attempt reached a terminal state — a complete
    /// timeline, as opposed to one truncated by the ring bound.
    pub fn is_complete(&self) -> bool {
        !self.attempts.is_empty() && self.attempts.iter().all(AttemptRecord::is_terminal)
    }

    /// Hedge/retry copies issued for this query.
    pub fn duplicate_attempts(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.kind != AttemptKind::Original)
            .count()
    }

    /// Where original attempt `task` sits without a scan: a query's
    /// originals are minted consecutively and enqueued at admission, so
    /// task `t` is at `t − attempts[0].task`. `None` when the attempt is
    /// not there — hedges and retries, minted later, usually are not, nor
    /// is anything a hand-built stream put elsewhere — and the caller
    /// scans instead.
    fn original_index(&self, task: TaskId) -> Option<usize> {
        let i = task.checked_sub(self.attempts.first()?.task)? as usize;
        self.attempts.get(i).filter(|a| a.task == task).map(|_| i)
    }

    /// The attempt with task id `task`: at its original's offset, else
    /// found by a scan.
    fn attempt_mut(&mut self, task: TaskId) -> Option<&mut AttemptRecord> {
        let i = self
            .original_index(task)
            .or_else(|| self.attempts.iter().position(|a| a.task == task))?;
        self.attempts.get_mut(i)
    }
}

/// Folds an event stream into per-query timelines, keyed by query id.
///
/// Events for queries whose `QueryAdmitted` was evicted from the ring are
/// dropped (a timeline without its head cannot be anchored); the caller
/// can compare against [`BinaryRecorder::dropped`](crate::BinaryRecorder)
/// to know whether that happened. A later `QueryAdmitted` for an id
/// already seen (two recordings concatenated) replaces its timeline.
///
/// One pass. Query ids are minted densely in admission order, so a
/// timeline is found at its id's offset from the first admitted id seen
/// (see `TimelineIndex`), and an original attempt at its task's offset
/// from the query's first attempt. Only hedges and retries, and a new
/// attempt's first enqueue (which must be told from a reclaim's
/// re-enqueue), scan the query's attempts.
pub fn build_timelines(events: &[TraceEvent]) -> BTreeMap<QueryId, QueryTimeline> {
    let mut index = TimelineIndex::default();
    for ev in events {
        match *ev {
            TraceEvent::QueryAdmitted {
                at,
                query,
                class,
                fanout,
                deadline,
            } => {
                index.insert(QueryTimeline {
                    query,
                    class,
                    fanout,
                    admitted_at: at,
                    deadline,
                    attempts: Vec::with_capacity(fanout as usize),
                    budget_denials: 0,
                });
            }
            TraceEvent::TaskEnqueued {
                at,
                task,
                slot,
                query,
                class: _,
                server,
                kind,
                deadline,
            } => {
                let Some(tl) = index.get_mut(query) else {
                    continue;
                };
                // A second enqueue of a known task is a lease reclaim
                // bouncing the attempt back into its queue: reopen the
                // existing record instead of inventing a new attempt.
                if let Some(a) = tl.attempt_mut(task) {
                    a.enqueued_at = at;
                    a.dequeued_at = None;
                    a.waited = None;
                    a.slack_ns = None;
                    continue;
                }
                tl.attempts.push(AttemptRecord {
                    task,
                    slot,
                    server,
                    kind,
                    reclaims: 0,
                    enqueued_at: at,
                    deadline,
                    dequeued_at: None,
                    waited: None,
                    slack_ns: None,
                    missed_deadline: false,
                    completed_at: None,
                    busy: None,
                    won: false,
                    cancelled_at: None,
                    lost_at: None,
                });
            }
            TraceEvent::TaskDequeued {
                at,
                task,
                query,
                waited,
                slack_ns,
                ..
            } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.dequeued_at = Some(at);
                    a.waited = Some(waited);
                    a.slack_ns = Some(slack_ns);
                }
            }
            TraceEvent::DeadlineMissed { task, query, .. } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.missed_deadline = true;
                }
            }
            TraceEvent::TaskCompleted {
                at,
                task,
                query,
                busy,
                won,
                ..
            } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.completed_at = Some(at);
                    a.busy = Some(busy);
                    a.won = won;
                }
            }
            TraceEvent::TaskCancelled {
                at, task, query, ..
            } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.cancelled_at = Some(at);
                }
            }
            TraceEvent::TaskLost {
                at, task, query, ..
            } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.lost_at = Some(at);
                }
            }
            TraceEvent::LeaseReclaimed { task, query, .. } => {
                if let Some(a) = index.attempt_mut(query, task) {
                    a.reclaims += 1;
                }
            }
            TraceEvent::HedgeBudgetExhausted { query, .. } => {
                if let Some(tl) = index.get_mut(query) {
                    tl.budget_denials += 1;
                }
            }
            TraceEvent::HedgeIssued { .. }
            | TraceEvent::QueryRejected { .. }
            | TraceEvent::AdmissionPause { .. }
            | TraceEvent::AdmissionResume { .. }
            | TraceEvent::DuplicateSuppressed { .. }
            | TraceEvent::StaleCommitRejected { .. }
            | TraceEvent::ServerEjected { .. }
            | TraceEvent::ServerReadmitted { .. } => {}
        }
    }
    index.into_map()
}

/// The timelines under construction, keyed by query id.
///
/// `dense[i]` holds query `base + i`: admissions that continue the run
/// (`query − base == dense.len()`) append, admissions of an id already
/// in that range replace in place. Everything else — ids below `base` or
/// past a gap, which a sampled recording produces (each kept query's
/// bundle released at its completion, healthy ones thinned out) — lives
/// in `sparse`. An id is in exactly one of the two.
#[derive(Default)]
struct TimelineIndex {
    /// The first admitted id seen; `None` before any admission.
    base: Option<QueryId>,
    dense: Vec<QueryTimeline>,
    sparse: BTreeMap<QueryId, QueryTimeline>,
}

impl TimelineIndex {
    /// `query`'s offset into `dense`, whether or not it is in range.
    fn offset(&self, query: QueryId) -> Option<usize> {
        query.checked_sub(self.base?).map(|off| off as usize)
    }

    fn insert(&mut self, tl: QueryTimeline) {
        let query = tl.query;
        self.base.get_or_insert(query);
        if self.offset(query) == Some(self.dense.len()) {
            self.sparse.remove(&query);
            self.dense.push(tl);
        } else if let Some(slot) = self.get_mut(query) {
            *slot = tl;
        } else {
            self.sparse.insert(query, tl);
        }
    }

    fn get_mut(&mut self, query: QueryId) -> Option<&mut QueryTimeline> {
        match self.offset(query) {
            Some(off) if off < self.dense.len() => self.dense.get_mut(off),
            _ => self.sparse.get_mut(&query),
        }
    }

    fn attempt_mut(&mut self, query: QueryId, task: TaskId) -> Option<&mut AttemptRecord> {
        self.get_mut(query)?.attempt_mut(task)
    }

    fn into_map(self) -> BTreeMap<QueryId, QueryTimeline> {
        // Both halves iterate in id order and share no key, so the
        // collect's sort sees two sorted runs.
        self.sparse
            .into_iter()
            .chain(self.dense.into_iter().map(|tl| (tl.query, tl)))
            .collect()
    }
}

/// One health-tracker ejection-state flip pulled from an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTransition {
    /// When the flip happened.
    pub at: SimTime,
    /// The server whose state flipped.
    pub server: u32,
    /// `true` for an ejection, `false` for a readmission.
    pub ejected: bool,
}

/// Extracts the server ejection/readmission flips from an event stream, in
/// emission order — the cluster-level counterpart to the per-query
/// timelines (`tailguard trace` renders them as a cluster-events section).
pub fn server_transitions(events: &[TraceEvent]) -> Vec<ServerTransition> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::ServerEjected { at, server } => Some(ServerTransition {
                at,
                server,
                ejected: true,
            }),
            TraceEvent::ServerReadmitted { at, server } => Some(ServerTransition {
                at,
                server,
                ejected: false,
            }),
            _ => None,
        })
        .collect()
}

/// The `k` slowest completed queries, highest latency first (ties broken
/// by query id for determinism).
pub fn slowest_queries(
    timelines: &BTreeMap<QueryId, QueryTimeline>,
    k: usize,
) -> Vec<&QueryTimeline> {
    let mut done: Vec<(&QueryTimeline, SimDuration)> = timelines
        .values()
        .filter_map(|tl| tl.latency().map(|l| (tl, l)))
        .collect();
    done.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.query.cmp(&b.0.query)));
    done.into_iter().take(k).map(|(tl, _)| tl).collect()
}

/// Dequeue-slack accounting for one group of tasks.
#[derive(Debug, Default)]
pub struct SlackStats {
    /// Dequeues observed.
    pub dequeues: u64,
    /// Of which deadline misses (negative slack).
    pub misses: u64,
    /// Histogram of non-negative slack (ms).
    pub slack: LogHistogram,
    /// Histogram of |slack| for late dequeues (ms).
    pub lateness: LogHistogram,
}

impl SlackStats {
    fn record(&mut self, slack_ns: i64) {
        self.dequeues += 1;
        let ms = slack_ns.unsigned_abs() as f64 / 1e6;
        if slack_ns < 0 {
            self.misses += 1;
            self.lateness.record(ms);
        } else {
            self.slack.record(ms);
        }
    }

    /// Miss fraction among these dequeues.
    pub fn miss_ratio(&self) -> f64 {
        if self.dequeues == 0 {
            0.0
        } else {
            self.misses as f64 / self.dequeues as f64
        }
    }
}

/// Dequeue slack grouped by `(class, fanout)` query type, via timelines
/// (the dequeue event itself does not carry fanout).
pub fn slack_by_type(
    timelines: &BTreeMap<QueryId, QueryTimeline>,
) -> BTreeMap<(u8, u32), SlackStats> {
    let mut by_type: BTreeMap<(u8, u32), SlackStats> = BTreeMap::new();
    for tl in timelines.values() {
        let stats = by_type.entry((tl.class, tl.fanout)).or_default();
        for a in &tl.attempts {
            if let Some(slack_ns) = a.slack_ns {
                stats.record(slack_ns);
            }
        }
    }
    by_type
}

/// One bin of the miss-ratio timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissBin {
    /// Bin start time.
    pub start: SimTime,
    /// Task dequeues in the bin.
    pub dequeues: u64,
    /// Of which deadline misses.
    pub misses: u64,
}

impl MissBin {
    /// Miss fraction within the bin.
    pub fn ratio(&self) -> f64 {
        if self.dequeues == 0 {
            0.0
        } else {
            self.misses as f64 / self.dequeues as f64
        }
    }
}

/// Buckets dequeues into fixed `bin`-wide windows — the miss-ratio
/// timeline §III.C admission reacts to, reconstructed after the fact.
/// Empty leading/intermediate bins are retained so the timeline is evenly
/// spaced.
///
/// # Panics
///
/// Panics when `bin` is zero.
/// `bin` is a virtual-time duration (nanosecond domain).
#[expect(
    clippy::cast_possible_truncation,
    reason = "usize is 64 bits on every supported target (x86-64, aarch64), so the u64 bin index converts losslessly"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`bin` is asserted non-zero above and the `while` loop extends `bins` past `idx` before indexing"
)]
#[expect(
    clippy::integer_division_remainder_used,
    reason = "`bin` is asserted non-zero above and the `while` loop extends `bins` past `idx` before indexing"
)]
pub fn miss_ratio_timeline(events: &[TraceEvent], bin: SimDuration) -> Vec<MissBin> {
    assert!(!bin.is_zero(), "miss-ratio bin must be positive");
    let mut bins: Vec<MissBin> = Vec::new();
    for ev in events {
        if let TraceEvent::TaskDequeued { at, slack_ns, .. } = *ev {
            let idx = (at.as_nanos() / bin.as_nanos()) as usize;
            while bins.len() <= idx {
                let start = SimTime::from_nanos(bins.len() as u64 * bin.as_nanos());
                bins.push(MissBin {
                    start,
                    dequeues: 0,
                    misses: 0,
                });
            }
            bins[idx].dequeues += 1;
            if slack_ns < 0 {
                bins[idx].misses += 1;
            }
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let ms = SimDuration::from_millis;
        let t = SimTime::from_millis;
        vec![
            TraceEvent::QueryAdmitted {
                at: t(0),
                query: 0,
                class: 0,
                fanout: 1,
                deadline: t(5),
            },
            TraceEvent::TaskEnqueued {
                at: t(0),
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline: t(5),
            },
            TraceEvent::TaskDequeued {
                at: t(1),
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                kind: AttemptKind::Original,
                server: 0,
                token: tailguard_sched::LeaseToken(1),
                waited: ms(1),
                slack_ns: 4_000_000,
            },
            TraceEvent::HedgeIssued {
                at: t(2),
                task: 1,
                slot: 0,
                query: 0,
                server: 1,
            },
            TraceEvent::TaskEnqueued {
                at: t(2),
                task: 1,
                slot: 0,
                query: 0,
                class: 0,
                server: 1,
                kind: AttemptKind::Hedge,
                deadline: t(5),
            },
            TraceEvent::TaskCompleted {
                at: t(3),
                task: 0,
                slot: 0,
                query: 0,
                server: 0,
                busy: ms(2),
                won: true,
            },
            TraceEvent::TaskCancelled {
                at: t(3),
                task: 1,
                slot: 0,
                query: 0,
                server: 1,
            },
        ]
    }

    #[test]
    fn timelines_are_complete_and_latency_matches() {
        let timelines = build_timelines(&sample_events());
        let tl = &timelines[&0];
        assert_eq!(tl.attempts.len(), 2, "original + hedge");
        assert!(tl.is_complete());
        assert_eq!(tl.latency(), Some(SimDuration::from_millis(3)));
        assert_eq!(tl.duplicate_attempts(), 1);
        let hedge = &tl.attempts[1];
        assert_eq!(hedge.kind, AttemptKind::Hedge);
        assert!(hedge.cancelled_at.is_some());
        assert!(!hedge.won);
    }

    #[test]
    fn reclaim_reopens_the_attempt_instead_of_duplicating_it() {
        let ms = SimDuration::from_millis;
        let t = SimTime::from_millis;
        let mut events = sample_events();
        // The winning completion at t=3 is replaced by a crash story: the
        // lease expires, the attempt is re-enqueued, re-dequeued, and only
        // then completes.
        events.truncate(5);
        events.extend([
            TraceEvent::LeaseReclaimed {
                at: t(4),
                task: 0,
                query: 0,
                server: 0,
                token: tailguard_sched::LeaseToken(1),
            },
            TraceEvent::TaskEnqueued {
                at: t(4),
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline: t(5),
            },
            TraceEvent::TaskDequeued {
                at: t(5),
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                kind: AttemptKind::Original,
                server: 0,
                token: tailguard_sched::LeaseToken(2),
                waited: ms(1),
                slack_ns: 0,
            },
            TraceEvent::TaskCompleted {
                at: t(6),
                task: 0,
                slot: 0,
                query: 0,
                server: 0,
                busy: ms(1),
                won: true,
            },
            TraceEvent::TaskCancelled {
                at: t(6),
                task: 1,
                slot: 0,
                query: 0,
                server: 1,
            },
        ]);
        let timelines = build_timelines(&events);
        let tl = &timelines[&0];
        assert_eq!(
            tl.attempts.len(),
            2,
            "reclaim must not mint a third attempt"
        );
        let original = &tl.attempts[0];
        assert_eq!(original.reclaims, 1);
        assert_eq!(original.enqueued_at, t(4), "reopened at the reclaim");
        assert_eq!(original.completed_at, Some(t(6)));
        assert!(tl.is_complete());
        assert_eq!(tl.latency(), Some(ms(6)));
    }

    #[test]
    fn originals_are_found_at_their_offset_and_copies_by_scan() {
        let t = SimTime::from_millis;
        let enqueued = |task, slot, kind| TraceEvent::TaskEnqueued {
            at: t(0),
            task,
            slot,
            query: 4,
            class: 0,
            server: task,
            kind,
            deadline: t(5),
        };
        let mut events = vec![TraceEvent::QueryAdmitted {
            at: t(0),
            query: 4,
            class: 0,
            fanout: 3,
            deadline: t(5),
        }];
        events.extend((10..13).map(|task| enqueued(task, task, AttemptKind::Original)));
        events.push(enqueued(40, 11, AttemptKind::Hedge));
        let mut tl = build_timelines(&events).remove(&4).expect("admitted");
        assert_eq!(tl.original_index(10), Some(0));
        assert_eq!(tl.original_index(12), Some(2));
        assert_eq!(tl.original_index(9), None, "below the first original");
        assert_eq!(
            tl.original_index(40),
            None,
            "the hedge is past the originals"
        );
        let hedge = tl.attempt_mut(40).expect("found by the scan");
        assert_eq!((hedge.kind, hedge.slot), (AttemptKind::Hedge, 11));
    }

    #[test]
    fn slack_groupings_and_miss_timeline() {
        let events = sample_events();
        let timelines = build_timelines(&events);
        let by_type = slack_by_type(&timelines);
        assert_eq!(by_type[&(0, 1)].dequeues, 1);
        assert_eq!(by_type[&(0, 1)].misses, 0);
        let bins = miss_ratio_timeline(&events, SimDuration::from_millis(1));
        assert_eq!(bins.len(), 2, "dequeue at 1ms lands in the second bin");
        assert_eq!(bins[1].dequeues, 1);
        assert_eq!(bins[1].ratio(), 0.0);
    }

    #[test]
    fn slowest_queries_orders_by_latency() {
        let mut events = sample_events();
        // A second, slower query.
        let t = SimTime::from_millis;
        events.extend([
            TraceEvent::QueryAdmitted {
                at: t(0),
                query: 1,
                class: 0,
                fanout: 1,
                deadline: t(5),
            },
            TraceEvent::TaskEnqueued {
                at: t(0),
                task: 2,
                slot: 2,
                query: 1,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline: t(5),
            },
            TraceEvent::TaskCompleted {
                at: t(9),
                task: 2,
                slot: 2,
                query: 1,
                server: 0,
                busy: SimDuration::from_millis(9),
                won: true,
            },
        ]);
        let timelines = build_timelines(&events);
        let top = slowest_queries(&timelines, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].query, 1);
    }

    #[test]
    fn budget_denials_count_and_cluster_events_surface_as_transitions() {
        let t = SimTime::from_millis;
        let mut events = sample_events();
        events.extend([
            TraceEvent::HedgeBudgetExhausted {
                at: t(2),
                slot: 0,
                query: 0,
                class: 0,
            },
            TraceEvent::HedgeBudgetExhausted {
                at: t(3),
                slot: 0,
                query: 0,
                class: 0,
            },
            TraceEvent::ServerEjected {
                at: t(1),
                server: 7,
            },
            TraceEvent::ServerReadmitted {
                at: t(4),
                server: 7,
            },
        ]);
        let timelines = build_timelines(&events);
        assert_eq!(timelines[&0].budget_denials, 2);
        let transitions = server_transitions(&events);
        assert_eq!(transitions.len(), 2);
        assert!(transitions[0].ejected && transitions[0].server == 7);
        assert!(!transitions[1].ejected && transitions[1].at == t(4));
    }
}
