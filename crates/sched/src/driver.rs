//! The one driver loop around the [`QueryHandler`] (Fig. 2: stamp `t_D`,
//! queue, dispatch, aggregate, admit the next query), for every runtime. A
//! [`Transport`] only carries the work; workers decide nothing.

use crate::handler::{
    AdmitDecision, DispatchedTask, QueryArrival, QueryHandler, RetryPlan, TaskCompletion, TaskId,
};
use tailguard_lifecycle::{AttemptKind, CommitOutcome, IdRing, LeaseToken};
use tailguard_simcore::{SimDuration, SimTime};

/// What became of a dispatch a [`Transport`] began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Begun {
    /// The work is under way; its result will be reported.
    Runs,
    /// The work vanished without a word: only a lease reclaim recovers it.
    Swallowed,
    /// The work was refused on the spot: the driver reports it lost.
    Dropped,
}

/// A timer the driver arms through [`Transport::arm`] and handles in
/// [`Driver::on_timer`]. The derived order puts a hedge before a lease
/// due at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    /// The hedge threshold of this original task passed.
    Hedge(TaskId),
    /// The lease (task, token) reached its TTL.
    Lease(TaskId, LeaseToken),
}

/// What a runtime supplies to a [`Driver`]: the carrying of work.
pub trait Transport {
    /// What the driver keeps per task id to begin its work (a drawn
    /// service time; a record range).
    type Row: Copy;
    /// What the driver keeps per query id and hands back from
    /// [`Driver::drain`] when it finishes.
    type Tag: Copy;

    /// Begins the work of a task the handler moved into service.
    fn begin(&mut self, now: SimTime, dispatch: DispatchedTask, row: Self::Row) -> Begun;

    /// Arms `timer` to reach [`Driver::on_timer`] at `at`.
    fn arm(&mut self, at: SimTime, timer: Timer);

    /// The row of a copy on `server` of the slot whose row is `slot`, and
    /// the copy's size hint for size-aware policies, if the runtime has a
    /// size oracle.
    fn copy(
        &mut self,
        now: SimTime,
        server: u32,
        slot: Self::Row,
    ) -> (Self::Row, Option<SimDuration>);
}

/// Follow-up work of the current event, run last-in-first-out from
/// [`Driver::steps`], each step returning before the next starts: what a
/// step causes runs before the steps queued ahead of it, the depth-first
/// order of nested calls without the nesting. Nothing a pending step names
/// can retire: a begun task is in service, a retry's slot is unresolved,
/// and a finished query's tag was copied out when it finished.
#[derive(Debug, Clone, Copy)]
enum Step<G> {
    /// Begin the work of a task the handler moved into service.
    Begin(DispatchedTask),
    /// Issue the retry the handler planned for a lost task.
    Retry(RetryPlan),
    /// A query finished: hand its tag back.
    Done(G),
}

/// The handler plus the rows, tags, work stack and timers around it.
pub struct Driver<T: Transport> {
    handler: QueryHandler,
    /// The runtime's side; the driver never looks inside.
    pub transport: T,
    /// A row per task id, in lockstep with the handler's ids and retired
    /// with [`QueryHandler::first_live_task`]. Only a dispatch or a copy
    /// reads one: a report can name a task whose row retired.
    rows: IdRing<T::Row>,
    /// A tag per query id, retired with [`QueryHandler::first_live_query`].
    tags: IdRing<T::Tag>,
    /// The current event's fallout still to run; empty between events.
    steps: Vec<Step<T::Tag>>,
    /// Dispatches of the latest admission, reused across admissions.
    started: Vec<DispatchedTask>,
}

impl<T: Transport> Driver<T> {
    /// Drives `handler` over `transport`.
    pub fn new(handler: QueryHandler, transport: T) -> Self {
        Driver {
            handler,
            transport,
            rows: IdRing::new(),
            tags: IdRing::new(),
            steps: Vec::new(),
            started: Vec::new(),
        }
    }

    /// The scheduling core, for its live measurements.
    pub fn handler(&self) -> &QueryHandler {
        &self.handler
    }

    /// Task rows held: from the oldest unretired task on, so the work in
    /// flight rather than the length of the run.
    pub fn rows_held(&self) -> u32 {
        self.rows.end().saturating_sub(self.rows.base())
    }

    /// Ends the run, returning the handler.
    pub fn into_handler(self) -> QueryHandler {
        self.handler
    }

    /// Presents a query arrival with one row per target, keeping `tag` for
    /// when it finishes. On admission the retired rows drop, hedge checks
    /// are armed, and the started tasks begin, in start order, at the next
    /// [`Driver::drain`]. `now` is virtual time (nanosecond domain).
    pub fn admit(&mut self, now: SimTime, arrival: QueryArrival<'_>, rows: &[T::Row], tag: T::Tag) {
        let AdmitDecision::Admitted { query } =
            self.handler
                .on_query_arrival(now, arrival, &mut self.started)
        else {
            return;
        };
        // Admission is when the handler retires rows, so it is when the
        // driver's follow.
        self.rows.retire_to(self.handler.first_live_task());
        self.tags.retire_to(self.handler.first_live_query());
        for &row in rows {
            self.rows.push(row);
        }
        let minted = self.tags.push(tag);
        debug_assert_eq!(minted, query);
        // Deadline-aware hedging: a check at each original task's hedge
        // threshold, armed before the dispatches begin.
        for (task, due) in self.handler.hedge_checks(query) {
            self.transport.arm(due, Timer::Hedge(task));
        }
        // Reversed, so the first task started begins first.
        self.steps
            .extend(self.started.iter().rev().map(|&d| Step::Begin(d)));
    }

    /// Reports that `task`'s work under `token` finished after `busy` of
    /// service (lost: `None`) and queues the fallout. The runtime discards
    /// the payload of any report but a [`CommitOutcome::Committed`] one.
    /// `now` is virtual time (nanosecond domain).
    pub fn report(
        &mut self,
        now: SimTime,
        task: TaskId,
        token: LeaseToken,
        busy: Option<SimDuration>,
    ) -> CommitOutcome {
        let ended = match busy {
            Some(busy) => self.handler.on_task_complete(now, task, token, busy),
            None => self.handler.on_task_lost(now, task, token),
        };
        self.apply(ended);
        ended.commit
    }

    /// Handles a timer the driver armed; `true` when it issued a hedge copy
    /// or reclaimed a lease. `now` is virtual time (nanosecond domain).
    pub fn on_timer(&mut self, now: SimTime, timer: Timer) -> bool {
        match timer {
            // Unless its slot resolved, hit its attempt cap or ran out of
            // budget, hedge it on the least-loaded backup.
            Timer::Hedge(task) => match self.handler.copy_target(now, task) {
                Some(server) => self.issue_copy(now, task, server, AttemptKind::Hedge),
                None => return false,
            },
            // If that lease is still the active one, the attempt begins
            // again with its *original* deadline and the suspected
            // server's next task dispatches; otherwise (the work committed
            // first) this is a no-op.
            Timer::Lease(task, token) => match self.handler.on_lease_expired(now, task, token) {
                Some(next) => self.steps.extend(next.map(Step::Begin)),
                None => return false,
            },
        }
        true
    }

    // tg-lint: hot(event-loop)
    /// Runs the queued fallout until it settles (`None`) or a query
    /// finishes (its tag, for the runtime to act on before calling again).
    /// `now` is virtual time (nanosecond domain).
    pub fn drain(&mut self, now: SimTime) -> Option<T::Tag> {
        while let Some(step) = self.steps.pop() {
            match step {
                Step::Begin(d) => self.begin(now, d),
                Step::Retry(r) => self.issue_copy(now, r.slot, r.server, AttemptKind::Retry),
                Step::Done(tag) => return Some(tag),
            }
        }
        None
    }

    /// Queues the fallout of an attempt ending, to run in this order: the
    /// freed server's next task begins first (work conservation: *before*
    /// any successor query is issued, so a chained query cannot jump the
    /// queue or double-start the server), then the retry the handler
    /// planned for a lost task, then the finished query is handed back.
    /// Its tag is copied out now, because a later admission may retire it.
    fn apply(&mut self, ended: TaskCompletion) {
        if let Some(done) = ended.done {
            self.steps.push(Step::Done(*self.tags.row(done.query)));
        }
        self.steps.extend(ended.retry.map(Step::Retry));
        self.steps.extend(ended.next.map(Step::Begin));
    }

    /// Begins a dispatch. The lease timer is armed first: for work a
    /// crashed node swallows it is the only way back.
    fn begin(&mut self, now: SimTime, d: DispatchedTask) {
        if let Some(expiry) = d.lease_expires_at {
            self.transport.arm(expiry, Timer::Lease(d.task, d.lease));
        }
        if self.transport.begin(now, d, *self.rows.row(d.task)) == Begun::Dropped {
            self.report(now, d.task, d.lease, None);
        }
    }

    /// Issues a hedge or retry copy of `slot` on `server`.
    fn issue_copy(&mut self, now: SimTime, slot: TaskId, server: u32, kind: AttemptKind) {
        let (row, size) = self.transport.copy(now, server, *self.rows.row(slot));
        let (task, dispatched) = self.handler.issue_duplicate(now, slot, server, size, kind);
        let minted = self.rows.push(row);
        debug_assert_eq!(minted, task);
        self.steps.extend(dispatched.map(Step::Begin));
    }
    // tg-lint: endhot
}
