//! The durable task-lifecycle state store shared by both runtimes.
//!
//! TailGuard's deadline math (Eq. 6 task deadlines, §III.C admission)
//! assumes every dispatched task either completes or is *observed* to fail.
//! A crashed or restarted edge node breaks that assumption: its in-flight
//! work vanishes without a loss notification, so SLO accounting and
//! conservation both silently drift. This crate supplies the production
//! lifecycle layer that closes the gap — the durable-execution model of
//! at-least-once delivery, idempotent commit, and lease fencing:
//!
//! - every task **attempt** moves through an explicit state machine
//!   ([`AttemptState`]: `Queued → Leased → Running → Completed/Failed`),
//! - each dispatch takes a monotonically increasing [`LeaseToken`] with a
//!   `lease_expires_at` instant, so exactly one attempt incarnation is
//!   active at a time,
//! - a commit ([`TaskStateStore::commit`] / [`TaskStateStore::fail`])
//!   carries the token it was dispatched under and is **fenced**: a stale
//!   incarnation's result is rejected by token mismatch, and a duplicate
//!   delivery of an already-committed result is suppressed idempotently,
//! - a lease that expires while its attempt is still active can be
//!   **reclaimed** ([`TaskStateStore::reclaim_expired`]) back to `Queued`,
//!   so the scheduler re-enqueues the task — with its *original* queuing
//!   deadline `t_D`, never a refreshed one.
//!
//! Everything here is pure bookkeeping: no clock, no RNG, no I/O. The
//! scheduling core (`tailguard-sched`) owns the store and drives every
//! transition; the discrete-event simulator and the tokio testbed only see
//! tokens and expiry instants through it, which is what makes crash
//! recovery behave identically on both runtimes.
//!
//! The store holds in-flight work only. Attempt and slot rows live in
//! [`IdRing`]s: ids stay dense and monotonic for the whole run, but a row
//! **retires** once nothing can act on it any more (see
//! [`TaskStateStore::push_original`]), so memory follows the tasks in
//! flight, not the tasks ever minted. A late event naming a retired id
//! gets the answer its row would have given.

mod ring;

pub use ring::IdRing;
use std::collections::BTreeMap;
use tailguard_simcore::{SimDuration, SimTime};

/// A fencing token for one lease of one task attempt.
///
/// Tokens are assigned monotonically from a store-wide counter: a reclaim
/// followed by a re-dispatch yields a strictly larger token, so the old
/// incarnation's commit can be recognized as stale by simple inequality.
/// [`LeaseToken::NONE`] (zero) is never issued and marks "no lease" in
/// driver-side plumbing (e.g. calibration probes that bypass the core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LeaseToken(pub u64);

impl LeaseToken {
    /// The null token: never issued by a store, compares below every real
    /// token.
    pub const NONE: LeaseToken = LeaseToken(0);
}

/// Which attempt of a logical task an issued copy is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The first copy, issued at query arrival.
    Original,
    /// A hedge copy, issued when the remaining budget crossed the
    /// mitigation layer's hedge threshold.
    Hedge,
    /// A retry copy, issued after an attempt was lost to a fault.
    Retry,
}

impl AttemptKind {
    /// Stable lowercase name (`"original"`/`"hedge"`/`"retry"`), used by
    /// trace exporters.
    pub fn name(self) -> &'static str {
        match self {
            AttemptKind::Original => "original",
            AttemptKind::Hedge => "hedge",
            AttemptKind::Retry => "retry",
        }
    }
}

/// Where one task attempt is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptState {
    /// Waiting in a server's queue (also the state a reclaimed attempt
    /// returns to).
    Queued,
    /// Dequeued and dispatched under a lease, not yet acknowledged as
    /// executing. In-process drivers transition straight on to
    /// [`AttemptState::Running`]; the distinction exists for drivers with a
    /// real dispatch/start gap.
    Leased {
        /// The fencing token this incarnation holds.
        token: LeaseToken,
        /// When the lease expires, if the store has a TTL configured.
        expires_at: Option<SimTime>,
    },
    /// Executing at its server under a lease.
    Running {
        /// The fencing token this incarnation holds.
        token: LeaseToken,
        /// When the lease expires, if the store has a TTL configured.
        expires_at: Option<SimTime>,
    },
    /// A result committed for this attempt (terminal). Remembers the
    /// winning token so late zombie results still fence as stale rather
    /// than blending into redelivery suppression.
    Completed {
        /// The token the committed result was dispatched under.
        token: LeaseToken,
    },
    /// The attempt ended without a result: lost to a fault, or cancelled
    /// at dequeue because its slot had already resolved (terminal).
    Failed {
        /// The token of the failing incarnation ([`LeaseToken::NONE`] for
        /// never-leased attempts cancelled at dequeue).
        token: LeaseToken,
    },
}

/// Verdict of a fenced commit or failure report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The token matched an active lease: the attempt transitioned to its
    /// terminal state and the caller should apply the result.
    Committed,
    /// The attempt was already terminal — an at-least-once redelivery.
    /// Suppressed idempotently; the caller must not apply the result again.
    Duplicate,
    /// The token belongs to a reclaimed (or otherwise superseded) lease
    /// incarnation: fencing rejects the result outright.
    Stale,
}

/// Immutable identity of one task attempt (who it serves and where).
#[derive(Debug, Clone, Copy)]
pub struct AttemptRecord {
    /// The owning query.
    pub query: u32,
    /// The server the attempt targets.
    pub server: u32,
    /// The logical task (slot) this attempt serves: originals point at
    /// themselves, hedge/retry copies at the original's id.
    pub slot: u32,
    /// Original, hedge, or retry.
    pub kind: AttemptKind,
}

/// Per-logical-task (slot) state: one row per original attempt, shared by
/// its hedge/retry copies. Read through [`TaskStateStore::slot`]; only the
/// store writes it.
#[derive(Debug, Clone)]
pub struct SlotRecord {
    /// The slot's id: the id of its original attempt.
    pub id: u32,
    /// A completion (or exhaustion) already resolved this slot; any other
    /// in-flight attempt is a loser to cancel at dequeue or completion.
    pub resolved: bool,
    /// Attempts issued so far (original + hedges + retries).
    pub attempts: u32,
    /// Attempts currently queued or in service.
    pub live: u32,
    /// The slot's queuing deadline `t_D` (duplicates inherit it, and a
    /// reclaim re-enqueues with it unchanged — the reclaim-preserves-`t_D`
    /// invariant).
    pub deadline: SimTime,
    /// When a hedge copy becomes due, if hedging is configured.
    pub hedge_at: Option<SimTime>,
    /// Servers already tried by duplicates (excluded from backup choice).
    pub extra_servers: Vec<u32>,
    /// The newest attempt serving this slot; the row retires after it.
    newest: u32,
}

/// What the store remembers of a lease it reclaimed, so that the zombie
/// incarnation's report is still fenced — and narrated in full — after the
/// attempt's row has retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimedLease {
    /// The attempt that held the lease.
    pub task: u32,
    /// The attempt's query.
    pub query: u32,
    /// The server the attempt targets.
    pub server: u32,
}

/// One row of the attempt table: identity, lifecycle state, and where the
/// slot it serves lives (48 bytes; the slot's id is kept once, in its row).
#[derive(Debug)]
struct Attempt {
    query: u32,
    server: u32,
    /// Id of the served slot's row in `TaskStateStore::slots`.
    slot_row: u32,
    kind: AttemptKind,
    state: AttemptState,
}

/// Lifecycle gauges and counters, accumulated by the store.
///
/// The first five fields are *current-state gauges* (they go up and down as
/// attempts move through the machine); the rest are monotonic counters.
/// Conservation: `completed + failed + queued + leased + running` always
/// equals the number of attempts created.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Attempts currently waiting in a queue.
    pub queued: u64,
    /// Attempts currently dispatched but not yet running.
    pub leased: u64,
    /// Attempts currently executing under a lease.
    pub running: u64,
    /// Attempts that committed a result (terminal).
    pub completed: u64,
    /// Attempts that ended without a result (terminal).
    pub failed: u64,
    /// Leases issued (one per dispatch, including re-dispatches after
    /// reclaim).
    pub leases_issued: u64,
    /// Expired leases reclaimed back to `Queued`.
    pub reclaims: u64,
    /// Redeliveries of already-committed results, suppressed idempotently.
    pub duplicates_suppressed: u64,
    /// Results rejected by lease-token fencing (stale incarnations).
    pub stale_commits_rejected: u64,
}

/// The per-attempt state store: attempt identities, slot bookkeeping, lease
/// issuance, and fenced commits, all under one roof.
///
/// # Example
///
/// ```
/// use tailguard_lifecycle::{CommitOutcome, TaskStateStore};
/// use tailguard_simcore::{SimDuration, SimTime};
///
/// let mut store = TaskStateStore::new(Some(SimDuration::from_millis(5)));
/// let t = store.push_original(0, 2, SimTime::from_millis(10), None);
/// let lease = store.lease(t, SimTime::ZERO);
/// store.mark_running(t);
///
/// // The node crashes; the lease expires and the task is reclaimed.
/// assert!(store.reclaim_expired(t, lease, SimTime::from_millis(5)));
/// let lease2 = store.lease(t, SimTime::from_millis(5));
/// store.mark_running(t);
///
/// // The zombie incarnation's result is fenced off...
/// assert_eq!(store.commit(t, lease), CommitOutcome::Stale);
/// // ...the live incarnation commits, and a redelivery is suppressed.
/// assert_eq!(store.commit(t, lease2), CommitOutcome::Committed);
/// assert_eq!(store.commit(t, lease2), CommitOutcome::Duplicate);
/// ```
#[derive(Debug)]
pub struct TaskStateStore {
    /// One row per attempt not yet retired, by attempt id.
    attempts: IdRing<Attempt>,
    /// One row per logical task not yet retired, in creation order (see
    /// `Attempt::slot_row`).
    slots: IdRing<SlotRecord>,
    /// Every lease ever reclaimed, by token: what fences a zombie's report
    /// once its attempt's row is gone. Never pruned — nothing tells the
    /// store that a zombie will not report any more — so it holds one entry
    /// per reclaim: it follows fault traffic, not run length.
    reclaimed: BTreeMap<LeaseToken, ReclaimedLease>,
    next_token: u64,
    lease_ttl: Option<SimDuration>,
    stats: LifecycleStats,
}

impl TaskStateStore {
    /// Creates an empty store. With `lease_ttl` set, every lease carries an
    /// expiry instant `now + ttl` the driver can schedule a reclaim check
    /// at; without one, leases never expire (the pre-recovery behaviour).
    /// `lease_ttl` is a virtual-time duration (nanosecond domain).
    pub fn new(lease_ttl: Option<SimDuration>) -> Self {
        TaskStateStore {
            attempts: IdRing::new(),
            slots: IdRing::new(),
            reclaimed: BTreeMap::new(),
            next_token: 1,
            lease_ttl,
            stats: LifecycleStats::default(),
        }
    }

    /// An empty store whose first attempt id is `base`, to reach the end of
    /// the id space in a test.
    #[cfg(test)]
    fn starting_at(base: u32) -> Self {
        TaskStateStore {
            attempts: IdRing::starting_at(base),
            ..TaskStateStore::new(None)
        }
    }

    /// Sets the lease TTL. Intended for builder-time configuration, before
    /// any lease is issued.
    /// `ttl` is a virtual-time duration (nanosecond domain).
    pub fn set_lease_ttl(&mut self, ttl: Option<SimDuration>) {
        self.lease_ttl = ttl;
    }

    /// The row of a live attempt (a slot's row outlives its attempts').
    fn row(&self, task: u32) -> &Attempt {
        self.attempts.row(task)
    }

    fn slot_mut(&mut self, task: u32) -> &mut SlotRecord {
        let row = self.row(task).slot_row;
        self.slots.row_mut(row)
    }

    /// Moves `task` to state `to`, keeping the per-state gauges exact.
    fn transition(&mut self, task: u32, to: AttemptState) {
        fn gauge<'a>(stats: &'a mut LifecycleStats, state: &AttemptState) -> &'a mut u64 {
            match state {
                AttemptState::Queued => &mut stats.queued,
                AttemptState::Leased { .. } => &mut stats.leased,
                AttemptState::Running { .. } => &mut stats.running,
                AttemptState::Completed { .. } => &mut stats.completed,
                AttemptState::Failed { .. } => &mut stats.failed,
            }
        }
        let from = std::mem::replace(&mut self.attempts.row_mut(task).state, to);
        let left = gauge(&mut self.stats, &from);
        *left = left.saturating_sub(1);
        *gauge(&mut self.stats, &to) += 1;
    }

    /// Appends a `Queued` attempt row serving the slot at `slot_row` and
    /// returns its id.
    fn push_attempt(&mut self, query: u32, server: u32, kind: AttemptKind, slot_row: u32) -> u32 {
        self.stats.queued += 1;
        self.attempts.push(Attempt {
            query,
            server,
            slot_row,
            kind,
            state: AttemptState::Queued,
        })
    }

    /// Retires the rows nothing can act on any more, oldest first: an
    /// attempt once it is terminal *and* its slot is resolved (an
    /// unresolved slot may still be copied, which reads its original's
    /// row), a slot once its newest attempt has retired. An attempt that
    /// never ends pins every row minted after it.
    // tg-lint: hot(retire)
    fn retire(&mut self) {
        while let Some(front) = self.attempts.front() {
            let ended = matches!(
                front.state,
                AttemptState::Completed { .. } | AttemptState::Failed { .. }
            );
            if !(ended && self.slots.row(front.slot_row).resolved) {
                break;
            }
            self.attempts.pop_front();
        }
        let first_live = self.attempts.base();
        while self.slots.front().is_some_and(|s| s.newest < first_live) {
            self.slots.pop_front();
        }
    }
    // tg-lint: endhot

    /// Registers a query's original attempt for one fanout task, `Queued`,
    /// with its own slot. Returns the attempt id (`== slot id`).
    ///
    /// This is also the only moment rows retire (see `retire`): no report
    /// is in flight through the handler while it admits a query, so the
    /// second delivery of one result still finds the row the first one
    /// ended.
    ///
    /// # Panics
    ///
    /// Panics with "ids exhausted" instead of wrapping at 2^32.
    /// `deadline` is virtual time (nanosecond domain).
    pub fn push_original(
        &mut self,
        query: u32,
        server: u32,
        deadline: SimTime,
        hedge_at: Option<SimTime>,
    ) -> u32 {
        self.retire();
        let task = self.push_attempt(query, server, AttemptKind::Original, self.slots.end());
        self.slots.push(SlotRecord {
            id: task,
            resolved: false,
            attempts: 1,
            live: 1,
            deadline,
            hedge_at,
            extra_servers: Vec::new(),
            newest: task,
        });
        task
    }

    /// Registers a hedge or retry copy of `slot` targeting `server`,
    /// `Queued`, bumping the slot's attempt/live counts and recording the
    /// tried server. Returns the new attempt id.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slot is unresolved and `kind` is not
    /// [`AttemptKind::Original`].
    pub fn push_duplicate(&mut self, slot: u32, server: u32, kind: AttemptKind) -> u32 {
        debug_assert_ne!(kind, AttemptKind::Original, "duplicates are not originals");
        let newest = self.attempts.end();
        let slot_state = self.slot_mut(slot);
        debug_assert!(!slot_state.resolved, "cannot duplicate a resolved slot");
        slot_state.attempts += 1;
        slot_state.live += 1;
        slot_state.extra_servers.push(server);
        slot_state.newest = newest;
        let original = self.row(slot);
        self.push_attempt(original.query, server, kind, original.slot_row)
    }

    /// Leases a `Queued` attempt for dispatch at `now`: assigns the next
    /// monotonic token and stamps `expires_at = now + ttl` when a TTL is
    /// configured.
    ///
    /// # Panics
    ///
    /// Debug-asserts the attempt is `Queued`.
    /// `now` is virtual time (nanosecond domain).
    pub fn lease(&mut self, task: u32, now: SimTime) -> LeaseToken {
        debug_assert!(
            matches!(self.row(task).state, AttemptState::Queued),
            "only queued attempts can be leased"
        );
        let token = LeaseToken(self.next_token);
        self.next_token += 1;
        let expires_at = self.lease_ttl.map(|ttl| now + ttl);
        self.transition(task, AttemptState::Leased { token, expires_at });
        self.stats.leases_issued += 1;
        token
    }

    /// Transitions a `Leased` attempt to `Running` (same token and expiry).
    ///
    /// # Panics
    ///
    /// Debug-asserts the attempt is `Leased`.
    pub fn mark_running(&mut self, task: u32) {
        let AttemptState::Leased { token, expires_at } = self.row(task).state else {
            debug_assert!(false, "only leased attempts can start running");
            return;
        };
        self.transition(task, AttemptState::Running { token, expires_at });
    }

    /// The one fenced ending: `task` moves to the terminal state `to` (and
    /// leaves its slot's live count) only when `token` is its active lease.
    ///
    /// A retired attempt was terminal, so its report is a `Stale` zombie if
    /// `token` is a lease the store reclaimed from it, and otherwise the
    /// `Duplicate` redelivery of the result that ended it. (Exact for every
    /// token the store issued to `task`; handing in any other is a caller
    /// bug, read as `Duplicate`.)
    fn finish(&mut self, task: u32, token: LeaseToken, to: AttemptState) -> CommitOutcome {
        if self.is_retired(task) {
            let zombie = self.reclaimed(token).is_some_and(|r| r.task == task);
            return if zombie {
                self.stats.stale_commits_rejected += 1;
                CommitOutcome::Stale
            } else {
                self.stats.duplicates_suppressed += 1;
                CommitOutcome::Duplicate
            };
        }
        match self.row(task).state {
            AttemptState::Running { token: t, .. } | AttemptState::Leased { token: t, .. }
                if t == token =>
            {
                self.end(task, to);
                CommitOutcome::Committed
            }
            AttemptState::Completed { token: t } | AttemptState::Failed { token: t }
                if t == token =>
            {
                self.stats.duplicates_suppressed += 1;
                CommitOutcome::Duplicate
            }
            AttemptState::Queued
            | AttemptState::Running { .. }
            | AttemptState::Leased { .. }
            | AttemptState::Completed { .. }
            | AttemptState::Failed { .. } => {
                self.stats.stale_commits_rejected += 1;
                CommitOutcome::Stale
            }
        }
    }

    /// Makes `task` terminal and takes it out of its slot's live count.
    fn end(&mut self, task: u32, to: AttemptState) {
        self.transition(task, to);
        let slot = self.slot_mut(task);
        debug_assert!(slot.live > 0, "an attempt ends at most once");
        slot.live = slot.live.saturating_sub(1);
    }

    /// Fenced commit of a result for `task` under `token`.
    ///
    /// Matching active lease → `Completed` and [`CommitOutcome::Committed`];
    /// terminal under the *same* token → [`CommitOutcome::Duplicate`]
    /// (at-least-once redelivery, suppressed idempotently); reclaimed,
    /// superseded, or terminal under a different token →
    /// [`CommitOutcome::Stale`].
    pub fn commit(&mut self, task: u32, token: LeaseToken) -> CommitOutcome {
        self.finish(task, token, AttemptState::Completed { token })
    }

    /// Fenced failure report (a loss notification) for `task` under
    /// `token`. Same fencing rules as [`TaskStateStore::commit`], with
    /// `Failed` as the terminal state.
    pub fn fail(&mut self, task: u32, token: LeaseToken) -> CommitOutcome {
        self.finish(task, token, AttemptState::Failed { token })
    }

    /// Cancels a `Queued` attempt (discarded at dequeue because its slot
    /// already resolved) — terminal `Failed` without a loss notification.
    ///
    /// # Panics
    ///
    /// Debug-asserts the attempt is `Queued`.
    pub fn cancel(&mut self, task: u32) {
        debug_assert!(
            matches!(self.row(task).state, AttemptState::Queued),
            "only queued attempts are cancelled at dequeue"
        );
        let token = LeaseToken::NONE;
        self.end(task, AttemptState::Failed { token });
    }

    /// Reclaims an expired lease: when `task` still holds an active lease
    /// under exactly `token` whose expiry has passed by `now`, it returns
    /// to `Queued` (ready for re-enqueue with its original deadline) and
    /// the reclaim is counted. Returns `false` — a fenced no-op — when the
    /// attempt already committed, failed, or was re-leased under a newer
    /// token — or has since retired.
    /// `now` is virtual time (nanosecond domain).
    pub fn reclaim_expired(&mut self, task: u32, token: LeaseToken, now: SimTime) -> bool {
        let expired = self
            .active(task)
            .is_some_and(|(t, expires_at)| t == token && expires_at.is_some_and(|at| now >= at));
        if expired {
            self.transition(task, AttemptState::Queued);
            self.stats.reclaims += 1;
            let Attempt { query, server, .. } = *self.row(task);
            let lease = ReclaimedLease {
                task,
                query,
                server,
            };
            self.reclaimed.insert(token, lease);
        }
        expired
    }

    /// The lease that was reclaimed under `token`, if any ever was.
    pub fn reclaimed(&self, token: LeaseToken) -> Option<ReclaimedLease> {
        self.reclaimed.get(&token).copied()
    }

    /// Marks the slot `task` serves resolved — by a winning completion, by
    /// exhausting every attempt, or because its query finished without it.
    /// From here on its other attempts are losers. A no-op on a retired
    /// `task`: its slot resolved before it could retire.
    pub fn resolve(&mut self, task: u32) {
        if !self.is_retired(task) {
            self.slot_mut(task).resolved = true;
        }
    }

    /// Whether `task`'s row has retired: it ended and its slot resolved,
    /// and only a late report or timer can still name it.
    pub fn is_retired(&self, task: u32) -> bool {
        task < self.attempts.base()
    }

    /// The first attempt id that has not retired: tables a driver keeps by
    /// task id can drop everything below it.
    pub fn first_live(&self) -> u32 {
        self.attempts.base()
    }

    /// The token and expiry of the lease `task` holds, if it holds one
    /// (a retired attempt holds none).
    fn active(&self, task: u32) -> Option<(LeaseToken, Option<SimTime>)> {
        if self.is_retired(task) {
            return None;
        }
        match self.row(task).state {
            AttemptState::Leased { token, expires_at }
            | AttemptState::Running { token, expires_at } => Some((token, expires_at)),
            AttemptState::Queued | AttemptState::Completed { .. } | AttemptState::Failed { .. } => {
                None
            }
        }
    }

    /// When the current lease of `task` expires, if it holds one with a
    /// TTL — the driver schedules its reclaim check here.
    pub fn lease_expiry(&self, task: u32) -> Option<SimTime> {
        self.active(task).and_then(|(_, expires_at)| expires_at)
    }

    /// The token of the attempt's current lease, if it holds one.
    pub fn current_token(&self, task: u32) -> Option<LeaseToken> {
        self.active(task).map(|(token, _)| token)
    }

    /// The attempt's current lifecycle state.
    ///
    /// # Panics
    ///
    /// Panics when `task` has retired (as do [`TaskStateStore::attempt`]
    /// and [`TaskStateStore::slot`]); see [`TaskStateStore::is_retired`].
    pub fn state(&self, task: u32) -> AttemptState {
        self.row(task).state
    }

    /// The attempt's immutable identity (query, server, slot, kind).
    pub fn attempt(&self, task: u32) -> AttemptRecord {
        let row = self.row(task);
        AttemptRecord {
            query: row.query,
            server: row.server,
            slot: self.slot(task).id,
            kind: row.kind,
        }
    }

    /// The slot `task` serves (its own for an original, the original's for
    /// a hedge or retry copy).
    pub fn slot(&self, task: u32) -> &SlotRecord {
        self.slots.row(self.row(task).slot_row)
    }

    /// Total attempts created (ids are `0..len()`, of which
    /// `first_live()..len()` still have a row).
    pub fn len(&self) -> usize {
        self.attempts.end() as usize
    }

    /// True when no attempt was created yet.
    pub fn is_empty(&self) -> bool {
        self.attempts.end() == 0
    }

    /// The accumulated lifecycle gauges and counters.
    pub fn stats(&self) -> &LifecycleStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn store(ttl: Option<u64>) -> TaskStateStore {
        TaskStateStore::new(ttl.map(dms))
    }

    #[test]
    fn tokens_are_monotonic_and_nonzero() {
        let mut s = store(None);
        let a = s.push_original(0, 0, ms(10), None);
        let b = s.push_original(0, 1, ms(10), None);
        let ta = s.lease(a, ms(0));
        let tb = s.lease(b, ms(0));
        assert!(ta > LeaseToken::NONE);
        assert!(tb > ta, "tokens grow monotonically");
        assert_eq!(s.stats().leases_issued, 2);
    }

    #[test]
    fn happy_path_counts_states() {
        let mut s = store(None);
        let t = s.push_original(3, 1, ms(10), None);
        assert_eq!(s.stats().queued, 1);
        let tok = s.lease(t, ms(0));
        assert_eq!((s.stats().queued, s.stats().leased), (0, 1));
        s.mark_running(t);
        assert_eq!((s.stats().leased, s.stats().running), (0, 1));
        assert_eq!(s.commit(t, tok), CommitOutcome::Committed);
        assert_eq!((s.stats().running, s.stats().completed), (0, 1));
        assert_eq!(s.attempt(t).query, 3);
        assert_eq!(s.state(t), AttemptState::Completed { token: tok });
    }

    #[test]
    fn duplicate_delivery_is_suppressed_idempotently() {
        let mut s = store(None);
        let t = s.push_original(0, 0, ms(10), None);
        let tok = s.lease(t, ms(0));
        s.mark_running(t);
        assert_eq!(s.commit(t, tok), CommitOutcome::Committed);
        assert_eq!(s.commit(t, tok), CommitOutcome::Duplicate);
        assert_eq!(s.fail(t, tok), CommitOutcome::Duplicate);
        assert_eq!(s.stats().duplicates_suppressed, 2);
        assert_eq!(s.stats().completed, 1, "terminal state unchanged");
    }

    #[test]
    fn stale_token_is_fenced() {
        let mut s = store(Some(5));
        let t = s.push_original(0, 0, ms(10), None);
        let old = s.lease(t, ms(0));
        s.mark_running(t);
        assert!(s.reclaim_expired(t, old, ms(5)), "lease expired at +5ms");
        let new = s.lease(t, ms(5));
        s.mark_running(t);
        // The zombie incarnation is rejected; the live one commits.
        assert_eq!(s.commit(t, old), CommitOutcome::Stale);
        assert_eq!(s.fail(t, old), CommitOutcome::Stale);
        assert_eq!(s.commit(t, new), CommitOutcome::Committed);
        assert_eq!(s.stats().stale_commits_rejected, 2);
        assert_eq!(s.stats().reclaims, 1);
    }

    #[test]
    fn reclaim_requires_expiry_and_matching_token() {
        let mut s = store(Some(5));
        let t = s.push_original(0, 0, ms(10), None);
        let tok = s.lease(t, ms(0));
        s.mark_running(t);
        assert_eq!(s.lease_expiry(t), Some(ms(5)));
        assert!(!s.reclaim_expired(t, tok, ms(4)), "not yet expired");
        assert!(
            !s.reclaim_expired(t, LeaseToken(999), ms(5)),
            "wrong token is a fenced no-op"
        );
        assert!(s.reclaim_expired(t, tok, ms(5)));
        assert!(
            !s.reclaim_expired(t, tok, ms(6)),
            "already reclaimed: queued attempts hold no lease"
        );
        assert_eq!(s.stats().reclaims, 1);
        assert_eq!(s.current_token(t), None);
    }

    #[test]
    fn without_ttl_leases_never_expire() {
        let mut s = store(None);
        let t = s.push_original(0, 0, ms(10), None);
        let tok = s.lease(t, ms(0));
        s.mark_running(t);
        assert_eq!(s.lease_expiry(t), None);
        assert!(!s.reclaim_expired(t, tok, SimTime::from_millis(1_000_000)));
    }

    #[test]
    fn commit_after_reclaim_and_reenqueue_round_trips() {
        let mut s = store(Some(2));
        let t = s.push_original(0, 0, ms(10), None);
        let t1 = s.lease(t, ms(0));
        s.mark_running(t);
        assert!(s.reclaim_expired(t, t1, ms(2)));
        // Second incarnation completes normally.
        let t2 = s.lease(t, ms(3));
        s.mark_running(t);
        assert_eq!(s.commit(t, t2), CommitOutcome::Committed);
        // The first incarnation's late result is a stale commit, and a
        // re-send of the second's is a duplicate.
        assert_eq!(s.commit(t, t1), CommitOutcome::Stale);
        assert_eq!(s.commit(t, t2), CommitOutcome::Duplicate);
        let st = s.stats();
        assert_eq!(
            (
                st.completed,
                st.reclaims,
                st.stale_commits_rejected,
                st.duplicates_suppressed
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn duplicates_track_slot_bookkeeping() {
        let mut s = store(None);
        let orig = s.push_original(7, 0, ms(10), Some(ms(5)));
        let hedge = s.push_duplicate(orig, 2, AttemptKind::Hedge);
        assert_eq!(s.attempt(hedge).slot, orig);
        assert_eq!(s.attempt(hedge).query, 7);
        assert_eq!(s.attempt(hedge).kind, AttemptKind::Hedge);
        let slot = s.slot(orig);
        assert_eq!(slot.attempts, 2);
        assert_eq!(slot.live, 2);
        assert_eq!(slot.extra_servers, vec![2]);
        assert_eq!(slot.hedge_at, Some(ms(5)));
        assert_eq!(
            s.slot(hedge).attempts,
            2,
            "a copy reads its original's slot"
        );
        assert_eq!(s.len(), 2, "no placeholder rows");
    }

    #[test]
    fn terminal_attempts_leave_the_live_count_of_their_shared_slot() {
        let mut s = store(None);
        let orig = s.push_original(0, 0, ms(10), None);
        let hedge = s.push_duplicate(orig, 1, AttemptKind::Hedge);
        let (to, th) = (s.lease(orig, ms(0)), s.lease(hedge, ms(0)));
        assert_eq!(s.commit(hedge, th), CommitOutcome::Committed);
        assert_eq!(s.slot(orig).live, 1);
        s.resolve(hedge);
        assert!(s.slot(orig).resolved, "a copy resolves its original's slot");
        assert_eq!(s.fail(orig, to), CommitOutcome::Committed);
        assert_eq!(s.slot(orig).live, 0);
        assert_eq!(s.commit(orig, to), CommitOutcome::Duplicate);
        assert_eq!(s.slot(orig).live, 0, "fenced endings leave the slot alone");
    }

    #[test]
    fn cancel_moves_queued_to_failed() {
        let mut s = store(None);
        let t = s.push_original(0, 0, ms(10), None);
        s.cancel(t);
        assert_eq!(
            s.state(t),
            AttemptState::Failed {
                token: LeaseToken::NONE
            }
        );
        assert_eq!((s.stats().queued, s.stats().failed), (0, 1));
    }

    /// Runs `task` to a committed result and resolves its slot.
    fn finish(s: &mut TaskStateStore, task: u32) -> LeaseToken {
        let tok = s.lease(task, ms(0));
        s.mark_running(task);
        assert_eq!(s.commit(task, tok), CommitOutcome::Committed);
        s.resolve(task);
        tok
    }

    #[test]
    fn rows_retire_at_the_next_mint_and_ids_stay_dense() {
        let mut s = store(None);
        let a = s.push_original(0, 0, ms(10), None);
        let b = s.push_original(0, 1, ms(10), None);
        let tok = finish(&mut s, a);
        assert!(
            !s.is_retired(a),
            "nothing retires until an original is minted"
        );
        assert_eq!(s.commit(a, tok), CommitOutcome::Duplicate);
        let c = s.push_original(1, 0, ms(10), None);
        assert_eq!((a, b, c), (0, 1, 2), "ids are never reused");
        assert!(s.is_retired(a) && !s.is_retired(b));
        assert_eq!((s.first_live(), s.len()), (1, 3));
        assert_eq!(
            s.attempt(c).slot,
            c,
            "a later slot is found past the retired one"
        );
        // b is still queued: it pins everything behind it.
        finish(&mut s, c);
        s.push_original(2, 0, ms(10), None);
        assert_eq!(s.first_live(), 1);
        finish(&mut s, b);
        s.push_original(3, 0, ms(10), None);
        assert_eq!(s.first_live(), 3);
        let st = s.stats();
        assert_eq!((st.completed, st.queued), (3, 2), "gauges outlive the rows");
    }

    #[test]
    fn a_terminal_attempt_stays_while_its_slot_may_still_be_copied() {
        let mut s = store(None);
        let a = s.push_original(4, 0, ms(10), None);
        let tok = s.lease(a, ms(0));
        assert_eq!(s.fail(a, tok), CommitOutcome::Committed);
        s.push_original(5, 1, ms(10), None);
        assert!(
            !s.is_retired(a),
            "lost, but unresolved: a retry reads its row"
        );
        let retry = s.push_duplicate(a, 2, AttemptKind::Retry);
        assert_eq!((s.attempt(retry).query, s.attempt(retry).slot), (4, a));
        // Resolved now, but the slot row outlives its newest attempt.
        s.resolve(a);
        s.push_original(6, 1, ms(10), None);
        assert!(s.is_retired(a) && !s.is_retired(retry));
        assert_eq!(s.slot(retry).extra_servers, vec![2]);
    }

    #[test]
    fn late_events_on_a_retired_id_get_the_rows_answer() {
        let mut s = store(Some(5));
        let t = s.push_original(7, 3, ms(10), None);
        let old = s.lease(t, ms(0));
        s.mark_running(t);
        assert!(s.reclaim_expired(t, old, ms(5)));
        let new = finish(&mut s, t);
        s.push_original(8, 0, ms(10), None);
        assert!(s.is_retired(t));
        // The zombie is fenced, the redelivery suppressed, the timers inert.
        assert_eq!(s.commit(t, old), CommitOutcome::Stale);
        assert_eq!(s.fail(t, old), CommitOutcome::Stale);
        assert_eq!(s.commit(t, new), CommitOutcome::Duplicate);
        assert!(!s.reclaim_expired(t, new, ms(99)));
        assert_eq!((s.current_token(t), s.lease_expiry(t)), (None, None));
        s.resolve(t);
        let st = s.stats();
        assert_eq!(
            (st.stale_commits_rejected, st.duplicates_suppressed),
            (2, 1)
        );
        assert_eq!((st.reclaims, st.completed), (1, 1));
        let lease = s.reclaimed(old).expect("kept for narration");
        assert_eq!((lease.task, lease.query, lease.server), (t, 7, 3));
        assert_eq!(s.reclaimed(new), None);
    }

    #[test]
    fn reclaimed_tokens_are_all_that_outlives_a_row_one_per_reclaim() {
        let mut s = store(Some(5));
        for query in 0..100 {
            let t = s.push_original(query, 0, ms(10), None);
            for _ in 0..2 {
                let tok = s.lease(t, ms(0));
                s.mark_running(t);
                assert!(s.reclaim_expired(t, tok, ms(5)));
            }
            finish(&mut s, t);
        }
        assert_eq!(s.len() - s.first_live() as usize, 1, "rows retire");
        // The stated limit: this table grows with the reclaims of a run.
        assert_eq!(s.stats().reclaims, 200);
        assert_eq!(s.reclaimed.len(), 200);
    }

    #[test]
    #[should_panic(expected = "ids exhausted")]
    fn attempt_ids_panic_instead_of_wrapping() {
        let mut s = TaskStateStore::starting_at(u32::MAX - 2);
        let a = s.push_original(0, 0, ms(10), None);
        finish(&mut s, a);
        let b = s.push_original(0, 0, ms(10), None);
        assert_eq!((a, b), (u32::MAX - 2, u32::MAX - 1));
        assert!(s.is_retired(a), "retirement gives no ids back");
        s.push_duplicate(b, 1, AttemptKind::Hedge);
    }

    #[test]
    fn state_conservation_holds() {
        let mut s = store(Some(3));
        let a = s.push_original(0, 0, ms(10), None);
        let b = s.push_original(0, 1, ms(10), None);
        let c = s.push_duplicate(a, 2, AttemptKind::Retry);
        let ta = s.lease(a, ms(0));
        s.mark_running(a);
        let _tb = s.lease(b, ms(0));
        s.mark_running(b);
        s.cancel(c);
        assert!(s.reclaim_expired(a, ta, ms(3)));
        let st = s.stats();
        assert_eq!(
            st.queued + st.leased + st.running + st.completed + st.failed,
            s.len() as u64,
            "every attempt is in exactly one state"
        );
    }
}
