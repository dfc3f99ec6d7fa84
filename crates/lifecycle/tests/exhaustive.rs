//! Exhaustive enumeration of the lifecycle state machine (ROADMAP 4b).
//!
//! Every sequence of `{lease+mark_running, commit, fail, cancel,
//! reclaim_expired, push_duplicate, resolve, push_original}` up to
//! [`DEPTH`] operations over at most three slots, the first with at most
//! two attempts, is applied to a fresh [`TaskStateStore`] and, step by
//! step, to the reference model below. The fenced operations (`commit`,
//! `fail`, `reclaim_expired`) are tried from every state with the
//! attempt's live token, a superseded one and [`LeaseToken::NONE`], and
//! reclaim with a clock on both sides of the expiry; the operations with a
//! debug-asserted precondition (`lease`, `mark_running`, `cancel`,
//! `push_duplicate`) only where it holds. Attempts of the second and third
//! slot, which exist to make rows retire mid-sequence and to sit behind a
//! moved ring base, get the same operations with their newest token only.
//!
//! The model never retires anything: it keeps every attempt's state for
//! good and answers a late report from that. It only *predicts* which ids
//! the store has retired (terminal, slot resolved, at the front, as of the
//! last `push_original`), so that the harness can tell a live id from a
//! retired one. After every step the store must agree with the model on
//! each live attempt's state, on which ids have retired, on `len()` and on
//! every gauge and counter; every verdict of a fenced operation — on a
//! live or a retired id — must be the model's. That pins down: a single
//! active incarnation per attempt, stale tokens never commit, redelivery
//! is idempotent, `queued + leased + running + completed + failed ==
//! len()`, and retirement changes no answer — with the one divergence the
//! store documents, which the model states instead of skipping: a retired
//! id asked about a token it was never issued ([`LeaseToken::NONE`] here)
//! answers `Duplicate` and counts it, where its row said `Stale` unless
//! the attempt was cancelled. Only the store's primitive API is used.

use tailguard_lifecycle::{
    AttemptKind, AttemptState, CommitOutcome, LeaseToken, LifecycleStats, TaskStateStore,
};
use tailguard_simcore::{SimDuration, SimTime};

const DEPTH: usize = 6;
/// Every lease is taken at t = 0, so it expires at this instant.
const EXPIRY: SimTime = SimTime::from_millis(10);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `lease` at t = 0 followed by `mark_running`.
    Dispatch(u32),
    Commit(u32, LeaseToken),
    Fail(u32, LeaseToken),
    Cancel(u32),
    /// `reclaim_expired` at the given instant.
    Reclaim(u32, LeaseToken, SimTime),
    PushDuplicate,
    /// `resolve` through the given attempt.
    Resolve(u32),
    PushOriginal,
}

/// The reference model: what the description of the machine says each
/// operation does, sharing no code with the store.
#[derive(Default)]
struct Model {
    states: Vec<AttemptState>,
    /// Tokens issued per attempt, oldest first.
    issued: Vec<Vec<LeaseToken>>,
    /// The slot each attempt serves (the id of its original).
    slot_of: Vec<u32>,
    /// Resolved slots, by the id of their original.
    resolved: Vec<u32>,
    /// Ids below this are the ones the store is expected to have retired.
    first_live: u32,
    /// `Stale` and `Duplicate` verdicts handed to reports on retired ids,
    /// and how many of the latter the attempt's row would have called
    /// `Stale`.
    late: [u64; 3],
    leases: u64,
    stats: LifecycleStats,
}

impl Model {
    /// A new `Queued` attempt serving `slot` (`None`: a slot of its own).
    fn push(&mut self, slot: Option<u32>) {
        let task = self.states.len() as u32;
        self.states.push(AttemptState::Queued);
        self.issued.push(Vec::new());
        self.slot_of.push(slot.unwrap_or(task));
        self.stats.queued += 1;
    }

    fn originals(&self) -> usize {
        (0u32..).zip(&self.slot_of).filter(|(t, s)| t == *s).count()
    }

    /// What the documentation says a `push_original` retires first: from
    /// the front, every attempt that has ended and whose slot is resolved.
    fn retire(&mut self) {
        while let Some(state) = self.states.get(self.first_live as usize) {
            let ended = matches!(
                state,
                AttemptState::Completed { .. } | AttemptState::Failed { .. }
            );
            let slot = self.slot_of[self.first_live as usize];
            if !(ended && self.resolved.contains(&slot)) {
                break;
            }
            self.first_live += 1;
        }
    }

    /// The token `task` answers to right now, if it holds a lease.
    fn active(&self, task: u32) -> Option<LeaseToken> {
        match self.states[task as usize] {
            AttemptState::Leased { token, .. } | AttemptState::Running { token, .. } => Some(token),
            _ => None,
        }
    }

    /// The fencing rule shared by commit and fail: only the token of the
    /// running lease commits, the token an attempt ended under is a
    /// redelivery, anything else is stale.
    fn finish(&mut self, task: u32, token: LeaseToken, to: AttemptState) -> CommitOutcome {
        let retired = task < self.first_live;
        let state = &mut self.states[task as usize];
        let mut verdict = match *state {
            AttemptState::Running { token: t, .. } if t == token => CommitOutcome::Committed,
            AttemptState::Completed { token: t } | AttemptState::Failed { token: t }
                if t == token =>
            {
                CommitOutcome::Duplicate
            }
            _ => CommitOutcome::Stale,
        };
        // The documented divergence: past retirement the store knows the
        // tokens it reclaimed and nothing else, so a token it never issued
        // to `task` reads as a redelivery.
        if retired && !self.issued[task as usize].contains(&token) {
            self.late[2] += u64::from(verdict == CommitOutcome::Stale);
            verdict = CommitOutcome::Duplicate;
        }
        match verdict {
            CommitOutcome::Committed => {
                assert!(!retired, "a retired attempt had ended");
                self.stats.running -= 1;
                if matches!(to, AttemptState::Completed { .. }) {
                    self.stats.completed += 1;
                } else {
                    self.stats.failed += 1;
                }
                *state = to;
            }
            CommitOutcome::Stale => {
                self.stats.stale_commits_rejected += 1;
                self.late[0] += u64::from(retired);
            }
            CommitOutcome::Duplicate => {
                self.stats.duplicates_suppressed += 1;
                self.late[1] += u64::from(retired);
            }
        }
        verdict
    }

    /// The operations worth trying next. Per attempt of the first slot:
    /// the fenced ones with the null token and its two most recent ones
    /// (live or terminal, and superseded), on a live and on a retired id
    /// alike, and the others where their precondition holds. Per attempt
    /// of a later slot: the same with its newest token. Per slot,
    /// `resolve` until it is resolved, and once more on a retired id.
    fn alphabet(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (task, issued) in (0u32..).zip(&self.issued) {
            if self.states[task as usize] == AttemptState::Queued {
                ops.extend([Op::Dispatch(task), Op::Cancel(task)]);
            }
            let first_slot = self.slot_of[task as usize] == 0;
            let null = first_slot.then_some(LeaseToken::NONE);
            let recent = issued.iter().rev().take(if first_slot { 2 } else { 1 });
            for token in null.into_iter().chain(recent.copied()) {
                ops.extend([
                    Op::Commit(task, token),
                    Op::Fail(task, token),
                    Op::Reclaim(task, token, EXPIRY),
                ]);
                if first_slot {
                    ops.push(Op::Reclaim(task, token, SimTime::from_millis(9)));
                }
            }
            let own_slot = self.slot_of[task as usize] == task;
            if own_slot && (!self.resolved.contains(&task) || task + 1 == self.first_live) {
                ops.push(Op::Resolve(task));
            }
        }
        // One copy, of the first slot, while that slot may still be copied.
        if !self.slot_of[1..].contains(&0) && !self.resolved.contains(&0) {
            ops.push(Op::PushDuplicate);
        }
        if self.originals() < 3 {
            ops.push(Op::PushOriginal);
        }
        ops
    }
}

/// Applies `op` to both sides and checks that they agree on its result.
fn apply(store: &mut TaskStateStore, model: &mut Model, op: Op) {
    match op {
        Op::Dispatch(task) => {
            let token = store.lease(task, SimTime::ZERO);
            store.mark_running(task);
            model.leases += 1;
            assert_eq!(token, LeaseToken(model.leases), "tokens are monotonic");
            model.issued[task as usize].push(token);
            model.states[task as usize] = AttemptState::Running {
                token,
                expires_at: Some(EXPIRY),
            };
            model.stats.queued -= 1;
            model.stats.running += 1;
            model.stats.leases_issued += 1;
        }
        Op::Commit(task, token) => {
            let want = model.finish(task, token, AttemptState::Completed { token });
            assert_eq!(store.commit(task, token), want, "{op:?}");
        }
        Op::Fail(task, token) => {
            let want = model.finish(task, token, AttemptState::Failed { token });
            assert_eq!(store.fail(task, token), want, "{op:?}");
        }
        Op::Cancel(task) => {
            store.cancel(task);
            model.states[task as usize] = AttemptState::Failed {
                token: LeaseToken::NONE,
            };
            model.stats.queued -= 1;
            model.stats.failed += 1;
        }
        Op::Reclaim(task, token, now) => {
            let want = now >= EXPIRY && model.active(task) == Some(token);
            assert_eq!(store.reclaim_expired(task, token, now), want, "{op:?}");
            if want {
                model.states[task as usize] = AttemptState::Queued;
                model.stats.running -= 1;
                model.stats.queued += 1;
                model.stats.reclaims += 1;
            }
        }
        Op::PushDuplicate => {
            let task = store.push_duplicate(0, 1, AttemptKind::Hedge);
            assert_eq!(task as usize, model.states.len(), "ids are dense");
            model.push(Some(0));
        }
        Op::Resolve(task) => {
            store.resolve(task);
            if !model.resolved.contains(&task) {
                model.resolved.push(task);
            }
        }
        Op::PushOriginal => {
            let task = store.push_original(0, 0, SimTime::from_millis(5), None);
            assert_eq!(task as usize, model.states.len(), "ids are dense");
            model.retire();
            model.push(None);
        }
    }
}

/// The invariants, asserted directly and against the model.
fn check(store: &TaskStateStore, model: &Model, path: &[Op]) {
    let st = store.stats();
    assert_eq!(
        st.queued + st.leased + st.running + st.completed + st.failed,
        store.len() as u64,
        "every attempt is in exactly one state after {path:?}"
    );
    assert_eq!(st, &model.stats, "counters after {path:?}");
    assert_eq!(store.len(), model.states.len(), "len() counts retired ids");
    assert_eq!(
        store.first_live(),
        model.first_live,
        "retired after {path:?}"
    );
    for (task, &state) in (0u32..).zip(&model.states) {
        assert_eq!(store.is_retired(task), task < model.first_live);
        if task >= model.first_live {
            assert_eq!(store.state(task), state, "attempt {task} after {path:?}");
        }
        // Single active incarnation: the only token an attempt answers to
        // is that of its newest lease, and only while that lease is held
        // (a retired attempt ended, so the model holds none for it).
        let active = model.active(task);
        assert_eq!(store.current_token(task), active);
        assert_eq!(store.lease_expiry(task), active.map(|_| EXPIRY));
        assert!(active.is_none() || active == model.issued[task as usize].last().copied());
    }
}

fn replay(path: &[Op]) -> (TaskStateStore, Model) {
    let mut store = TaskStateStore::new(Some(SimDuration::from_millis(10)));
    let mut model = Model::default();
    store.push_original(0, 0, SimTime::from_millis(5), None);
    model.push(None);
    for &op in path {
        apply(&mut store, &mut model, op);
    }
    (store, model)
}

/// Depth-first over every sequence; the store cannot be cloned, so each
/// child replays its prefix into a fresh one. Returns the sequences
/// checked and raises `reached` to the largest counters any of them saw.
fn explore(path: &mut Vec<Op>, reached: &mut [u64; 9]) -> u64 {
    let mut checked = 0;
    for op in replay(path).1.alphabet() {
        let (mut store, mut model) = replay(path);
        apply(&mut store, &mut model, op);
        path.push(op);
        check(&store, &model, path);
        let st = store.stats();
        let seen = [
            st.completed,
            st.failed,
            st.reclaims,
            st.stale_commits_rejected,
            st.duplicates_suppressed,
            u64::from(model.first_live),
            model.late[0],
            model.late[1],
            model.late[2],
        ];
        for (most, now) in reached.iter_mut().zip(seen) {
            *most = now.max(*most);
        }
        checked += 1;
        if path.len() < DEPTH {
            checked += explore(path, reached);
        }
        path.pop();
    }
    checked
}

#[test]
fn every_sequence_keeps_the_lifecycle_invariants() {
    let mut reached = [0; 9];
    let checked = explore(&mut Vec::new(), &mut reached);
    // Fewer sequences than this means the alphabet lost a letter.
    assert!(checked >= 2_140_000, "only {checked} sequences enumerated");
    // Every kind of ending occurs somewhere in the enumeration: two
    // attempts commit, three fail, and a reclaimed lease's token is fenced.
    let [completed, failed, reclaims, stale, duplicates, retired, late_stale, late_dup, diverged] =
        reached;
    assert_eq!((completed, failed), (2, 3));
    assert!(reclaims >= 2 && stale >= 4 && duplicates >= 4);
    // So does retirement: two rows go at once, and a retired id is asked
    // about a reclaimed lease's token, about the token that ended it, and
    // about one it never held — where its row would have said otherwise.
    assert!(retired >= 2 && late_stale >= 1 && late_dup >= 2 && diverged >= 1);
}
