//! Exhaustive enumeration of the lifecycle state machine (ROADMAP 4b).
//!
//! Every sequence of `{lease+mark_running, commit, fail, cancel,
//! reclaim_expired, push_duplicate}` up to [`DEPTH`] operations over one
//! slot with at most two attempts is applied to a fresh
//! [`TaskStateStore`] and, step by step, to the reference model below.
//! The fenced operations (`commit`, `fail`, `reclaim_expired`) are tried
//! from every state with the attempt's live token, a superseded one and
//! [`LeaseToken::NONE`], and reclaim with a clock on both sides of the
//! expiry; the operations with a debug-asserted precondition (`lease`,
//! `mark_running`, `cancel`, `push_duplicate`) only where it holds.
//!
//! After every step the store must agree with the model on each attempt's
//! state and on every gauge and counter, which pins down: a single active
//! incarnation per attempt, stale tokens never commit, redelivery is
//! idempotent, and `queued + leased + running + completed + failed ==
//! len()`. Only the store's primitive API is used.

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
}

/// The reference model: what the description of the machine says each
/// operation does, sharing no code with the store.
#[derive(Default)]
struct Model {
    states: Vec<AttemptState>,
    /// Tokens issued per attempt, oldest first.
    issued: Vec<Vec<LeaseToken>>,
    leases: u64,
    stats: LifecycleStats,
}

impl Model {
    fn push(&mut self) {
        self.states.push(AttemptState::Queued);
        self.issued.push(Vec::new());
        self.stats.queued += 1;
    }

    /// The token `task` answers to right now, if it holds a lease.
    fn active(&self, task: u32) -> Option<LeaseToken> {
        match self.states[task as usize] {
            AttemptState::Leased { token, .. } | AttemptState::Running { token, .. } => Some(token),
            _ => None,
        }
    }

    /// The fencing rule shared by commit and fail.
    fn finish(&mut self, task: u32, token: LeaseToken, to: AttemptState) -> CommitOutcome {
        let state = &mut self.states[task as usize];
        match *state {
            AttemptState::Running { token: t, .. } if t == token => {
                self.stats.running -= 1;
                if matches!(to, AttemptState::Completed { .. }) {
                    self.stats.completed += 1;
                } else {
                    self.stats.failed += 1;
                }
                *state = to;
                CommitOutcome::Committed
            }
            AttemptState::Completed { token: t } | AttemptState::Failed { token: t }
                if t == token =>
            {
                self.stats.duplicates_suppressed += 1;
                CommitOutcome::Duplicate
            }
            _ => {
                self.stats.stale_commits_rejected += 1;
                CommitOutcome::Stale
            }
        }
    }

    /// The operations worth trying next: per attempt, the fenced ones with
    /// the null token and its two most recent ones (live or terminal, and
    /// superseded), the others where their precondition holds.
    fn alphabet(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (task, issued) in (0u32..).zip(&self.issued) {
            if self.states[task as usize] == AttemptState::Queued {
                ops.extend([Op::Dispatch(task), Op::Cancel(task)]);
            }
            let recent = issued.iter().rev().take(2).copied();
            for token in std::iter::once(LeaseToken::NONE).chain(recent) {
                ops.extend([
                    Op::Commit(task, token),
                    Op::Fail(task, token),
                    Op::Reclaim(task, token, EXPIRY),
                    Op::Reclaim(task, token, SimTime::from_millis(9)),
                ]);
            }
        }
        if self.states.len() == 1 {
            ops.push(Op::PushDuplicate);
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
            assert_eq!(store.commit(task, token), want);
        }
        Op::Fail(task, token) => {
            let want = model.finish(task, token, AttemptState::Failed { token });
            assert_eq!(store.fail(task, token), want);
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
            assert_eq!(store.reclaim_expired(task, token, now), want);
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
            model.push();
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
    for (task, &state) in (0u32..).zip(&model.states) {
        assert_eq!(store.state(task), state, "attempt {task} after {path:?}");
        // Single active incarnation: the only token an attempt answers to
        // is that of its newest lease, and only while that lease is held.
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
    model.push();
    for &op in path {
        apply(&mut store, &mut model, op);
    }
    (store, model)
}

/// Depth-first over every sequence; the store cannot be cloned, so each
/// child replays its prefix into a fresh one. Returns the sequences
/// checked and raises `reached` to the largest counters any of them saw.
fn explore(path: &mut Vec<Op>, reached: &mut [u64; 5]) -> u64 {
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
    let mut reached = [0; 5];
    let checked = explore(&mut Vec::new(), &mut reached);
    // Fewer sequences than this means the alphabet lost a letter.
    assert!(checked >= 700_000, "only {checked} sequences enumerated");
    // Every kind of ending occurs somewhere in the enumeration: both
    // attempts commit, both fail, and a reclaimed lease's token is fenced.
    let [completed, failed, reclaims, stale, duplicates] = reached;
    assert_eq!((completed, failed), (2, 2));
    assert!(reclaims >= 2 && stale >= 4 && duplicates >= 4);
}
