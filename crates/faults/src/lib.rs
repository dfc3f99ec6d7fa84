//! Deterministic, seed-driven fault injection shared by both runtimes.
//!
//! TailGuard's budget `T_b = x_p^SLO − x_p^u(k_f)` (Eq. 6) is computed from
//! *unloaded* per-server CDFs, so a single degraded or blacked-out task
//! server silently invalidates the deadline math and blows the query tail.
//! This crate describes misbehaving servers as data: a [`FaultPlan`] is a
//! set of per-server [`FaultEpisode`]s of eight [`FaultKind`]s — step,
//! ramping and flapping service-time inflation, stalls and restarts that
//! hold tasks, blackouts that drop them with a notification, crashes that
//! swallow them without one, and duplicated deliveries — that both runtimes
//! consume identically through two questions, [`FaultPlan::at_dispatch`]
//! and [`FaultPlan::at_finish`]. The discrete-event simulator asks them in
//! virtual time (`crates/core/src/cluster.rs`); the tokio testbed
//! compresses the same plan onto its wall clock
//! (`crates/testbed/src/node.rs`), so a shared plan produces comparable
//! fault counters on both runtimes.
//!
//! Everything here is pure data + arithmetic: no clock, no I/O, and the
//! only randomness is the caller-seeded [`SimRng`] behind
//! [`FaultPlan::generate`], keeping runs bit-reproducible across `--jobs`.

use tailguard_simcore::{SimDuration, SimRng, SimTime};

/// What a fault episode does to the tasks its server handles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Service times of tasks dispatched during the episode are multiplied
    /// by `factor` (interference / thermal throttling / noisy neighbor).
    Slowdown {
        /// Multiplicative service-time inflation (must be finite and > 0).
        factor: f64,
    },
    /// The server freezes: tasks dispatched during the episode are held and
    /// only begin service when the episode ends (transient crash with the
    /// queue preserved — a fail/recover cycle).
    Stall,
    /// Blackout: tasks dispatched during the episode — and results that
    /// would land inside it — are lost and must be retried elsewhere.
    Drop,
    /// The server process dies over the episode: tasks dispatched during it
    /// and in-flight work the crash interrupts are *silently swallowed* —
    /// unlike [`FaultKind::Drop`], no loss notification reaches the
    /// scheduler, so the only recovery path is lease expiry and reclaim.
    Crash,
    /// The server restarts: tasks dispatched during the episode are held
    /// until it ends (like a stall), but results that would land inside it
    /// are lost *with* a notification — the in-memory work of the dying
    /// process is gone, while the supervisor still reports the failure.
    Restart,
    /// The delivery path misbehaves: results completing during the episode
    /// are delivered twice (at-least-once delivery made visible). The
    /// second copy must be suppressed idempotently by the lifecycle store.
    DuplicateDelivery,
    /// Gray failure: the service-time multiplier ramps *linearly* from 1 at
    /// the episode start to `peak` at the episode end — a server that decays
    /// slowly (leaking memory, filling disk, thermal creep) instead of
    /// failing cleanly. Unlike [`FaultKind::Slowdown`]'s step, the onset is
    /// gradual, so threshold-based detectors see no sharp edge.
    DegradeRamp {
        /// The multiplier reached at the episode end (finite, > 0).
        peak: f64,
    },
    /// Gray failure: the server oscillates between degraded (service times
    /// multiplied by `factor`) and healthy phases, each lasting `period`,
    /// starting degraded at the episode start. Flapping servers defeat
    /// naive eject-on-first-slow logic: any ejection decision must survive
    /// the server *looking* healthy half the time.
    Flap {
        /// Multiplicative service-time inflation in degraded phases
        /// (finite, > 0).
        factor: f64,
        /// Length of each degraded / healthy phase (non-zero).
        period: SimDuration,
    },
}

/// One contiguous fault on one server over `[start, end)`.
///
/// Episodes are finite by construction: an unbounded stall would hold
/// tasks forever and no simulation (or testbed run) could terminate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEpisode {
    /// The afflicted server.
    pub server: u32,
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
    /// What the episode does.
    pub kind: FaultKind,
}

impl FaultEpisode {
    /// Creates an episode, validating its interval and parameters.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`, a slowdown/ramp/flap factor is not
    /// finite and positive, or a flap period is zero.
    /// `start` is virtual time (nanosecond domain).
    pub fn new(server: u32, start: SimTime, end: SimTime, kind: FaultKind) -> Self {
        let episode = FaultEpisode {
            server,
            start,
            end,
            kind,
        };
        episode.validate();
        episode
    }

    /// The checks every episode in a plan has passed: the fields are `pub`,
    /// so [`FaultPlan::with_episode`] repeats them on struct literals that
    /// never went through [`FaultEpisode::new`].
    fn validate(&self) {
        assert!(self.start < self.end, "fault episode needs start < end");
        let positive = |what: &str, v: f64| {
            assert!(
                v.is_finite() && v > 0.0,
                "{what} must be finite and positive, got {v}"
            );
        };
        match self.kind {
            FaultKind::Slowdown { factor } => positive("slowdown factor", factor),
            FaultKind::DegradeRamp { peak } => positive("degrade ramp peak", peak),
            FaultKind::Flap { factor, period } => {
                positive("flap factor", factor);
                assert!(!period.is_zero(), "flap period must be non-zero");
            }
            _ => {}
        }
    }

    /// Whether the episode is active at `now` (`start <= now < end`).
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }

    /// The largest multiplier the episode puts on a service time, at least
    /// 1.0: a slowdown's or flap's `factor`, a ramp's `peak`; holds, losses
    /// and duplicates inflate nothing.
    fn peak_factor(&self) -> f64 {
        match self.kind {
            FaultKind::Slowdown { factor } | FaultKind::Flap { factor, .. } => factor.max(1.0),
            FaultKind::DegradeRamp { peak } => peak.max(1.0),
            _ => 1.0,
        }
    }

    /// `acc` times the service-time multiplier this episode contributes at
    /// `now`, an instant inside it (holds, losses and duplicates inflate
    /// nothing).
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "every episode in a plan passed `validate` (non-zero flap period), and `compressed` clamps the scaled period to >= 1 ns"
    )]
    fn inflate(&self, acc: f64, now: SimTime) -> f64 {
        match self.kind {
            FaultKind::Slowdown { factor } => acc * factor,
            FaultKind::DegradeRamp { peak } => {
                let span = self.end.saturating_since(self.start).as_nanos() as f64;
                let phase = now.saturating_since(self.start).as_nanos() as f64 / span;
                acc * (1.0 + (peak - 1.0) * phase)
            }
            FaultKind::Flap { factor, period } => {
                let cycle = now.saturating_since(self.start).as_nanos() / period.as_nanos();
                if cycle.is_multiple_of(2) {
                    acc * factor
                } else {
                    acc
                }
            }
            _ => acc,
        }
    }
}

/// What happens to a task dispatched to a faulty server —
/// [`FaultPlan::at_dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// An active crash: the node is down and never sees the task. No loss
    /// report, no result — only a lease reclaim recovers the attempt.
    Swallowed,
    /// An active blackout: the task is lost and the scheduler is told.
    Dropped,
    /// The task runs: its result is due this long after the dispatch
    /// (stall/restart holds plus the service inflated at its start).
    Runs(SimDuration),
}

/// What happens to a result a faulty server is about to deliver —
/// [`FaultPlan::at_finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishOutcome {
    /// A crash began while the work was in flight: the node restarted and
    /// forgot the task. Nothing lands, nobody is notified.
    Swallowed,
    /// The result lands inside a blackout or a restart: it is lost with
    /// the node's in-flight state, but the scheduler is notified.
    Lost,
    /// The result is delivered — twice when `duplicate` is set.
    Delivered {
        /// An active [`FaultKind::DuplicateDelivery`] episode retransmits
        /// the result; the lifecycle store must suppress the second copy.
        duplicate: bool,
    },
}

/// One episode in its server's slice of the index.
#[derive(Debug, Clone, Copy)]
struct Row {
    episode: FaultEpisode,
    /// Latest `end` over this server's rows up to and including this one.
    /// Non-decreasing along the slice, so the rows that ended at or before
    /// an instant form a prefix even when a long early episode nests
    /// short later ones.
    ends_by: SimTime,
}

/// A deterministic schedule of fault episodes across the cluster.
///
/// The plan is plain data: runtimes ask it [`FaultPlan::at_dispatch`] when
/// a task starts and [`FaultPlan::at_finish`] when its result is due.
/// Episodes affect tasks *dispatched during* them — a deliberate
/// approximation that keeps both runtimes' semantics identical (the testbed
/// cannot retroactively inflate a sleep already underway).
///
/// Every question is answered from a per-server index built with the plan:
/// two binary searches over that server's episodes plus a walk over the
/// ones that overlap the instant — `O(log m + overlap)` for a server with
/// `m` episodes, independent of the plan's length. Overlapping multipliers
/// are folded in plan order (ascending `start`, insertion order on ties),
/// so results are bit-reproducible.
///
/// # Example
///
/// ```
/// use tailguard_faults::{DispatchOutcome, FaultEpisode, FaultKind, FaultPlan};
/// use tailguard_simcore::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new().with_episode(FaultEpisode::new(
///     0,
///     SimTime::from_millis(10),
///     SimTime::from_millis(20),
///     FaultKind::Slowdown { factor: 4.0 },
/// ));
/// let svc = SimDuration::from_millis(2);
/// assert_eq!(plan.completion_delay(0, SimTime::from_millis(5), svc), svc);
/// assert_eq!(
///     plan.at_dispatch(0, SimTime::from_millis(12), svc),
///     DispatchOutcome::Runs(SimDuration::from_millis(8))
/// );
/// assert!(!plan.drops(0, SimTime::from_millis(12)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sorted by `start`, insertion order on ties.
    episodes: Vec<FaultEpisode>,
    /// `rows[offsets[s]..offsets[s + 1]]` are server `s`'s episodes, in
    /// `episodes` order.
    offsets: Vec<usize>,
    rows: Vec<Row>,
}

/// Plans are equal when their episodes are; the index is derived from them.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.episodes == other.episodes
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing; drivers treat it like no plan).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builds the plan and its index from validated episodes already
    /// sorted by `start`.
    fn indexed(episodes: Vec<FaultEpisode>) -> Self {
        let mut rows: Vec<Row> = episodes
            .iter()
            .map(|&episode| Row {
                episode,
                ends_by: episode.end,
            })
            .collect();
        // Stable: each server's rows keep the plan's order.
        rows.sort_by_key(|r| r.episode.server);
        let mut offsets = Vec::new();
        let mut ends_by = SimTime::ZERO;
        for (i, row) in rows.iter_mut().enumerate() {
            // First row of a server: it, and every id skipped before it,
            // starts here with a fresh running maximum.
            while offsets.len() <= row.episode.server as usize {
                offsets.push(i);
                ends_by = SimTime::ZERO;
            }
            ends_by = ends_by.max(row.episode.end);
            row.ends_by = ends_by;
        }
        offsets.push(rows.len());
        FaultPlan {
            episodes,
            offsets,
            rows,
        }
    }

    /// Adds an episode, keeping the episode list sorted by start time.
    /// Re-indexes the whole plan: meant for hand-built plans, the
    /// generators index once.
    ///
    /// # Panics
    ///
    /// Panics when the episode would be rejected by [`FaultEpisode::new`].
    pub fn with_episode(mut self, episode: FaultEpisode) -> Self {
        episode.validate();
        let at = self.episodes.partition_point(|e| e.start <= episode.start);
        self.episodes.insert(at, episode);
        FaultPlan::indexed(self.episodes)
    }

    /// The draws the three generators share: per episode a uniform server,
    /// a length ~ Exp(`mean_len_ms`) truncated below at 10% of the mean so
    /// an episode is never degenerate, a start uniform over the horizon,
    /// then whatever `draw_kind` takes from the stream (it is handed the
    /// length in ms).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`rng.index(servers)` is below the u32 server count; u64 nanoseconds times a [0,1) draw: truncation is the intended draw"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "u64 nanoseconds times a [0,1) draw: truncation is the intended draw"
    )]
    fn generate_with(
        seed: u64,
        servers: u32,
        horizon: SimDuration,
        n_episodes: usize,
        mean_len_ms: f64,
        mut draw_kind: impl FnMut(&mut SimRng, f64) -> FaultKind,
    ) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(!horizon.is_zero(), "horizon must be positive");
        assert!(
            mean_len_ms.is_finite() && mean_len_ms > 0.0,
            "mean episode length must be finite and positive"
        );
        let mut rng = SimRng::seed(seed);
        let mut episodes: Vec<FaultEpisode> = (0..n_episodes)
            .map(|_| {
                let server = rng.index(servers as usize) as u32;
                let len_ms = (mean_len_ms * -rng.open01().ln()).max(mean_len_ms * 0.1);
                let start_ns = (horizon.as_nanos() as f64 * rng.f64()) as u64;
                let start = SimTime::from_nanos(start_ns);
                let end = start + SimDuration::from_millis_f64(len_ms);
                FaultEpisode::new(server, start, end, draw_kind(&mut rng, len_ms))
            })
            .collect();
        // Stable, like `with_episode`: equal starts keep their draw order.
        episodes.sort_by_key(|e| e.start);
        FaultPlan::indexed(episodes)
    }

    /// Generates a seed-driven plan of fail/recover cycles: `n_episodes`
    /// episodes of mean length `mean_len_ms`, uniformly placed over
    /// `[0, horizon)` on uniformly drawn servers from `0..servers`, cycling
    /// through slowdown (factor 2–10×), stall, and drop kinds.
    ///
    /// The same `(seed, servers, horizon, n_episodes, mean_len_ms)` always
    /// yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is zero, `horizon` is zero, or `mean_len_ms`
    /// is not finite and positive.
    /// `horizon` is a virtual-time duration (nanosecond domain).
    pub fn generate(
        seed: u64,
        servers: u32,
        horizon: SimDuration,
        n_episodes: usize,
        mean_len_ms: f64,
    ) -> Self {
        let kind = |rng: &mut SimRng, _len_ms: f64| match rng.index(3) {
            0 => FaultKind::Slowdown {
                factor: 2.0 + rng.f64() * 8.0,
            },
            1 => FaultKind::Stall,
            _ => FaultKind::Drop,
        };
        FaultPlan::generate_with(seed, servers, horizon, n_episodes, mean_len_ms, kind)
    }

    /// Generates a seed-driven crash storm: [`FaultPlan::generate`]'s
    /// placement, cycling through the lifecycle fault kinds instead —
    /// [`FaultKind::Crash`], [`FaultKind::Restart`], and
    /// [`FaultKind::DuplicateDelivery`].
    ///
    /// # Panics
    ///
    /// Panics when `servers` is zero, `horizon` is zero, or `mean_len_ms`
    /// is not finite and positive.
    /// `horizon` is a virtual-time duration (nanosecond domain).
    pub fn generate_crash_storm(
        seed: u64,
        servers: u32,
        horizon: SimDuration,
        n_episodes: usize,
        mean_len_ms: f64,
    ) -> Self {
        let kind = |rng: &mut SimRng, _len_ms: f64| match rng.index(3) {
            0 => FaultKind::Crash,
            1 => FaultKind::Restart,
            _ => FaultKind::DuplicateDelivery,
        };
        FaultPlan::generate_with(seed, servers, horizon, n_episodes, mean_len_ms, kind)
    }

    /// Generates a seed-driven *gray-failure* plan: [`FaultPlan::generate`]'s
    /// placement, alternating between [`FaultKind::DegradeRamp`] (peak
    /// 2–10×) and [`FaultKind::Flap`] (factor 2–10×, period one tenth of
    /// the episode length) — the non-stationary degradations the health
    /// layer must detect.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is zero, `horizon` is zero, or `mean_len_ms`
    /// is not finite and positive.
    /// `horizon` is a virtual-time duration (nanosecond domain).
    pub fn generate_drift(
        seed: u64,
        servers: u32,
        horizon: SimDuration,
        n_episodes: usize,
        mean_len_ms: f64,
    ) -> Self {
        let kind = |rng: &mut SimRng, len_ms: f64| {
            let magnitude = 2.0 + rng.f64() * 8.0;
            match rng.index(2) {
                0 => FaultKind::DegradeRamp { peak: magnitude },
                _ => FaultKind::Flap {
                    factor: magnitude,
                    period: SimDuration::from_millis_f64((len_ms / 10.0).max(0.1)),
                },
            }
        };
        FaultPlan::generate_with(seed, servers, horizon, n_episodes, mean_len_ms, kind)
    }

    /// Returns the plan with every episode's times divided by `scale` —
    /// the testbed maps Pi-scale plans onto its compressed wall clock.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not finite and positive.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 nanoseconds divided by a validated-positive scale: truncation is the intended rounding"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "u64 nanoseconds divided by a validated-positive scale: truncation is the intended rounding"
    )]
    pub fn compressed(&self, scale: f64) -> FaultPlan {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be finite and positive"
        );
        let shrink = |ns: u64| (ns as f64 / scale) as u64;
        // Monotone in `start`, so the episodes stay sorted; every interval
        // and flap period stays non-empty.
        let episodes = self
            .episodes
            .iter()
            .map(|e| {
                let start = shrink(e.start.as_nanos());
                FaultEpisode {
                    server: e.server,
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(shrink(e.end.as_nanos()).max(start + 1)),
                    // Flap phases live on the same clock as the episode
                    // interval, so the period compresses with it.
                    kind: match e.kind {
                        FaultKind::Flap { factor, period } => FaultKind::Flap {
                            factor,
                            period: SimDuration::from_nanos(shrink(period.as_nanos()).max(1)),
                        },
                        kind => kind,
                    },
                }
            })
            .collect();
        FaultPlan::indexed(episodes)
    }

    /// The episodes, sorted by start time.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Number of episodes in the plan.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The largest service-time multiplier the plan can put on a task, at
    /// least 1.0: the largest product, over the instants an episode starts,
    /// of the peak multipliers of the episodes then active on its server.
    /// The set of active episodes grows only at a start, so this bounds
    /// [`FaultPlan::slowdown_factor`] at every instant on every server.
    pub fn max_slowdown(&self) -> f64 {
        self.episodes
            .iter()
            .map(|e| {
                self.active(e.server, e.start)
                    .map(FaultEpisode::peak_factor)
                    .product::<f64>()
            })
            .fold(1.0, f64::max)
    }
}

// tg-lint: hot(fault-probe)
/// The episodes among a server's `started` rows still running at `now`, in
/// plan order.
fn live(started: &[Row], now: SimTime) -> impl Iterator<Item = &FaultEpisode> {
    let over = started.partition_point(|r| r.ends_by <= now);
    started
        .split_at(over)
        .1
        .iter()
        .map(|r| &r.episode)
        .filter(move |e| now < e.end)
}

/// Whether a crash among a server's `started` rows began strictly after
/// `from`.
fn crash_began_after(started: &[Row], from: SimTime) -> bool {
    let since = started.partition_point(|r| r.episode.start <= from);
    started
        .split_at(since)
        .1
        .iter()
        .any(|r| r.episode.kind == FaultKind::Crash)
}

/// Asking a plan: every question goes through one server's index slice.
impl FaultPlan {
    /// Server `server`'s rows that started at or before `now` (none for a
    /// server the plan never names).
    fn started(&self, server: u32, now: SimTime) -> &[Row] {
        let s = server as usize;
        let rows = match self.offsets.get(s..s + 2) {
            Some(&[lo, hi]) => self.rows.get(lo..hi).unwrap_or_default(),
            _ => &[],
        };
        rows.split_at(rows.partition_point(|r| r.episode.start <= now))
            .0
    }

    /// The episodes active on `server` at `now`, in plan order: the one
    /// probe every question below is asked through.
    fn active(&self, server: u32, now: SimTime) -> impl Iterator<Item = &FaultEpisode> {
        live(self.started(server, now), now)
    }

    /// What happens to a task of nominal service time `service` dispatched
    /// to `server` at `now`: an active crash outranks an active blackout,
    /// which outranks running for [`FaultPlan::completion_delay`].
    /// `now` is virtual time (nanosecond domain).
    pub fn at_dispatch(&self, server: u32, now: SimTime, service: SimDuration) -> DispatchOutcome {
        let (mut dropped, mut held, mut factor) = (false, false, 1.0);
        for e in self.active(server, now) {
            match e.kind {
                FaultKind::Crash => return DispatchOutcome::Swallowed,
                FaultKind::Drop => dropped = true,
                FaultKind::Stall | FaultKind::Restart => held = true,
                _ => factor = e.inflate(factor, now),
            }
        }
        if dropped {
            DispatchOutcome::Dropped
        } else if held {
            DispatchOutcome::Runs(self.completion_delay(server, now, service))
        } else {
            DispatchOutcome::Runs(service.mul_f64(factor))
        }
    }

    /// What happens to the result of work dispatched to `server` at
    /// `dispatched_at` and due at `now`: a crash that began in
    /// `(dispatched_at, now]` outranks a blackout or restart active at
    /// `now`, which outranks delivery.
    /// `dispatched_at` is virtual time (nanosecond domain).
    pub fn at_finish(&self, server: u32, dispatched_at: SimTime, now: SimTime) -> FinishOutcome {
        let started = self.started(server, now);
        if crash_began_after(started, dispatched_at) {
            return FinishOutcome::Swallowed;
        }
        let mut duplicate = false;
        for e in live(started, now) {
            match e.kind {
                FaultKind::Drop | FaultKind::Restart => return FinishOutcome::Lost,
                FaultKind::DuplicateDelivery => duplicate = true,
                _ => {}
            }
        }
        FinishOutcome::Delivered { duplicate }
    }

    /// Whether a task dispatched to (or completing at) `server` at `now`
    /// is lost to an active [`FaultKind::Drop`] episode.
    /// `now` is virtual time (nanosecond domain).
    pub fn drops(&self, server: u32, now: SimTime) -> bool {
        self.active(server, now).any(|e| e.kind == FaultKind::Drop)
    }

    /// Whether `server` is dead to an active [`FaultKind::Crash`] episode
    /// at `now` — work sent to it is silently swallowed.
    /// `now` is virtual time (nanosecond domain).
    pub fn crashed(&self, server: u32, now: SimTime) -> bool {
        self.active(server, now).any(|e| e.kind == FaultKind::Crash)
    }

    /// Whether a [`FaultKind::Crash`] episode *began* on `server` strictly
    /// after `from` and at or before `to` — i.e. the crash interrupted work
    /// dispatched at `from` that would have completed at `to`. The result
    /// of such work is silently swallowed even though the server may
    /// already be back up at `to`.
    /// `from` is virtual time (nanosecond domain).
    pub fn crash_started_within(&self, server: u32, from: SimTime, to: SimTime) -> bool {
        crash_began_after(self.started(server, to), from)
    }

    /// Whether a result landing at `server` at `now` is lost (with a
    /// notification) to an active [`FaultKind::Restart`] episode.
    /// `now` is virtual time (nanosecond domain).
    pub fn restart_loses(&self, server: u32, now: SimTime) -> bool {
        self.active(server, now)
            .any(|e| e.kind == FaultKind::Restart)
    }

    /// Whether a result completing at `server` at `now` is delivered twice
    /// by an active [`FaultKind::DuplicateDelivery`] episode.
    /// `now` is virtual time (nanosecond domain).
    pub fn duplicates(&self, server: u32, now: SimTime) -> bool {
        self.active(server, now)
            .any(|e| e.kind == FaultKind::DuplicateDelivery)
    }

    /// Product of all service-time multipliers active on `server` at `now`
    /// (overlapping episodes compose multiplicatively, folded in plan
    /// order; 1.0 when healthy).
    ///
    /// [`FaultKind::Slowdown`] contributes its constant factor;
    /// [`FaultKind::DegradeRamp`] contributes `1 + (peak − 1)·φ` where `φ`
    /// is the episode's elapsed fraction at `now`; [`FaultKind::Flap`]
    /// contributes its factor in degraded phases (the first phase after
    /// the episode start, then every other `period`) and 1.0 in healthy
    /// phases.
    pub fn slowdown_factor(&self, server: u32, now: SimTime) -> f64 {
        self.active(server, now)
            .fold(1.0, |acc, e| e.inflate(acc, now))
    }

    /// Total dispatch→completion delay for a task of nominal service time
    /// `service` dispatched to `server` at `now`.
    ///
    /// Active [`FaultKind::Stall`] and [`FaultKind::Restart`] episodes push
    /// the service start to the episode end (chained holds compose: if
    /// another hold is active at that instant, it pushes further); the
    /// service itself is then inflated by the slowdown factors active at
    /// the (possibly deferred) start instant.
    /// `now` is virtual time (nanosecond domain).
    pub fn completion_delay(&self, server: u32, now: SimTime, service: SimDuration) -> SimDuration {
        let mut start = now;
        // An active episode ends after `start`: every hold moves it forward.
        while let Some(end) = self
            .active(server, start)
            .filter(|e| matches!(e.kind, FaultKind::Stall | FaultKind::Restart))
            .map(|e| e.end)
            .max()
        {
            start = end;
        }
        let factor = self.slowdown_factor(server, start);
        start.saturating_since(now) + service.mul_f64(factor)
    }
}
// tg-lint: endhot

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn healthy_server_passes_through() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.drops(0, ms(0)));
        assert_eq!(plan.slowdown_factor(0, ms(0)), 1.0);
        assert_eq!(plan.completion_delay(0, ms(0), dms(3)), dms(3));
    }

    #[test]
    fn max_slowdown_bounds_every_multiplier() {
        assert_eq!(FaultPlan::new().max_slowdown(), 1.0);
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(
                0,
                ms(0),
                ms(10),
                FaultKind::Slowdown { factor: 2.0 },
            ))
            .with_episode(FaultEpisode::new(
                0,
                ms(5),
                ms(20),
                FaultKind::DegradeRamp { peak: 3.0 },
            ))
            .with_episode(FaultEpisode::new(
                1,
                ms(0),
                ms(5),
                FaultKind::Flap {
                    factor: 4.0,
                    period: dms(1),
                },
            ))
            .with_episode(FaultEpisode::new(
                2,
                ms(0),
                ms(5),
                FaultKind::Slowdown { factor: 0.5 },
            ))
            .with_episode(FaultEpisode::new(3, ms(0), ms(5), FaultKind::Crash));
        // Server 0's overlap composes: 2 × 3 while both run.
        assert_eq!(plan.max_slowdown(), 6.0);
        let storm = FaultPlan::generate(7, 4, dms(1_000), 40, 100.0);
        let bound = storm.max_slowdown();
        for server in 0..4 {
            for t in (0..1_000).step_by(7) {
                assert!(
                    storm.slowdown_factor(server, ms(t)) <= bound,
                    "server {server} at {t} ms"
                );
            }
        }
    }

    #[test]
    fn slowdown_inflates_only_inside_interval() {
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            1,
            ms(10),
            ms(20),
            FaultKind::Slowdown { factor: 3.0 },
        ));
        assert_eq!(plan.completion_delay(1, ms(9), dms(2)), dms(2));
        assert_eq!(plan.completion_delay(1, ms(10), dms(2)), dms(6));
        assert_eq!(plan.completion_delay(1, ms(19), dms(2)), dms(6));
        assert_eq!(plan.completion_delay(1, ms(20), dms(2)), dms(2));
        // Other servers are unaffected.
        assert_eq!(plan.completion_delay(0, ms(12), dms(2)), dms(2));
    }

    #[test]
    fn overlapping_slowdowns_compose() {
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(
                0,
                ms(0),
                ms(100),
                FaultKind::Slowdown { factor: 2.0 },
            ))
            .with_episode(FaultEpisode::new(
                0,
                ms(50),
                ms(100),
                FaultKind::Slowdown { factor: 3.0 },
            ));
        assert_eq!(plan.slowdown_factor(0, ms(10)), 2.0);
        assert_eq!(plan.slowdown_factor(0, ms(60)), 6.0);
    }

    #[test]
    fn stall_defers_service_to_episode_end() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(0, ms(10), ms(30), FaultKind::Stall));
        // Dispatched mid-stall at t=15: waits 15ms, then serves 2ms.
        assert_eq!(plan.completion_delay(0, ms(15), dms(2)), dms(17));
        assert_eq!(plan.completion_delay(0, ms(30), dms(2)), dms(2));
    }

    #[test]
    fn chained_stalls_and_slowdown_at_deferred_start() {
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(0, ms(0), ms(10), FaultKind::Stall))
            .with_episode(FaultEpisode::new(0, ms(5), ms(20), FaultKind::Stall))
            .with_episode(FaultEpisode::new(
                0,
                ms(20),
                ms(40),
                FaultKind::Slowdown { factor: 5.0 },
            ));
        // Dispatched at t=2: first stall pushes to 10, second to 20, where
        // the slowdown is active: 18ms wait + 5×2ms service.
        assert_eq!(plan.completion_delay(0, ms(2), dms(2)), dms(28));
    }

    #[test]
    fn drop_is_scoped_to_server_and_interval() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(2, ms(5), ms(8), FaultKind::Drop));
        assert!(!plan.drops(2, ms(4)));
        assert!(plan.drops(2, ms(5)));
        assert!(plan.drops(2, ms(7)));
        assert!(!plan.drops(2, ms(8)), "end is exclusive");
        assert!(!plan.drops(1, ms(6)));
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(7, 16, dms(10_000), 12, 50.0);
        let b = FaultPlan::generate(7, 16, dms(10_000), 12, 50.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.episodes().iter().all(|e| e.server < 16));
        assert!(a.episodes().iter().all(|e| e.start < e.end));
        assert!(a
            .episodes()
            .iter()
            .all(|e| e.start < SimTime::ZERO + dms(10_000)));
        let c = FaultPlan::generate(8, 16, dms(10_000), 12, 50.0);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn compressed_divides_times() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(0, ms(100), ms(300), FaultKind::Stall));
        let c = plan.compressed(10.0);
        assert_eq!(c.episodes()[0].start, ms(10));
        assert_eq!(c.episodes()[0].end, ms(30));
    }

    #[test]
    fn crash_is_silent_and_scoped() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(1, ms(10), ms(20), FaultKind::Crash));
        assert!(!plan.crashed(1, ms(9)));
        assert!(plan.crashed(1, ms(10)));
        assert!(plan.crashed(1, ms(19)));
        assert!(!plan.crashed(1, ms(20)), "end is exclusive");
        assert!(!plan.crashed(0, ms(15)));
        // A crash never triggers the notified-loss predicates.
        assert!(!plan.drops(1, ms(15)));
        assert!(!plan.restart_loses(1, ms(15)));
    }

    #[test]
    fn crash_interrupts_in_flight_work() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(0, ms(10), ms(20), FaultKind::Crash));
        // Dispatched at 5, would complete at 12: the crash at 10 interrupts.
        assert!(plan.crash_started_within(0, ms(5), ms(12)));
        // Completing exactly at the crash start is still swallowed.
        assert!(plan.crash_started_within(0, ms(5), ms(10)));
        // Work fully before or dispatched at/after the crash start is not.
        assert!(!plan.crash_started_within(0, ms(2), ms(9)));
        assert!(
            !plan.crash_started_within(0, ms(10), ms(30)),
            "dispatch at crash start is caught by `crashed`, not this"
        );
        assert!(!plan.crash_started_within(1, ms(5), ms(12)));
    }

    #[test]
    fn restart_holds_dispatches_and_loses_landing_results() {
        let plan =
            FaultPlan::new().with_episode(FaultEpisode::new(0, ms(10), ms(30), FaultKind::Restart));
        // Dispatched mid-restart at t=15: held 15ms, then serves 2ms.
        assert_eq!(plan.completion_delay(0, ms(15), dms(2)), dms(17));
        // A result landing inside the episode is lost with a notification.
        assert!(plan.restart_loses(0, ms(15)));
        assert!(!plan.restart_loses(0, ms(30)));
        assert!(!plan.drops(0, ms(15)), "restart is not a blackout");
    }

    #[test]
    fn duplicate_delivery_is_scoped() {
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            2,
            ms(5),
            ms(8),
            FaultKind::DuplicateDelivery,
        ));
        assert!(plan.duplicates(2, ms(6)));
        assert!(!plan.duplicates(2, ms(8)));
        assert!(!plan.duplicates(0, ms(6)));
        // Duplicate delivery affects nothing else.
        assert_eq!(plan.completion_delay(2, ms(6), dms(2)), dms(2));
        assert!(!plan.drops(2, ms(6)));
    }

    #[test]
    fn crash_storm_is_deterministic_and_lifecycle_only() {
        let a = FaultPlan::generate_crash_storm(7, 16, dms(10_000), 12, 50.0);
        let b = FaultPlan::generate_crash_storm(7, 16, dms(10_000), 12, 50.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.episodes().iter().all(|e| matches!(
            e.kind,
            FaultKind::Crash | FaultKind::Restart | FaultKind::DuplicateDelivery
        )));
        assert!(a.episodes().iter().any(|e| e.kind == FaultKind::Crash));
        // The legacy generator's stream is untouched: same seed, different
        // plans.
        let legacy = FaultPlan::generate(7, 16, dms(10_000), 12, 50.0);
        assert!(legacy.episodes().iter().all(|e| matches!(
            e.kind,
            FaultKind::Slowdown { .. } | FaultKind::Stall | FaultKind::Drop
        )));
    }

    #[test]
    fn degrade_ramp_interpolates_linearly() {
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            ms(10),
            ms(30),
            FaultKind::DegradeRamp { peak: 5.0 },
        ));
        assert_eq!(plan.slowdown_factor(0, ms(9)), 1.0);
        assert_eq!(plan.slowdown_factor(0, ms(10)), 1.0, "ramp starts at 1×");
        assert!(
            (plan.slowdown_factor(0, ms(20)) - 3.0).abs() < 1e-9,
            "midpoint"
        );
        assert!((plan.slowdown_factor(0, ms(29)) - 4.8).abs() < 1e-9);
        assert_eq!(plan.slowdown_factor(0, ms(30)), 1.0, "end is exclusive");
        assert_eq!(plan.slowdown_factor(1, ms(20)), 1.0);
        // The ramp rides through completion_delay like any multiplier.
        assert_eq!(plan.completion_delay(0, ms(20), dms(2)), dms(6));
    }

    #[test]
    fn flap_alternates_degraded_and_healthy_phases() {
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            ms(10),
            ms(50),
            FaultKind::Flap {
                factor: 4.0,
                period: dms(5),
            },
        ));
        // Starts degraded, flips every 5 ms.
        assert_eq!(plan.slowdown_factor(0, ms(12)), 4.0);
        assert_eq!(plan.slowdown_factor(0, ms(17)), 1.0);
        assert_eq!(plan.slowdown_factor(0, ms(22)), 4.0);
        assert_eq!(plan.slowdown_factor(0, ms(27)), 1.0);
        assert_eq!(plan.slowdown_factor(0, ms(9)), 1.0, "before episode");
        assert_eq!(plan.slowdown_factor(0, ms(50)), 1.0, "end is exclusive");
    }

    #[test]
    fn gray_kinds_compose_with_step_slowdowns() {
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(
                0,
                ms(0),
                ms(100),
                FaultKind::Slowdown { factor: 2.0 },
            ))
            .with_episode(FaultEpisode::new(
                0,
                ms(0),
                ms(100),
                FaultKind::Flap {
                    factor: 3.0,
                    period: dms(50),
                },
            ));
        assert_eq!(plan.slowdown_factor(0, ms(10)), 6.0);
        assert_eq!(plan.slowdown_factor(0, ms(60)), 2.0);
    }

    #[test]
    fn compressed_scales_flap_period() {
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            ms(100),
            ms(300),
            FaultKind::Flap {
                factor: 4.0,
                period: dms(50),
            },
        ));
        let c = plan.compressed(10.0);
        assert_eq!(c.episodes()[0].start, ms(10));
        assert_eq!(c.episodes()[0].end, ms(30));
        assert_eq!(
            c.episodes()[0].kind,
            FaultKind::Flap {
                factor: 4.0,
                period: dms(5),
            }
        );
        // Phase structure is preserved under compression.
        assert_eq!(
            plan.slowdown_factor(0, ms(160)),
            c.slowdown_factor(0, ms(16))
        );
        assert_eq!(
            plan.slowdown_factor(0, ms(110)),
            c.slowdown_factor(0, ms(11))
        );
    }

    #[test]
    fn drift_plan_is_deterministic_and_gray_only() {
        let a = FaultPlan::generate_drift(7, 16, dms(10_000), 12, 50.0);
        let b = FaultPlan::generate_drift(7, 16, dms(10_000), 12, 50.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.episodes().iter().all(|e| matches!(
            e.kind,
            FaultKind::DegradeRamp { .. } | FaultKind::Flap { .. }
        )));
        assert!(a
            .episodes()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::DegradeRamp { .. })));
        assert!(a
            .episodes()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Flap { .. })));
        // The legacy generators' streams are untouched.
        let legacy = FaultPlan::generate(7, 16, dms(10_000), 12, 50.0);
        assert!(legacy.episodes().iter().all(|e| matches!(
            e.kind,
            FaultKind::Slowdown { .. } | FaultKind::Stall | FaultKind::Drop
        )));
        let c = FaultPlan::generate_drift(8, 16, dms(10_000), 12, 50.0);
        assert_ne!(a, c, "different seeds must differ");
    }

    /// The three generators share one body; these are the plans the three
    /// separate bodies produced for `(7, 16, 10 s, 12, 50.0)` before they
    /// were folded (floats by bit pattern).
    #[test]
    fn generators_reproduce_the_recorded_plans() {
        type Recorded = [(u32, u64, u64, FaultKind); 12];
        let assert_plan = |plan: FaultPlan, recorded: Recorded| {
            let recorded = recorded.map(|(server, start, end, kind)| {
                FaultEpisode::new(
                    server,
                    SimTime::from_nanos(start),
                    SimTime::from_nanos(end),
                    kind,
                )
            });
            assert_eq!(plan.episodes(), recorded);
        };
        #[rustfmt::skip]
        let generate: Recorded = [
            (1, 972762448, 1007959190, FaultKind::Slowdown { factor: f64::from_bits(0x400bcdab91c4b0aa) }),
            (1, 1719681406, 1828153553, FaultKind::Drop),
            (1, 2858457860, 2906211552, FaultKind::Drop),
            (2, 3086458711, 3113608016, FaultKind::Slowdown { factor: f64::from_bits(0x4011850b03de06a7) }),
            (13, 5316703201, 5461976777, FaultKind::Slowdown { factor: f64::from_bits(0x40231d5689477ac9) }),
            (9, 5871373663, 5940093037, FaultKind::Drop),
            (11, 6175189974, 6180189974, FaultKind::Slowdown { factor: f64::from_bits(0x4014c7adb52f3e64) }),
            (1, 6756197884, 6767987949, FaultKind::Stall),
            (0, 7175761283, 7263740656, FaultKind::Stall),
            (15, 7239070952, 7277281237, FaultKind::Slowdown { factor: f64::from_bits(0x4023b797f4d139c0) }),
            (1, 8330456527, 8364361106, FaultKind::Stall),
            (12, 8428952911, 8460615190, FaultKind::Slowdown { factor: f64::from_bits(0x400058c6682e1e9e) }),
        ];
        assert_plan(FaultPlan::generate(7, 16, dms(10_000), 12, 50.0), generate);
        #[rustfmt::skip]
        let crash_storm: Recorded = [
            (13, 54183976, 311766842, FaultKind::Crash),
            (15, 605083512, 629185784, FaultKind::Restart),
            (2, 1099398030, 1183922806, FaultKind::DuplicateDelivery),
            (15, 1142412376, 1273083167, FaultKind::Crash),
            (2, 3086458711, 3113608016, FaultKind::Crash),
            (8, 3410599151, 3419732493, FaultKind::Restart),
            (11, 4946351614, 5055332051, FaultKind::Crash),
            (0, 7175761283, 7263740656, FaultKind::Restart),
            (15, 7239070952, 7277281237, FaultKind::Crash),
            (10, 7925549284, 7969324640, FaultKind::Restart),
            (6, 8031168501, 8093783642, FaultKind::Crash),
            (4, 8374638791, 8401263615, FaultKind::DuplicateDelivery),
        ];
        assert_plan(
            FaultPlan::generate_crash_storm(7, 16, dms(10_000), 12, 50.0),
            crash_storm,
        );
        #[rustfmt::skip]
        let drift: Recorded = [
            (15, 605083512, 629185784, FaultKind::DegradeRamp { peak: f64::from_bits(0x4014c7adb52f3e64) }),
            (9, 886998258, 945776293, FaultKind::Flap { factor: f64::from_bits(0x4011850b03de06a7), period: SimDuration::from_nanos(5877804) }),
            (0, 1205501522, 1466399279, FaultKind::DegradeRamp { peak: f64::from_bits(0x40145025fa4d8e0d) }),
            (1, 1844281123, 1935038503, FaultKind::Flap { factor: f64::from_bits(0x40070940f4a310f4), period: SimDuration::from_nanos(9075738) }),
            (0, 2196464782, 2228051366, FaultKind::Flap { factor: f64::from_bits(0x40231d5689477ac9), period: SimDuration::from_nanos(3158658) }),
            (13, 2889440094, 2974996724, FaultKind::DegradeRamp { peak: f64::from_bits(0x40236d804ef2b57a) }),
            (7, 3298394295, 3314548906, FaultKind::DegradeRamp { peak: f64::from_bits(0x4023b797f4d139c0) }),
            (12, 5075847575, 5200250198, FaultKind::DegradeRamp { peak: f64::from_bits(0x40215427ada7d5fc) }),
            (9, 5871373663, 5940093037, FaultKind::Flap { factor: f64::from_bits(0x40216640864a2a78), period: SimDuration::from_nanos(6871937) }),
            (0, 7175761283, 7263740656, FaultKind::Flap { factor: f64::from_bits(0x4015abb3ed4c6300), period: SimDuration::from_nanos(8797937) }),
            (1, 7338237180, 7426259482, FaultKind::DegradeRamp { peak: f64::from_bits(0x40073ccc175d1a86) }),
            (10, 7925549284, 7969324640, FaultKind::Flap { factor: f64::from_bits(0x4018fcdac4de4468), period: SimDuration::from_nanos(4377536) }),
        ];
        assert_plan(
            FaultPlan::generate_drift(7, 16, dms(10_000), 12, 50.0),
            drift,
        );
    }

    #[test]
    fn dispatch_and_finish_outcomes_follow_the_drivers_order() {
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(0, ms(10), ms(20), FaultKind::Crash))
            .with_episode(FaultEpisode::new(0, ms(15), ms(30), FaultKind::Drop))
            .with_episode(FaultEpisode::new(0, ms(25), ms(40), FaultKind::Restart))
            .with_episode(FaultEpisode::new(
                0,
                ms(35),
                ms(50),
                FaultKind::DuplicateDelivery,
            ));
        // A crash outranks the blackout it overlaps; the blackout outranks
        // the restart's hold.
        assert_eq!(
            plan.at_dispatch(0, ms(17), dms(2)),
            DispatchOutcome::Swallowed
        );
        assert_eq!(
            plan.at_dispatch(0, ms(27), dms(2)),
            DispatchOutcome::Dropped
        );
        assert_eq!(
            plan.at_dispatch(0, ms(32), dms(2)),
            DispatchOutcome::Runs(dms(10))
        );
        assert_eq!(
            plan.at_dispatch(0, ms(5), dms(2)),
            DispatchOutcome::Runs(dms(2))
        );
        // In flight across the crash start: swallowed even though the node
        // is back up; otherwise lost to the restart, then delivered twice.
        assert_eq!(plan.at_finish(0, ms(5), ms(45)), FinishOutcome::Swallowed);
        assert_eq!(plan.at_finish(0, ms(22), ms(37)), FinishOutcome::Lost);
        assert_eq!(
            plan.at_finish(0, ms(22), ms(45)),
            FinishOutcome::Delivered { duplicate: true }
        );
        assert_eq!(
            plan.at_finish(1, ms(22), ms(45)),
            FinishOutcome::Delivered { duplicate: false }
        );
    }

    /// `FaultEpisode`'s fields are `pub`: a struct literal skips `new`, so
    /// `with_episode` must reject what `new` would have.
    fn literal(start: u64, end: u64, kind: FaultKind) -> FaultEpisode {
        FaultEpisode {
            server: 0,
            start: ms(start),
            end: ms(end),
            kind,
        }
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn plan_rejects_inverted_interval_literal() {
        let _ = FaultPlan::new().with_episode(literal(10, 10, FaultKind::Stall));
    }

    #[test]
    #[should_panic(expected = "slowdown factor must be finite")]
    fn plan_rejects_non_finite_factor_literal() {
        let _ = FaultPlan::new().with_episode(literal(
            0,
            1,
            FaultKind::Slowdown {
                factor: f64::INFINITY,
            },
        ));
    }

    #[test]
    #[should_panic(expected = "ramp peak must be finite")]
    fn plan_rejects_nan_peak_literal() {
        let _ =
            FaultPlan::new().with_episode(literal(0, 1, FaultKind::DegradeRamp { peak: f64::NAN }));
    }

    #[test]
    #[should_panic(expected = "flap period must be non-zero")]
    fn plan_rejects_zero_flap_period_literal() {
        let _ = FaultPlan::new().with_episode(literal(
            0,
            1,
            FaultKind::Flap {
                factor: 2.0,
                period: SimDuration::ZERO,
            },
        ));
    }

    #[test]
    #[should_panic(expected = "ramp peak")]
    fn non_positive_ramp_peak_panics() {
        let _ = FaultEpisode::new(0, ms(0), ms(1), FaultKind::DegradeRamp { peak: 0.0 });
    }

    #[test]
    #[should_panic(expected = "flap period")]
    fn zero_flap_period_panics() {
        let _ = FaultEpisode::new(
            0,
            ms(0),
            ms(1),
            FaultKind::Flap {
                factor: 2.0,
                period: SimDuration::ZERO,
            },
        );
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn inverted_interval_panics() {
        let _ = FaultEpisode::new(0, ms(10), ms(10), FaultKind::Stall);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_factor_panics() {
        let _ = FaultEpisode::new(0, ms(0), ms(1), FaultKind::Slowdown { factor: 0.0 });
    }
}
