//! Per-server health scoring and hysteresis-gated outlier ejection.
//!
//! TailGuard's deadline math assumes every server's latency CDF is the one
//! the estimator measured. A *gray-failing* server — degrading slowly,
//! flapping between slow and healthy — breaks that silently: its tasks
//! dequeue with apparently healthy slack and then overshoot, dragging the
//! query tail past the SLO long before episode-based fault predicates
//! would notice. This module watches the same completion stream the online
//! estimator consumes and maintains a per-server *health score*: an EWMA
//! of observed post-queuing times (the completion-slack signal — a server
//! whose completions eat the stamped slack scores worse). Scores are
//! compared cross-sectionally against the cluster median, so a global
//! shift (flash crowd, diurnal swell) moves the baseline instead of
//! ejecting everyone.
//!
//! Ejection is hysteresis-gated like admission control: a server is
//! ejected when its score exceeds `eject_multiplier ×` the median and only
//! readmitted once it falls below the (lower) `readmit_multiplier ×`
//! median, so a flapping server cannot oscillate the dispatcher. Two
//! safety rails bound the mechanism:
//!
//! * **recovery probing** — every `probe_every`-th task aimed at an
//!   ejected server is sent there anyway, so fresh observations exist to
//!   readmit it (ejection without probing is permanent exile);
//! * **a quorum floor** — ejection never drops the healthy-server count
//!   below `ceil(min_healthy_fraction × N)`, so partial-quorum queries
//!   remain satisfiable no matter how pathological the plan.
//!
//! Like every knob in the scheduling core the tracker is pure data — no
//! clock, no RNG — and `Option`-gated in the handler so runs without it
//! stay bit-identical.

use tailguard_simcore::SimDuration;

/// Health-scoring and ejection configuration.
///
/// All thresholds are *dimensionless multiples of the cluster-median
/// score*, so the same config works in the simulator's virtual-time domain
/// and the testbed's compressed wall-clock domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor for per-server scores (`0 < alpha <= 1`;
    /// higher = faster reaction, noisier score).
    pub alpha: f64,
    /// Eject a server when its score exceeds this multiple of the cluster
    /// median (must be `> readmit_multiplier`).
    pub eject_multiplier: f64,
    /// Readmit an ejected server when its score falls back below this
    /// multiple of the cluster median (must be `>= 1`).
    pub readmit_multiplier: f64,
    /// Observations required per server before it can be ejected (and
    /// before it participates in the median).
    pub min_observations: u64,
    /// Every `probe_every`-th task aimed at an ejected server is dispatched
    /// to it anyway as a recovery probe (must be `>= 2`).
    pub probe_every: u32,
    /// Hard floor: ejection never drops the healthy-server count below
    /// `ceil(min_healthy_fraction × servers)` (must lie in `(0, 1]`).
    pub min_healthy_fraction: f64,
    /// Re-evaluate ejection state every this many observations (each
    /// evaluation selects the cross-sectional median in O(N), so it is
    /// amortized).
    pub eval_every: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha: 0.05,
            eject_multiplier: 3.0,
            readmit_multiplier: 1.5,
            min_observations: 50,
            probe_every: 10,
            min_healthy_fraction: 0.6,
            eval_every: 64,
        }
    }
}

impl HealthConfig {
    /// The default config: `alpha` 0.05, eject at 3× median, readmit below
    /// 1.5× median, 50 observations minimum, probe every 10th diverted
    /// task, at least 60 % of servers kept healthy, evaluation every 64
    /// observations.
    pub fn new() -> Self {
        HealthConfig::default()
    }

    /// Sets the ejection and readmission thresholds (hysteresis pair).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= readmit < eject` and both are finite.
    pub fn with_thresholds(mut self, eject: f64, readmit: f64) -> Self {
        assert!(
            eject.is_finite() && readmit.is_finite() && readmit >= 1.0 && eject > readmit,
            "health thresholds need 1 <= readmit < eject, got eject {eject}, readmit {readmit}"
        );
        self.eject_multiplier = eject;
        self.readmit_multiplier = readmit;
        self
    }

    /// Sets the per-server observation minimum.
    ///
    /// # Panics
    ///
    /// Panics when `min` is zero.
    pub fn with_min_observations(mut self, min: u64) -> Self {
        assert!(min >= 1, "min_observations must be at least 1");
        self.min_observations = min;
        self
    }

    /// Sets the recovery-probe cadence.
    ///
    /// # Panics
    ///
    /// Panics unless `every >= 2` (1 would disable ejection entirely).
    pub fn with_probe_every(mut self, every: u32) -> Self {
        assert!(every >= 2, "probe_every must be at least 2, got {every}");
        self.probe_every = every;
        self
    }

    /// Sets the quorum floor fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` lies in `(0, 1]`.
    pub fn with_min_healthy_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "min_healthy_fraction must lie in (0, 1], got {fraction}"
        );
        self.min_healthy_fraction = fraction;
        self
    }

    /// Sets the evaluation cadence.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero.
    pub fn with_eval_every(mut self, every: u64) -> Self {
        assert!(every >= 1, "eval_every must be at least 1");
        self.eval_every = every;
        self
    }
}

/// Health/ejection counters, accumulated by the tracker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Servers ejected (each hysteresis flip to ejected counts once).
    pub ejections: u64,
    /// Ejected servers readmitted after recovery probing.
    pub readmissions: u64,
    /// Tasks sent to an ejected server as recovery probes.
    pub probes: u64,
    /// Tasks diverted away from an ejected server.
    pub rerouted_tasks: u64,
    /// Ejections denied because they would breach the quorum floor.
    pub floor_denials: u64,
}

/// Per-server health scores with hysteresis-gated outlier ejection.
///
/// # Example
///
/// ```
/// use tailguard_sched::{HealthConfig, HealthTracker};
/// use tailguard_simcore::SimDuration;
///
/// let mut t = HealthTracker::new(HealthConfig::new().with_min_observations(5), 4);
/// for _ in 0..100 {
///     for s in 0..4u32 {
///         // Server 3 is 10× slower than its peers.
///         let ms = if s == 3 { 2.0 } else { 0.2 };
///         t.observe(s as usize, SimDuration::from_millis_f64(ms));
///     }
/// }
/// assert!(t.is_ejected(3));
/// assert!(!t.is_ejected(0));
/// ```
#[derive(Debug)]
pub struct HealthTracker {
    config: HealthConfig,
    /// Per-server EWMA of observed post-queuing times, in ms.
    ewma: Vec<f64>,
    /// Per-server observation counts.
    count: Vec<u64>,
    ejected: Vec<bool>,
    /// Per-server divert counter driving the probe cadence.
    probe_counter: Vec<u32>,
    since_eval: u64,
    /// `(score, server)` scratch for the median selection.
    scratch: Vec<(f64, u32)>,
    min_healthy: usize,
    healthy: usize,
    stats: HealthStats,
    /// Ejection-state flips since the last [`HealthTracker::take_transition`]
    /// drain, in evaluation order: `(server, ejected)`. The handler drains
    /// this after every observation to narrate flips into the trace stream;
    /// flips are rare (hysteresis), so the buffer is almost always empty.
    transitions: Vec<(u32, bool)>,
}

impl HealthTracker {
    /// Creates a tracker for `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "server counts are far below 2^32; the min-healthy floor is clamped to 1..=servers right after"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "server counts are far below 2^32; the min-healthy floor is clamped to 1..=servers right after"
    )]
    pub fn new(config: HealthConfig, servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        // ceil(fraction × N), clamped into 1..=N.
        let min_healthy =
            ((config.min_healthy_fraction * servers as f64).ceil() as usize).clamp(1, servers);
        HealthTracker {
            config,
            ewma: vec![0.0; servers],
            count: vec![0; servers],
            ejected: vec![false; servers],
            probe_counter: vec![0; servers],
            since_eval: 0,
            scratch: Vec::with_capacity(servers),
            min_healthy,
            healthy: servers,
            stats: HealthStats::default(),
            transitions: Vec::new(),
        }
    }

    /// Feeds one observed post-queuing time for `server` into its score
    /// and, every `eval_every` observations, re-evaluates ejection state.
    ///
    /// # Panics
    ///
    /// Panics when `server` is out of range.
    /// `t` is a virtual-time duration (nanosecond domain).
    #[expect(
        clippy::indexing_slicing,
        reason = "per-server tables are sized at construction and `server` ids are validated by the handler; `scratch` is refilled from the non-empty server set before the median read"
    )]
    pub fn observe(&mut self, server: usize, t: SimDuration) {
        let ms = t.as_millis_f64();
        let n = &mut self.count[server];
        if *n == 0 {
            self.ewma[server] = ms;
        } else {
            let a = self.config.alpha;
            self.ewma[server] = a * ms + (1.0 - a) * self.ewma[server];
        }
        *n += 1;
        self.since_eval += 1;
        if self.since_eval >= self.config.eval_every {
            self.since_eval = 0;
            self.evaluate();
        }
    }

    /// Re-evaluates ejection state against the current cluster median.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "server counts are far below 2^32; the min-healthy floor is clamped to 1..=servers right after"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`scratch` holds indices of servers in the per-server tables it was built from, and `i` ranges over `0..scratch.len()`"
    )]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "a literal non-zero divisor (the lower-middle median)"
    )]
    fn evaluate(&mut self) {
        let min_obs = self.config.min_observations;
        self.scratch.clear();
        for (s, (&score, &n)) in self.ewma.iter().zip(&self.count).enumerate() {
            if n >= min_obs {
                self.scratch.push((score, s as u32));
            }
        }
        if self.scratch.is_empty() {
            return;
        }
        // Deterministic median: total order on (score, index) — sched is
        // float-strict, so no NaN can reach here (durations are finite).
        let order = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        // Lower-middle median: with an even count this keeps the baseline
        // on the healthy side when up to half the cluster degrades.
        let lower_middle = self.scratch.len().saturating_sub(1) / 2;
        let (_, &mut (median, _), _) = self.scratch.select_nth_unstable_by(lower_middle, order);
        if median <= 0.0 {
            return;
        }
        let eject_above = median * self.config.eject_multiplier;
        let readmit_below = median * self.config.readmit_multiplier;
        // Keep only the servers a loop below can act on — usually none —
        // and sort just those.
        let ejected = &self.ejected;
        self.scratch.retain(|&(score, s)| {
            if ejected.get(s as usize) == Some(&true) {
                score < readmit_below
            } else {
                score > eject_above
            }
        });
        self.scratch.sort_unstable_by(order);
        // Readmissions first, so recovered servers free floor room for
        // genuinely degraded ones in the same evaluation.
        for &(score, s) in self.scratch.iter() {
            let s = s as usize;
            if self.ejected[s] && score < readmit_below {
                self.ejected[s] = false;
                self.probe_counter[s] = 0;
                self.healthy += 1;
                self.stats.readmissions += 1;
                self.transitions.push((s as u32, false));
            }
        }
        // Eject worst-first (the scratch is sorted ascending) so the floor
        // budget goes to the clearest outliers.
        for i in (0..self.scratch.len()).rev() {
            let (score, s) = self.scratch[i];
            let s = s as usize;
            if self.ejected[s] || score <= eject_above {
                continue;
            }
            if self.healthy <= self.min_healthy {
                self.stats.floor_denials += 1;
                continue;
            }
            self.ejected[s] = true;
            self.healthy = self.healthy.saturating_sub(1);
            self.stats.ejections += 1;
            self.transitions.push((s as u32, true));
        }
    }

    /// Pops the oldest undrained ejection-state flip, if any: `(server,
    /// ejected)` where `ejected` is `true` for an ejection and `false` for
    /// a readmission. The handler drains this after feeding observations so
    /// flips reach the trace stream at the observation that caused them;
    /// an undrained buffer costs nothing (flips are hysteresis-rare).
    pub fn take_transition(&mut self) -> Option<(u32, bool)> {
        if self.transitions.is_empty() {
            None
        } else {
            Some(self.transitions.remove(0))
        }
    }

    /// Whether `server` is currently ejected.
    #[expect(
        clippy::indexing_slicing,
        reason = "per-server tables are sized at construction and `server` ids are validated by the handler; `scratch` is refilled from the non-empty server set before the median read"
    )]
    pub fn is_ejected(&self, server: usize) -> bool {
        self.ejected[server]
    }

    /// Dispatch-time gate for a task aimed at `server`: `true` means the
    /// task should be diverted to a healthy server, `false` means it goes
    /// to its target (either the server is healthy, or this task is the
    /// periodic recovery probe). Counts probes and reroutes.
    #[expect(
        clippy::indexing_slicing,
        reason = "per-server tables are sized at construction and `server` ids are validated by the handler; `scratch` is refilled from the non-empty server set before the median read"
    )]
    pub fn should_divert(&mut self, server: usize) -> bool {
        if !self.ejected[server] {
            return false;
        }
        let c = &mut self.probe_counter[server];
        *c += 1;
        if *c >= self.config.probe_every {
            *c = 0;
            self.stats.probes += 1;
            false
        } else {
            self.stats.rerouted_tasks += 1;
            true
        }
    }

    /// Number of currently healthy (non-ejected) servers.
    pub fn healthy_count(&self) -> usize {
        self.healthy
    }

    /// The quorum floor: ejection never takes the healthy count below this.
    pub fn min_healthy(&self) -> usize {
        self.min_healthy
    }

    /// The per-server health scores (EWMA of observed post-queuing times,
    /// ms; 0 before the first observation).
    pub fn scores(&self) -> &[f64] {
        &self.ewma
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &HealthStats {
        &self.stats
    }

    /// The configuration the tracker was built with.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_simcore::SimRng;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn quick_config() -> HealthConfig {
        HealthConfig::new()
            .with_min_observations(5)
            .with_eval_every(8)
    }

    /// Feeds `rounds` observations to every server; `slow` servers observe
    /// `slow_ms`, the rest `base_ms`.
    fn feed(t: &mut HealthTracker, servers: usize, slow: &[usize], rounds: usize) {
        for _ in 0..rounds {
            for s in 0..servers {
                let v = if slow.contains(&s) { 2.0 } else { 0.2 };
                t.observe(s, ms(v));
            }
        }
    }

    #[test]
    fn outlier_is_ejected_and_peers_stay() {
        let mut t = HealthTracker::new(quick_config(), 8);
        feed(&mut t, 8, &[5], 50);
        assert!(t.is_ejected(5));
        for s in [0, 1, 2, 3, 4, 6, 7] {
            assert!(!t.is_ejected(s), "server {s} wrongly ejected");
        }
        assert_eq!(t.healthy_count(), 7);
        assert_eq!(t.stats().ejections, 1);
    }

    #[test]
    fn global_shift_moves_baseline_instead_of_ejecting() {
        // Every server slows down together (flash crowd): the median moves
        // with them, so nobody is an outlier.
        let mut t = HealthTracker::new(quick_config(), 8);
        feed(&mut t, 8, &[], 30);
        for _ in 0..50 {
            for s in 0..8 {
                t.observe(s, ms(3.0));
            }
        }
        assert_eq!(t.healthy_count(), 8);
        assert_eq!(t.stats().ejections, 0);
    }

    #[test]
    fn hysteresis_requires_recovery_below_readmit_threshold() {
        let mut t = HealthTracker::new(quick_config(), 8);
        feed(&mut t, 8, &[3], 50);
        assert!(t.is_ejected(3));
        // Recovery: server 3 now observes healthy times (via probes); the
        // score decays below readmit_multiplier × median and it returns.
        feed(&mut t, 8, &[], 200);
        assert!(!t.is_ejected(3), "score {}", t.scores()[3]);
        assert_eq!(t.stats().readmissions, 1);
        assert_eq!(t.healthy_count(), 8);
    }

    #[test]
    fn probe_cadence_lets_every_nth_task_through() {
        let mut t = HealthTracker::new(quick_config().with_probe_every(4), 8);
        feed(&mut t, 8, &[2], 50);
        assert!(t.is_ejected(2));
        let verdicts: Vec<bool> = (0..8).map(|_| t.should_divert(2)).collect();
        assert_eq!(
            verdicts,
            [true, true, true, false, true, true, true, false],
            "every 4th aimed task probes"
        );
        assert_eq!(t.stats().probes, 2);
        assert_eq!(t.stats().rerouted_tasks, 6);
        // Healthy servers are never diverted.
        assert!(!t.should_divert(0));
        assert_eq!(t.stats().rerouted_tasks, 6);
    }

    #[test]
    fn quorum_floor_caps_ejections() {
        // 5 servers, floor 80% → min_healthy = ceil(4.0) = 4: at most one
        // ejection even though two servers degrade.
        let mut t = HealthTracker::new(quick_config().with_min_healthy_fraction(0.8), 5);
        feed(&mut t, 5, &[3, 4], 60);
        assert_eq!(t.min_healthy(), 4);
        assert_eq!(t.healthy_count(), 4);
        assert_eq!(
            t.ejected.iter().filter(|&&e| e).count(),
            1,
            "exactly the floor budget is spent"
        );
        assert!(t.stats().floor_denials > 0);
    }

    #[test]
    fn worst_server_gets_the_floor_budget() {
        // Two degraded servers but floor room for one: the slower one goes.
        let mut t = HealthTracker::new(quick_config().with_min_healthy_fraction(0.75), 4);
        for _ in 0..60 {
            t.observe(0, ms(0.2));
            t.observe(1, ms(0.2));
            t.observe(2, ms(2.0));
            t.observe(3, ms(5.0));
        }
        assert_eq!(t.min_healthy(), 3);
        assert!(t.is_ejected(3), "worst outlier ejected");
        assert!(!t.is_ejected(2), "floor keeps the milder one");
    }

    #[test]
    fn too_few_observations_never_eject() {
        let mut t = HealthTracker::new(quick_config().with_min_observations(1_000), 4);
        feed(&mut t, 4, &[0], 50);
        assert_eq!(t.healthy_count(), 4);
        assert_eq!(t.stats().ejections, 0);
    }

    #[test]
    fn scores_track_observations() {
        let config = HealthConfig {
            alpha: 0.5,
            ..quick_config()
        };
        let mut t = HealthTracker::new(config, 2);
        t.observe(0, ms(1.0));
        assert_eq!(t.scores()[0], 1.0, "first observation seeds the EWMA");
        t.observe(0, ms(3.0));
        assert!((t.scores()[0] - 2.0).abs() < 1e-12);
        assert_eq!(t.scores()[1], 0.0, "unobserved server scores 0");
    }

    #[test]
    fn config_builders_validate() {
        let c = HealthConfig::new()
            .with_thresholds(4.0, 2.0)
            .with_min_observations(10)
            .with_probe_every(5)
            .with_min_healthy_fraction(0.5)
            .with_eval_every(32);
        assert_eq!(c.eject_multiplier, 4.0);
        assert_eq!(c.readmit_multiplier, 2.0);
        assert_eq!(c.min_observations, 10);
        assert_eq!(c.probe_every, 5);
        assert_eq!(c.min_healthy_fraction, 0.5);
        assert_eq!(c.eval_every, 32);
    }

    #[test]
    #[should_panic(expected = "readmit < eject")]
    fn inverted_thresholds_panic() {
        let _ = HealthConfig::new().with_thresholds(2.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "probe_every")]
    fn probe_every_one_panics() {
        let _ = HealthConfig::new().with_probe_every(1);
    }

    #[test]
    #[should_panic(expected = "min_healthy_fraction")]
    fn zero_floor_panics() {
        let _ = HealthConfig::new().with_min_healthy_fraction(0.0);
    }

    /// The full-sort `evaluate` that median selection replaced: sorts
    /// every scored server, reads the lower median, then scans them all.
    fn evaluate_by_full_sort(t: &mut HealthTracker) {
        t.scratch.clear();
        for (s, (&score, &n)) in t.ewma.iter().zip(&t.count).enumerate() {
            if n >= t.config.min_observations {
                t.scratch.push((score, s as u32));
            }
        }
        if t.scratch.is_empty() {
            return;
        }
        t.scratch
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let median = t.scratch[(t.scratch.len() - 1) / 2].0;
        if median <= 0.0 {
            return;
        }
        let eject_above = median * t.config.eject_multiplier;
        let readmit_below = median * t.config.readmit_multiplier;
        for &(score, s) in t.scratch.iter() {
            let s = s as usize;
            if t.ejected[s] && score < readmit_below {
                t.ejected[s] = false;
                t.probe_counter[s] = 0;
                t.healthy += 1;
                t.stats.readmissions += 1;
                t.transitions.push((s as u32, false));
            }
        }
        for i in (0..t.scratch.len()).rev() {
            let (score, s) = t.scratch[i];
            let s = s as usize;
            if t.ejected[s] || score <= eject_above {
                continue;
            }
            if t.healthy <= t.min_healthy {
                t.stats.floor_denials += 1;
                continue;
            }
            t.ejected[s] = true;
            t.healthy -= 1;
            t.stats.ejections += 1;
            t.transitions.push((s as u32, true));
        }
    }

    /// A tracker in a random state: scores from a small set (so ties are
    /// common), some servers under `min_observations`, some ejected.
    fn random_tracker(rng: &mut SimRng, servers: usize) -> HealthTracker {
        let floor = [0.2, 0.5, 0.8, 1.0][rng.index(4)];
        let config = quick_config().with_min_healthy_fraction(floor);
        let mut t = HealthTracker::new(config, servers);
        for s in 0..servers {
            t.ewma[s] = [0.0, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0][rng.index(8)];
            t.count[s] = if rng.chance(0.8) { 5 } else { 4 };
            t.ejected[s] = rng.chance(0.3);
            t.probe_counter[s] = rng.index(3) as u32;
        }
        t.healthy = t.ejected.iter().filter(|&&e| !e).count();
        t
    }

    #[test]
    fn median_selection_matches_the_full_sort() {
        let (mut moves, mut denials) = (0, 0);
        for seed in 0..2_000 {
            // Odd and even counts, small and past the size at which
            // selection stops sorting its whole input.
            let servers = match seed % 2 {
                0 => 1 + (seed / 2 % 12) as usize,
                _ => 20 + (seed / 2 % 90) as usize,
            };
            let mut fast = random_tracker(&mut SimRng::seed(seed), servers);
            let mut slow = random_tracker(&mut SimRng::seed(seed), servers);
            fast.evaluate();
            evaluate_by_full_sort(&mut slow);
            assert_eq!(fast.transitions, slow.transitions, "seed {seed}");
            assert_eq!(fast.stats, slow.stats, "seed {seed}");
            assert_eq!(fast.ejected, slow.ejected, "seed {seed}");
            assert_eq!(fast.probe_counter, slow.probe_counter, "seed {seed}");
            assert_eq!(fast.healthy, slow.healthy, "seed {seed}");
            moves += fast.transitions.len();
            denials += fast.stats.floor_denials;
        }
        assert!(
            moves > 1_000 && denials > 100,
            "{moves} moves, {denials} denials"
        );
    }
}
