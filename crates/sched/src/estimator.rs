//! Task queuing deadline estimation — the paper's task decomposition
//! (§III.B).
//!
//! For a query of class `c` (SLO `x_p^SLO`) with fanout `k_f` dispatched to
//! a known set of servers, the estimator computes the *task pre-dequeuing
//! time budget*
//!
//! ```text
//! T_b = x_p^SLO − x_p^u(k_f)                        (Eq. 6)
//! ```
//!
//! where `x_p^u(k_f)` solves `Π_l F_l^u(t) = p` over the unloaded
//! response-time CDFs of the chosen servers (Eqs. 1–2). The query handler
//! then stamps every task of the query with the deadline `t_D = t_0 + T_b`.
//!
//! Two CDF sources are supported, mirroring §III.B.2:
//!
//! * [`EstimatorMode::Analytic`] — the true service distributions of the
//!   cluster (the idealized simulation setting),
//! * [`EstimatorMode::Online`] — per-group streaming histograms seeded by an
//!   offline estimation pass and updated as task results return, with
//!   budgets recomputed in the background every `refresh_every` samples.
//!
//! Servers are organized into *groups* sharing a CDF (all servers in the
//! homogeneous simulations; one group per hardware cluster in the SaS
//! testbed — "we let all 8 edge nodes in each cluster share the same CDF").
//! `x_p^u(k_f)` is solved once per `(class, group-multiset)` and cached.
//! When the multiset depends on the fanout alone (one group, or no explicit
//! placement) the cache is a table indexed by class and fanout, so the
//! steady-state cost of a deadline is a few indexed loads and a subtraction —
//! the "lightweight" property the paper claims.

use crate::config::{ClassSpec, ClusterSpec};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;
use tailguard_dist::{order_stats, Cdf, CdfSnapshot, DynDistribution, LogHistogram};
use tailguard_simcore::{SimDuration, SimRng};

/// `x_p^u` memo for multi-group explicit placements (the SaS testbed),
/// one map per class keyed by group occupancy. Lookups borrow the key as a
/// slice of the estimator's reused key scratch, so a hit allocates nothing.
type Memo = Vec<BTreeMap<GroupKey, SimDuration>>;

/// A dense-table cell not solved since the last refresh.
const UNSOLVED: SimDuration = SimDuration::MAX;

/// Fanouts at or above this go to the [`Memo`] rather than the dense table:
/// a fanout can come from an input trace, and one huge value must not size
/// a row.
const DENSE_FANOUTS: usize = 1 << 16;

/// Where the estimator's per-server CDFs come from.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorMode {
    /// Use the cluster's true service distributions (idealized; the
    /// simulation setting of §IV.B–D).
    Analytic,
    /// Maintain per-group streaming histograms updated from observed task
    /// post-queuing times (§III.B.2).
    Online {
        /// Recompute cached budgets after this many new observations.
        refresh_every: u64,
        /// Samples drawn per group in the offline seeding pass
        /// ([`DeadlineEstimator::seed_offline`]).
        offline_samples: usize,
    },
}

impl EstimatorMode {
    /// The default online configuration: refresh every 10 000 observations,
    /// seed with 100 000 offline samples per group.
    pub fn online_default() -> Self {
        EstimatorMode::Online {
            refresh_every: 10_000,
            offline_samples: 100_000,
        }
    }
}

/// Windowed/decayed CDF adaptation for [`EstimatorMode::Online`].
///
/// A cumulative online histogram never forgets: after a server degrades,
/// `x_p^u(k)` converges to the *average* of the pre- and post-shift
/// distributions instead of the current one, so stamped deadlines stay
/// wrong forever. With an adaptive window, every `window` observations the
/// histograms are decayed by `decay` (exponential forgetting of old mass)
/// and the budget caches are invalidated, so quantiles re-converge to the
/// shifted distribution at a rate set by `(window, decay)`.
///
/// Disabled (`None` on the estimator) by default — runs without it are
/// bit-identical to pre-adaptive ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveWindow {
    /// Observations between window rolls.
    pub window: u64,
    /// Multiplier applied to every histogram bucket at each roll
    /// (`0 ≤ decay < 1`; 0 forgets everything, 0.5 halves old mass).
    pub decay: f64,
}

impl AdaptiveWindow {
    /// Creates an adaptive window.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or `decay` is outside `[0, 1)`.
    pub fn new(window: u64, decay: f64) -> Self {
        assert!(
            window >= 1,
            "adaptive window must be at least 1 observation"
        );
        assert!(
            decay.is_finite() && (0.0..1.0).contains(&decay),
            "adaptive decay must lie in [0, 1), got {decay}"
        );
        AdaptiveWindow { window, decay }
    }
}

/// A multiset of server groups, canonicalized as `(group, count)` pairs
/// sorted by group id — the cache key for budgets.
type GroupKey = Vec<(u32, u32)>;

enum CdfSource {
    Analytic(Vec<DynDistribution>), // one per group
    Online(Vec<Arc<CdfSnapshot>>),  // one per group
}

impl CdfSource {
    /// Group `g`'s CDF.
    #[expect(
        clippy::indexing_slicing,
        reason = "group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    fn group(&self, g: u32) -> &dyn Cdf {
        let g = g as usize;
        match self {
            CdfSource::Analytic(reps) => reps[g].as_ref(),
            CdfSource::Online(snaps) => snaps[g].as_ref(),
        }
    }
}

/// Computes task pre-dequeuing budgets `T_b(x_p^SLO, k_f)` (Eq. 6).
///
/// # Example
///
/// ```
/// use tailguard_sched::{ClassSpec, ClusterSpec, DeadlineEstimator, EstimatorMode};
/// use tailguard_simcore::SimDuration;
/// use tailguard_workload::TailbenchWorkload;
///
/// let cluster = ClusterSpec::homogeneous(100, TailbenchWorkload::Masstree.service_dist());
/// let classes = vec![ClassSpec::p99(SimDuration::from_millis_f64(1.0))];
/// let mut est = DeadlineEstimator::new(&cluster, classes, EstimatorMode::Analytic);
///
/// // Paper §IV.C: budget for class I at fanout 100 is 1 − 0.473 ≈ 0.527 ms.
/// let b = est.budget(0, 100, &[0; 0]); // empty server list = uniform placement
/// assert!((b.as_millis_f64() - 0.527).abs() < 0.01);
/// ```
pub struct DeadlineEstimator {
    classes: Vec<ClassSpec>,
    group_of: Vec<u32>,    // server -> group
    group_sizes: Vec<u32>, // group -> member count
    group_count: usize,
    source: CdfSource,
    hists: Vec<LogHistogram>, // per group; empty in analytic mode
    /// `x_p^u(k_f)` per class, indexed by fanout, for keys that depend on
    /// `(class, k_f)` alone; rows grow on a miss, refreshes reset cells to
    /// [`UNSOLVED`].
    dense: Vec<Vec<SimDuration>>,
    dense_solved: usize, // cells of `dense` not UNSOLVED
    memo: Memo,
    counts_scratch: Vec<u32>, // group -> count, reused across group_key calls
    key_scratch: GroupKey,    // the last key group_key built
    budget_lookups: u64,
    refresh_every: u64,
    since_refresh: u64,
    refreshes: u64,
    adaptive: Option<AdaptiveWindow>,
    since_roll: u64,
    window_rolls: u64,
}

impl std::fmt::Debug for DeadlineEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineEstimator")
            .field("classes", &self.classes.len())
            .field("groups", &self.group_count)
            .field("cached_budgets", &self.cached_budget_count())
            .field("refreshes", &self.refreshes)
            .finish()
    }
}

impl DeadlineEstimator {
    /// Creates an estimator for `cluster` and `classes`.
    ///
    /// Server groups are derived from the cluster: servers sharing the same
    /// distribution object form one group.
    ///
    /// In [`EstimatorMode::Online`] the histograms start empty — call
    /// [`DeadlineEstimator::seed_offline`] to run the offline estimation
    /// pass before the first budget query, or budgets fall back to the
    /// analytic CDFs until data arrives.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "group/server counts are far below 2^32"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    pub fn new(cluster: &ClusterSpec, classes: Vec<ClassSpec>, mode: EstimatorMode) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        // Group servers by distribution identity.
        let mut group_of = Vec::with_capacity(cluster.servers());
        let mut reps: Vec<DynDistribution> = Vec::new();
        for i in 0..cluster.servers() {
            let d = cluster.service_of(i);
            let gid = reps
                .iter()
                .position(|r| Arc::ptr_eq(r, d))
                .unwrap_or_else(|| {
                    reps.push(Arc::clone(d));
                    // tg-lint: allow(unsigned-sub) -- group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list
                    reps.len() - 1
                });
            group_of.push(gid as u32);
        }
        let group_count = reps.len();
        let mut group_sizes = vec![0u32; group_count];
        for &g in &group_of {
            group_sizes[g as usize] += 1;
        }
        let (source, hists, refresh_every) = match mode {
            EstimatorMode::Analytic => (CdfSource::Analytic(reps), Vec::new(), u64::MAX),
            EstimatorMode::Online { refresh_every, .. } => (
                CdfSource::Analytic(reps), // fallback until seeded
                vec![LogHistogram::new(); group_count],
                refresh_every,
            ),
        };
        DeadlineEstimator {
            memo: vec![BTreeMap::new(); classes.len()],
            classes,
            group_of,
            group_sizes,
            group_count,
            source,
            hists,
            dense: Vec::new(),
            dense_solved: 0,
            counts_scratch: vec![0; group_count],
            key_scratch: Vec::with_capacity(group_count),
            budget_lookups: 0,
            refresh_every,
            since_refresh: 0,
            refreshes: 0,
            adaptive: None,
            since_roll: 0,
            window_rolls: 0,
        }
    }

    /// Enables windowed/decayed CDF adaptation (builder-style). Only
    /// meaningful in [`EstimatorMode::Online`]; analytic estimators ignore
    /// observations entirely, so the window never rolls.
    pub fn with_adaptive(mut self, adaptive: AdaptiveWindow) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Runs the paper's offline estimation process: samples each group's
    /// true distribution `samples` times into its histogram and switches the
    /// estimator onto the measured CDFs.
    ///
    /// No-op in analytic mode.
    #[expect(
        clippy::indexing_slicing,
        reason = "`group_of` has one entry per server of the cluster; group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    pub fn seed_offline(&mut self, cluster: &ClusterSpec, samples: usize, rng: &mut SimRng) {
        if self.hists.is_empty() {
            return;
        }
        for server in 0..cluster.servers() {
            let g = self.group_of[server] as usize;
            // Spread samples evenly across the group's servers.
            let per_server = samples.div_ceil(self.group_sizes[g] as usize);
            let d = cluster.service_of(server);
            for _ in 0..per_server {
                self.hists[g].record(d.sample(rng));
            }
        }
        self.rebuild_snapshots();
    }

    /// Records an observed task post-queuing time for `server` (the online
    /// updating process). Cached budgets are refreshed every
    /// `refresh_every` observations.
    ///
    /// # Panics
    ///
    /// Panics when `server` is out of range.
    /// `t` is a virtual-time duration (nanosecond domain).
    #[expect(
        clippy::indexing_slicing,
        reason = "`group_of` has one entry per server of the cluster; group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    pub fn record_post_queuing(&mut self, server: usize, t: SimDuration) {
        if self.hists.is_empty() {
            return; // analytic mode ignores observations
        }
        let g = self.group_of[server] as usize;
        self.hists[g].record(t.as_millis_f64());
        self.since_refresh += 1;
        if let Some(aw) = self.adaptive {
            self.since_roll += 1;
            if self.since_roll >= aw.window {
                self.roll_window(aw.decay);
                return;
            }
        }
        if self.since_refresh >= self.refresh_every {
            self.rebuild_snapshots();
        }
    }

    /// Decays every group histogram and rebuilds the snapshots + caches —
    /// the window-roll half of the online updating process. Old mass fades
    /// exponentially, so `x_p^u(k)` tracks the *current* distribution
    /// instead of the lifetime average.
    fn roll_window(&mut self, decay: f64) {
        for h in &mut self.hists {
            h.decay(decay);
        }
        self.rebuild_snapshots();
        self.since_roll = 0;
        self.window_rolls += 1;
    }

    fn rebuild_snapshots(&mut self) {
        let snaps: Vec<Arc<CdfSnapshot>> =
            self.hists.iter().map(|h| Arc::new(h.snapshot())).collect();
        // Only switch to measured CDFs once every group has data; otherwise
        // a fanout spanning an empty group would see cdf == 0 forever.
        if snaps.iter().all(|s| !s.is_empty()) {
            self.source = CdfSource::Online(snaps);
        }
        for row in &mut self.dense {
            row.fill(UNSOLVED);
        }
        self.dense_solved = 0;
        self.memo.iter_mut().for_each(BTreeMap::clear);
        self.since_refresh = 0;
        self.refreshes += 1;
    }

    /// Number of background refreshes performed so far.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// The adaptive window, when one is configured
    /// ([`DeadlineEstimator::with_adaptive`]).
    pub fn adaptive(&self) -> Option<AdaptiveWindow> {
        self.adaptive
    }

    /// Number of adaptive window rolls (decay + cache invalidation)
    /// performed so far. Always zero without [`AdaptiveWindow`].
    pub fn window_roll_count(&self) -> u64 {
        self.window_rolls
    }

    /// Forces an immediate snapshot rebuild and cache flush — used after an
    /// explicit offline calibration pass so budgets come from measured CDFs
    /// from the very first query. No-op in analytic mode.
    pub fn refresh_now(&mut self) {
        if !self.hists.is_empty() {
            self.rebuild_snapshots();
        }
    }

    /// The class table.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Builds the key of `fanout` tasks on `servers` into `key_scratch`
    /// and returns it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "group/server counts are far below 2^32"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    fn group_key(&mut self, fanout: u32, servers: &[u32]) -> &[(u32, u32)] {
        self.key_scratch.clear();
        if self.group_count == 1 {
            // A homogeneous cluster: all tasks belong to group 0's CDF,
            // wherever they are placed.
            self.key_scratch.push((0, fanout));
            return &self.key_scratch;
        }
        if servers.is_empty() {
            self.apportion(fanout);
        } else {
            // Explicit placement: count tasks per group into the reusable
            // scratch.
            self.counts_scratch.iter_mut().for_each(|c| *c = 0);
            for &s in servers {
                self.counts_scratch[self.group_of[s as usize] as usize] += 1;
            }
        }
        // Indexed by group id, hence already sorted.
        let pairs = self.counts_scratch.iter().enumerate();
        self.key_scratch
            .extend(pairs.filter(|&(_, &c)| c > 0).map(|(g, &c)| (g as u32, c)));
        &self.key_scratch
    }

    /// Unknown placement on a heterogeneous cluster: spreads `fanout` tasks
    /// over the groups in proportion to their sizes into `counts_scratch`,
    /// by largest remainder (ties to the lower group id), so the counts sum
    /// to `fanout`.
    fn apportion(&mut self, fanout: u32) {
        let (k, n) = (u64::from(fanout), self.group_of.len() as u64);
        let mut left = fanout;
        let mut by_remainder = Vec::with_capacity(self.group_count);
        let groups = self.counts_scratch.iter_mut().zip(&self.group_sizes);
        for (g, (count, &members)) in groups.enumerate() {
            let exact = k * u64::from(members); // k·m/n tasks, scaled by n
            *count = u32::try_from(exact.checked_div(n).unwrap_or(0)).unwrap_or(fanout);
            left = left.saturating_sub(*count);
            by_remainder.push((Reverse(exact.checked_rem(n).unwrap_or(0)), g));
        }
        by_remainder.sort_unstable();
        for &(_, g) in by_remainder.iter().take(left as usize) {
            if let Some(count) = self.counts_scratch.get_mut(g) {
                *count += 1;
            }
        }
    }

    /// The unloaded `p`-th percentile query tail latency `x_p^u(k_f)`
    /// (Eq. 2) for a query of `class` with `fanout` tasks on `servers`.
    ///
    /// Pass an empty `servers` slice for uniform placement on a homogeneous
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range or `fanout` is zero.
    pub fn unloaded_query_tail(&mut self, class: u8, fanout: u32, servers: &[u32]) -> SimDuration {
        assert!(fanout >= 1, "fanout must be at least 1");
        self.tail(class, fanout, servers)
    }

    /// The task pre-dequeuing time budget `T_b = x_p^SLO − x_p^u(k_f)`
    /// (Eq. 6), clamped at zero when the unloaded tail already exceeds the
    /// SLO (such queries are maximally urgent).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range or `fanout` is zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    pub fn budget(&mut self, class: u8, fanout: u32, servers: &[u32]) -> SimDuration {
        // tg-lint: hot(admit)
        assert!(fanout >= 1, "fanout must be at least 1");
        self.budget_lookups += 1;
        let slo = self.classes[class as usize].slo;
        slo.saturating_sub(self.tail(class, fanout, servers))
        // tg-lint: endhot
    }

    /// `x_p^u(k_f)`, cached: a dense cell when the key is `(class, k_f)`
    /// alone, the memo for multi-group explicit placements.
    #[inline]
    fn tail(&mut self, class: u8, fanout: u32, servers: &[u32]) -> SimDuration {
        // tg-lint: hot(admit)
        if self.group_count > 1 && !servers.is_empty() {
            return self.memo_tail(class, fanout, servers);
        }
        let row = self.dense.get(usize::from(class));
        match row.and_then(|row| row.get(fanout as usize)) {
            Some(&t) if t != UNSOLVED => t,
            _ => self.solve_dense(class, fanout),
        }
        // tg-lint: endhot
    }

    /// A dense-table miss: solves and fills the `(class, fanout)` cell,
    /// growing the table to hold it.
    #[cold]
    fn solve_dense(&mut self, class: u8, fanout: u32) -> SimDuration {
        let (c, k) = (usize::from(class), fanout as usize);
        if k >= DENSE_FANOUTS {
            return self.memo_tail(class, fanout, &[]);
        }
        self.group_key(fanout, &[]);
        let t = self.solve(class, &self.key_scratch);
        if self.dense.len() <= c {
            self.dense.resize_with(c + 1, Vec::new);
        }
        if let Some(row) = self.dense.get_mut(c) {
            if row.len() <= k {
                row.resize(k + 1, UNSOLVED);
            }
            if let Some(cell) = row.get_mut(k) {
                *cell = t;
                self.dense_solved += usize::from(t != UNSOLVED);
            }
        }
        t
    }

    fn memo_tail(&mut self, class: u8, fanout: u32, servers: &[u32]) -> SimDuration {
        self.group_key(fanout, servers);
        let memo = self.memo.get(usize::from(class));
        if let Some(&t) = memo.and_then(|m| m.get(self.key_scratch.as_slice())) {
            return t;
        }
        let t = self.solve(class, &self.key_scratch);
        if let Some(m) = self.memo.get_mut(usize::from(class)) {
            m.insert(self.key_scratch.clone(), t);
        }
        t
    }

    /// Solves Eq. 2 for `class`'s percentile over the multiset `key`.
    #[expect(
        clippy::indexing_slicing,
        reason = "group tables (`group_of`, `reps`, `hists`, `group_sizes`, `counts_scratch`) are rebuilt together by the grouping pass, so entries of one index the others by construction; per-class specs are sized from the class list"
    )]
    fn solve(&self, class: u8, key: &[(u32, u32)]) -> SimDuration {
        let p = self.classes[class as usize].percentile;
        let pairs: Vec<(&dyn Cdf, u32)> = key
            .iter()
            .map(|&(g, c)| (self.source.group(g), c))
            .collect();
        let ms = order_stats::grouped_quantile(&pairs, p);
        SimDuration::from_millis_f64(ms)
    }

    /// Number of distinct `(class, placement)` budgets currently cached.
    pub fn cached_budget_count(&self) -> usize {
        self.dense_solved + self.memo.iter().map(BTreeMap::len).sum::<usize>()
    }

    /// Total [`DeadlineEstimator::budget`] calls over the estimator's
    /// lifetime (hits and misses alike). `budget_lookup_count() −
    /// cached_budget_count()` lower-bounds the cache hits since the last
    /// refresh — the steady-state "one cached lookup per deadline" property.
    pub fn budget_lookup_count(&self) -> u64 {
        self.budget_lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_dist::{Deterministic, Distribution, Exponential};
    use tailguard_simcore::SimTime;
    use tailguard_workload::TailbenchWorkload;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn masstree_cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, TailbenchWorkload::Masstree.service_dist())
    }

    #[test]
    fn paper_section_ivc_budgets() {
        // §IV.C: Masstree, fanout 100, class I SLO 1ms, class II 1.5ms:
        // budgets 1−0.473 = 0.527 ms and 1.5−0.473 = 1.027 ms.
        let cluster = masstree_cluster(100);
        let classes = vec![ClassSpec::p99(ms(1.0)), ClassSpec::p99(ms(1.5))];
        let mut est = DeadlineEstimator::new(&cluster, classes, EstimatorMode::Analytic);
        let b0 = est.budget(0, 100, &[]);
        let b1 = est.budget(1, 100, &[]);
        assert!((b0.as_millis_f64() - 0.527).abs() < 0.01, "b0={b0}");
        assert!((b1.as_millis_f64() - 1.027).abs() < 0.01, "b1={b1}");
    }

    #[test]
    fn budget_decreases_with_fanout() {
        let cluster = masstree_cluster(100);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        );
        let b1 = est.budget(0, 1, &[]);
        let b10 = est.budget(0, 10, &[]);
        let b100 = est.budget(0, 100, &[]);
        assert!(b1 > b10 && b10 > b100);
    }

    #[test]
    fn budget_clamps_at_zero() {
        // SLO below even the unloaded tail.
        let cluster = masstree_cluster(10);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(0.1))],
            EstimatorMode::Analytic,
        );
        assert_eq!(est.budget(0, 10, &[]), SimDuration::ZERO);
    }

    #[test]
    fn budgets_are_cached() {
        let cluster = masstree_cluster(100);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        );
        let _ = est.budget(0, 100, &[]);
        let _ = est.budget(0, 100, &[]);
        let _ = est.budget(0, 10, &[]);
        assert_eq!(est.cached_budget_count(), 2);
    }

    #[test]
    fn heterogeneous_placement_matters() {
        let fast: DynDistribution = Arc::new(Exponential::with_mean(0.1));
        let slow: DynDistribution = Arc::new(Exponential::with_mean(1.0));
        let cluster = ClusterSpec::heterogeneous(vec![
            Arc::clone(&fast),
            Arc::clone(&fast),
            Arc::clone(&slow),
            Arc::clone(&slow),
        ]);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(10.0))],
            EstimatorMode::Analytic,
        );
        let fast_budget = est.budget(0, 2, &[0, 1]);
        let slow_budget = est.budget(0, 2, &[2, 3]);
        assert!(
            fast_budget > slow_budget,
            "fast placement must leave more budget: {fast_budget} vs {slow_budget}"
        );
        // Mixed placement lies in between.
        let mixed = est.budget(0, 2, &[0, 2]);
        assert!(mixed < fast_budget && mixed >= slow_budget);
    }

    #[test]
    fn group_key_canonical_across_orderings() {
        let fast: DynDistribution = Arc::new(Exponential::with_mean(0.1));
        let slow: DynDistribution = Arc::new(Exponential::with_mean(1.0));
        let cluster =
            ClusterSpec::heterogeneous(vec![Arc::clone(&fast), Arc::clone(&slow), fast, slow]);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(10.0))],
            EstimatorMode::Analytic,
        );
        let a = est.budget(0, 2, &[0, 1]);
        let b = est.budget(0, 2, &[3, 2]); // same group multiset, other order
        assert_eq!(a, b);
        assert_eq!(est.cached_budget_count(), 1);
    }

    #[test]
    fn online_seeded_matches_analytic() {
        let cluster = masstree_cluster(100);
        let classes = vec![ClassSpec::p99(ms(1.0))];
        let mut analytic =
            DeadlineEstimator::new(&cluster, classes.clone(), EstimatorMode::Analytic);
        let mut online = DeadlineEstimator::new(
            &cluster,
            classes,
            EstimatorMode::Online {
                refresh_every: 10_000,
                offline_samples: 400_000,
            },
        );
        let mut rng = SimRng::seed(5);
        online.seed_offline(&cluster, 400_000, &mut rng);
        for k in [1u32, 10, 100] {
            let a = analytic.budget(0, k, &[]).as_millis_f64();
            let o = online.budget(0, k, &[]).as_millis_f64();
            assert!((a - o).abs() < 0.05, "k={k}: analytic {a} vs online {o}");
        }
    }

    #[test]
    fn online_tracks_server_slowdown() {
        // Failure injection: a server group slows down 5×; after online
        // updates the budget must tighten (x_p^u grows).
        let base: DynDistribution = Arc::new(Exponential::with_mean(0.2));
        let cluster = ClusterSpec::heterogeneous(vec![Arc::clone(&base), base]);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(20.0))],
            EstimatorMode::Online {
                refresh_every: 2_000,
                offline_samples: 50_000,
            },
        );
        let mut rng = SimRng::seed(6);
        est.seed_offline(&cluster, 50_000, &mut rng);
        let before = est.budget(0, 2, &[0, 1]);

        // Both servers now observed 5× slower.
        let slow = Exponential::with_mean(1.0);
        for _ in 0..200_000 {
            est.record_post_queuing(0, ms(slow.sample(&mut rng)));
            est.record_post_queuing(1, ms(slow.sample(&mut rng)));
        }
        let after = est.budget(0, 2, &[0, 1]);
        assert!(
            after < before,
            "budget must tighten after slowdown: {before} -> {after}"
        );
        assert!(est.refresh_count() > 10);
    }

    #[test]
    fn adaptive_window_reconverges_after_shift() {
        // A server group shifts from mean 0.2 ms to mean 1.0 ms. The
        // cumulative estimator averages both regimes; the adaptive one
        // forgets the old regime and re-converges to the new tail, so its
        // post-shift budget is strictly tighter.
        let make = |adaptive: Option<AdaptiveWindow>| {
            let base: DynDistribution = Arc::new(Exponential::with_mean(0.2));
            let cluster = ClusterSpec::heterogeneous(vec![Arc::clone(&base), base]);
            let mut est = DeadlineEstimator::new(
                &cluster,
                vec![ClassSpec::p99(ms(20.0))],
                EstimatorMode::Online {
                    refresh_every: 2_000,
                    offline_samples: 0,
                },
            );
            if let Some(aw) = adaptive {
                est = est.with_adaptive(aw);
            }
            let mut rng = SimRng::seed(6);
            est.seed_offline(&cluster, 100_000, &mut rng);
            // The shift: both servers now serve 5× slower.
            let slow = Exponential::with_mean(1.0);
            for _ in 0..50_000 {
                est.record_post_queuing(0, ms(slow.sample(&mut rng)));
                est.record_post_queuing(1, ms(slow.sample(&mut rng)));
            }
            est
        };
        let mut cumulative = make(None);
        let mut adaptive = make(Some(AdaptiveWindow::new(4_000, 0.3)));
        assert_eq!(cumulative.window_roll_count(), 0);
        assert!(adaptive.window_roll_count() >= 10);
        let c = adaptive.budget(0, 2, &[0, 1]);
        let s = cumulative.budget(0, 2, &[0, 1]);
        assert!(
            c < s,
            "adaptive budget must tighten past the stale average: adaptive {c} vs cumulative {s}"
        );
        // The adaptive tail is near the true post-shift tail; the
        // cumulative one is dragged low by 100k pre-shift samples.
        let true_tail = {
            let slow: DynDistribution = Arc::new(Exponential::with_mean(1.0));
            let cluster = ClusterSpec::heterogeneous(vec![Arc::clone(&slow), slow]);
            DeadlineEstimator::new(
                &cluster,
                vec![ClassSpec::p99(ms(20.0))],
                EstimatorMode::Analytic,
            )
            .unloaded_query_tail(0, 2, &[0, 1])
            .as_millis_f64()
        };
        let adaptive_tail = adaptive.unloaded_query_tail(0, 2, &[0, 1]).as_millis_f64();
        let cumulative_tail = cumulative
            .unloaded_query_tail(0, 2, &[0, 1])
            .as_millis_f64();
        assert!(
            (adaptive_tail - true_tail).abs() < (cumulative_tail - true_tail).abs(),
            "adaptive {adaptive_tail} must sit closer to true {true_tail} than cumulative {cumulative_tail}"
        );
    }

    #[test]
    fn window_roll_invalidates_caches() {
        let cluster = masstree_cluster(10);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Online {
                refresh_every: u64::MAX - 1,
                offline_samples: 0,
            },
        )
        .with_adaptive(AdaptiveWindow::new(100, 0.5));
        let mut rng = SimRng::seed(3);
        est.seed_offline(&cluster, 10_000, &mut rng);
        let _ = est.budget(0, 10, &[]);
        assert_eq!(est.cached_budget_count(), 1);
        for _ in 0..100 {
            est.record_post_queuing(0, ms(0.3));
        }
        assert_eq!(est.window_roll_count(), 1);
        assert_eq!(est.cached_budget_count(), 0, "roll must flush the memo");
    }

    #[test]
    fn adaptive_in_analytic_mode_never_rolls() {
        let cluster = masstree_cluster(10);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        )
        .with_adaptive(AdaptiveWindow::new(10, 0.5));
        for _ in 0..1_000 {
            est.record_post_queuing(0, ms(100.0));
        }
        assert_eq!(est.window_roll_count(), 0);
        assert_eq!(est.refresh_count(), 0);
    }

    #[test]
    #[should_panic(expected = "adaptive decay")]
    fn adaptive_decay_of_one_panics() {
        let _ = AdaptiveWindow::new(100, 1.0);
    }

    #[test]
    #[should_panic(expected = "adaptive window")]
    fn adaptive_zero_window_panics() {
        let _ = AdaptiveWindow::new(0, 0.5);
    }

    #[test]
    fn budget_lookup_counter_counts_hits_and_misses() {
        let cluster = masstree_cluster(100);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        );
        for _ in 0..100 {
            let _ = est.budget(0, 100, &[]);
        }
        assert_eq!(est.budget_lookup_count(), 100);
        assert_eq!(est.cached_budget_count(), 1);
    }

    #[test]
    fn permuted_placements_share_one_memo_entry() {
        // The key is canonical: the same multiset of groups, in any server
        // order, hits the same cache entry.
        let dists: Vec<DynDistribution> = (1..=6)
            .map(|i| Arc::new(Exponential::with_mean(0.1 * i as f64)) as DynDistribution)
            .collect();
        let cluster = ClusterSpec::heterogeneous(dists);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(50.0))],
            EstimatorMode::Analytic,
        );
        let a = est.budget(0, 6, &[0, 1, 2, 3, 4, 5]);
        let b = est.budget(0, 6, &[5, 4, 3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(est.cached_budget_count(), 1);
        assert!(a > SimDuration::ZERO);
        // A genuinely different multiset gets its own entry.
        let c = est.budget(0, 6, &[0, 0, 1, 2, 3, 4]);
        assert_ne!(a, c);
        assert_eq!(est.cached_budget_count(), 2);
    }

    #[test]
    fn deadline_is_t0_plus_budget() {
        // Smoke-test the Eq. 6 composition used by the query handler.
        let cluster = masstree_cluster(100);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        );
        let t0 = SimTime::from_millis(7);
        let deadline = t0 + est.budget(0, 100, &[]);
        assert!(deadline > t0);
        assert!(deadline < t0 + ms(1.0));
    }

    #[test]
    fn analytic_ignores_observations() {
        let cluster = masstree_cluster(10);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(1.0))],
            EstimatorMode::Analytic,
        );
        let before = est.budget(0, 10, &[]);
        for _ in 0..50_000 {
            est.record_post_queuing(0, ms(100.0));
        }
        // Cache not even invalidated: same value, zero refreshes.
        assert_eq!(est.budget(0, 10, &[]), before);
        assert_eq!(est.refresh_count(), 0);
    }

    #[test]
    fn unknown_placement_on_heterogeneous_spreads_proportionally() {
        let fast: DynDistribution = Arc::new(Deterministic::new(0.1));
        let slow: DynDistribution = Arc::new(Deterministic::new(1.0));
        let cluster = ClusterSpec::heterogeneous(vec![
            Arc::clone(&fast),
            Arc::clone(&fast),
            Arc::clone(&fast),
            slow,
        ]);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(5.0))],
            EstimatorMode::Analytic,
        );
        // fanout 4, unknown placement: 3 fast + 1 slow → tail = 1.0ms.
        let tail = est.unloaded_query_tail(0, 4, &[]);
        assert!((tail.as_millis_f64() - 1.0).abs() < 1e-6, "tail {tail}");
    }

    /// An analytic estimator over groups of the given sizes (one
    /// distribution object per group).
    fn grouped(sizes: &[usize]) -> DeadlineEstimator {
        let servers = sizes
            .iter()
            .enumerate()
            .flat_map(|(g, &n)| {
                let d: DynDistribution = Arc::new(Exponential::with_mean(0.1 * (g + 1) as f64));
                std::iter::repeat_n(d, n)
            })
            .collect();
        DeadlineEstimator::new(
            &ClusterSpec::heterogeneous(servers),
            vec![ClassSpec::p99(ms(50.0))],
            EstimatorMode::Analytic,
        )
    }

    #[test]
    fn unknown_placement_apportions_exactly_fanout_tasks() {
        for sizes in [&[8, 8, 8][..], &[3, 1]] {
            let mut est = grouped(sizes);
            for k in 1..=sizes.iter().sum::<usize>() as u32 {
                let key = est.group_key(k, &[]);
                let total: u32 = key.iter().map(|&(_, c)| c).sum();
                assert_eq!(total, k, "sizes {sizes:?} k {k}: {key:?}");
            }
        }
        // Largest remainder, ties to the lower group id.
        let mut est = grouped(&[8, 8, 8]);
        assert_eq!(est.group_key(1, &[])[..], [(0, 1)]);
        assert_eq!(est.group_key(2, &[])[..], [(0, 1), (1, 1)]);
        assert_eq!(est.group_key(4, &[])[..], [(0, 2), (1, 1), (2, 1)]);
        let mut est = grouped(&[1, 3]);
        assert_eq!(est.group_key(2, &[])[..], [(0, 1), (1, 1)]);
        assert_eq!(est.group_key(3, &[])[..], [(0, 1), (1, 2)]);
    }

    #[test]
    fn homogeneous_placements_share_one_dense_cell() {
        let cluster = masstree_cluster(100);
        let classes = vec![ClassSpec::p99(ms(1.0)), ClassSpec::p99(ms(1.5))];
        let mut est = DeadlineEstimator::new(&cluster, classes, EstimatorMode::Analytic);
        let explicit: Vec<u32> = (40..50).collect();
        for class in 0..2u8 {
            let unknown = est.budget(class, 10, &[]);
            assert_eq!(est.budget(class, 10, &explicit), unknown);
            assert_eq!(est.budget(class, 10, &[3; 10]), unknown);
        }
        assert_eq!(est.cached_budget_count(), 2, "one cell per class");
        assert!(est.memo.iter().all(BTreeMap::is_empty));
        assert_eq!(
            est.unloaded_query_tail(1, 10, &[]),
            ms(1.5).saturating_sub(est.budget(1, 10, &[]))
        );
        assert_eq!(est.cached_budget_count(), 2);
    }

    #[test]
    fn a_refresh_resets_dense_cells_and_keeps_their_rows() {
        let cluster = masstree_cluster(10);
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(ms(5.0))],
            EstimatorMode::Online {
                refresh_every: 1_000,
                offline_samples: 0,
            },
        );
        let mut rng = SimRng::seed(8);
        est.seed_offline(&cluster, 20_000, &mut rng);
        let before = est.budget(0, 10, &[]);
        assert_eq!(est.cached_budget_count(), 1);
        // Every server now observed 5× slower than Masstree's mean.
        let slow = Exponential::with_mean(1.0);
        for i in 0..1_000 {
            est.record_post_queuing(i % 10, ms(slow.sample(&mut rng)));
        }
        assert_eq!(est.refresh_count(), 2);
        assert_eq!(est.cached_budget_count(), 0, "refresh must reset cells");
        assert_eq!(est.dense[0].len(), 11, "the row stays allocated");
        assert!(est.dense[0].iter().all(|&t| t == UNSOLVED));
        let after = est.budget(0, 10, &[]);
        assert!(after < before, "budget must tighten: {before} -> {after}");
        assert_eq!(est.cached_budget_count(), 1);
    }

    #[test]
    fn a_fanout_past_the_dense_table_is_memoized() {
        let mut est = DeadlineEstimator::new(
            &masstree_cluster(10),
            vec![ClassSpec::p99(ms(5.0))],
            EstimatorMode::Analytic,
        );
        let k = DENSE_FANOUTS as u32;
        let b = est.budget(0, k, &[]);
        assert_eq!(est.budget(0, k, &[]), b);
        assert!(est.dense.iter().all(Vec::is_empty));
        assert_eq!(est.memo[0].len(), 1);
        assert_eq!(est.cached_budget_count(), 1);
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 1")]
    fn zero_fanout_panics() {
        let mut est = grouped(&[4]);
        let _ = est.budget(0, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 1 but the index is 1")]
    fn class_out_of_range_panics_on_a_warm_table() {
        let mut est = grouped(&[4]);
        let _ = est.budget(0, 2, &[]);
        let _ = est.budget(1, 2, &[]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 1 but the index is 3")]
    fn class_out_of_range_panics_for_the_tail_too() {
        let _ = grouped(&[2, 2]).unloaded_query_tail(3, 2, &[0, 3]);
    }
}
