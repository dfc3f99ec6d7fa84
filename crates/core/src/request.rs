//! Request-level task decomposition — the Eq. (7) extension (§III.B
//! "A remark on meeting request tail latency SLO").
//!
//! A request is `M` queries issued sequentially, so the request response
//! time is the *sum* of the query response times. Tail percentiles do not
//! add (`x_p^R,SLO ≤ Σ x_p,i^SLO`), but the paper shows the pre-dequeuing
//! budgets do:
//!
//! ```text
//! x_p^R = x_p^{R,u} + Σ_i t_pr,i          (Eq. 7)
//! T_b^R = x_p^{R,SLO} − x_p^{R,u} = Σ_i T_b,i
//! ```
//!
//! where `x_p^{R,u}` is the `p`-th percentile of the *unloaded* request
//! latency (the convolution of the per-query unloaded latencies).
//! [`RequestPlanner`] estimates `x_p^{R,u}` by Monte Carlo over the
//! per-query order statistics and splits the request budget `T_b^R` across
//! queries — equally (the paper's open question's natural baseline) or
//! proportionally to each query's unloaded tail (an ablation).

use crate::spec::{ClusterSpec, QuerySpec, RequestInput};
use tailguard_sched::units;
use tailguard_simcore::{SimDuration, SimRng, SimTime};

/// How a request-level budget is divided among its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSplit {
    /// `T_b,i = T_b^R / M` for all `i`.
    Equal,
    /// `T_b,i ∝ x_p^u(k_i)` — queries with heavier unloaded tails get more
    /// slack.
    ProportionalToTail,
}

/// Per-query budgets derived from a request-level SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBudgets {
    /// The unloaded request tail `x_p^{R,u}` the plan is based on.
    pub unloaded_request_tail: SimDuration,
    /// The total request budget `T_b^R = x_p^{R,SLO} − x_p^{R,u}` (zero when
    /// the SLO is infeasible even unloaded).
    pub total: SimDuration,
    /// One pre-dequeuing budget per query; sums to `total` (± rounding).
    pub per_query: Vec<SimDuration>,
}

/// Plans per-query budgets for sequential multi-query requests.
///
/// # Example
///
/// ```
/// use tailguard::{ClusterSpec, RequestPlanner};
/// use tailguard_simcore::SimDuration;
/// use tailguard_workload::TailbenchWorkload;
///
/// let cluster = ClusterSpec::homogeneous(100, TailbenchWorkload::Masstree.service_dist());
/// let planner = RequestPlanner::new(0.99, 200_000, 1);
/// let budgets = planner.plan(
///     &cluster,
///     &[10, 100],                       // two queries: fanout 10 then 100
///     SimDuration::from_millis_f64(2.0), // request-level p99 SLO
///     tailguard::BudgetSplit::Equal,
/// );
/// assert_eq!(budgets.per_query.len(), 2);
/// assert!(budgets.total > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct RequestPlanner {
    percentile: f64,
    mc_samples: usize,
    seed: u64,
}

impl RequestPlanner {
    /// Creates a planner estimating tails at `percentile` with `mc_samples`
    /// Monte-Carlo draws.
    ///
    /// # Panics
    ///
    /// Panics unless `percentile ∈ (0, 1)` and `mc_samples > 0`.
    pub fn new(percentile: f64, mc_samples: usize, seed: u64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "percentile must lie in (0,1)"
        );
        assert!(mc_samples > 0, "need at least one sample");
        RequestPlanner {
            percentile,
            mc_samples,
            seed,
        }
    }

    /// Draws one unloaded request latency: the sum over queries of the max
    /// over that query's fanout of task service draws (homogeneous cluster).
    fn draw_unloaded_request_ms(
        &self,
        cluster: &ClusterSpec,
        fanouts: &[u32],
        rng: &mut SimRng,
    ) -> f64 {
        fanouts
            .iter()
            .map(|&k| {
                let mut worst: f64 = 0.0;
                for _ in 0..k {
                    // Uniform placement: sample a random server's dist.
                    let s = rng.index(cluster.servers());
                    worst = worst.max(cluster.service_of(s).sample(rng));
                }
                worst
            })
            .sum()
    }

    /// Monte-Carlo estimate of the unloaded request tail `x_p^{R,u}` for a
    /// request of queries with the given fanouts, in ms.
    ///
    /// # Panics
    ///
    /// Panics when `fanouts` is empty or contains a zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded: `rank` is clamped to 1..=len and `samples` holds mc_samples (> 0) draws"
    )]
    pub fn unloaded_request_tail_ms(&self, cluster: &ClusterSpec, fanouts: &[u32]) -> f64 {
        assert!(!fanouts.is_empty(), "request needs at least one query");
        assert!(fanouts.iter().all(|&k| k >= 1), "fanouts must be positive");
        let mut rng = SimRng::seed(self.seed);
        let mut samples: Vec<f64> = (0..self.mc_samples)
            .map(|_| self.draw_unloaded_request_ms(cluster, fanouts, &mut rng))
            .collect();
        samples.sort_by(f64::total_cmp);
        let rank = units::trunc_f64_to_usize((self.percentile * samples.len() as f64).ceil());
        samples[rank.clamp(1, samples.len()) - 1]
    }

    /// Splits the request budget `T_b^R = slo − x_p^{R,u}` across the
    /// queries (Eq. 7's additive property makes any split SLO-safe; the
    /// split changes only resource efficiency).
    /// `request_slo` is a virtual-time duration (nanosecond domain).
    /// `request_slo` is a virtual-time duration (nanosecond domain).
    pub fn plan(
        &self,
        cluster: &ClusterSpec,
        fanouts: &[u32],
        request_slo: SimDuration,
        split: BudgetSplit,
    ) -> RequestBudgets {
        let unloaded =
            SimDuration::from_millis_f64(self.unloaded_request_tail_ms(cluster, fanouts));
        let total = request_slo.saturating_sub(unloaded);
        let m = fanouts.len() as u64;
        let per_query = match split {
            BudgetSplit::Equal => vec![total / m; fanouts.len()],
            BudgetSplit::ProportionalToTail => {
                // Weight by each query's own unloaded tail.
                let weights: Vec<f64> = fanouts
                    .iter()
                    .map(|&k| self.unloaded_request_tail_ms(cluster, &[k]))
                    .collect();
                let sum: f64 = weights.iter().sum();
                weights.iter().map(|w| total.mul_f64(w / sum)).collect()
            }
        };
        RequestBudgets {
            unloaded_request_tail: unloaded,
            total,
            per_query,
        }
    }

    /// Builds a [`RequestInput`] whose queries carry the planned budget
    /// overrides — ready to feed to [`crate::run_simulation`].
    pub fn request_input(
        &self,
        arrival: SimTime,
        class: u8,
        fanouts: &[u32],
        budgets: &RequestBudgets,
    ) -> RequestInput {
        assert_eq!(
            fanouts.len(),
            budgets.per_query.len(),
            "budget count must match query count"
        );
        RequestInput {
            arrival,
            queries: fanouts
                .iter()
                .zip(&budgets.per_query)
                .map(|(&fanout, &budget)| {
                    QuerySpec::new(class, fanout).with_budget_override(budget)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_workload::TailbenchWorkload;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(100, TailbenchWorkload::Masstree.service_dist())
    }

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    #[test]
    fn single_query_request_matches_order_statistics() {
        // For M=1 the MC estimate must agree with Eq. 2's closed form.
        let planner = RequestPlanner::new(0.99, 400_000, 7);
        let mc = planner.unloaded_request_tail_ms(&cluster(), &[10]);
        let analytic = TailbenchWorkload::Masstree.unloaded_query_tail(0.99, 10);
        assert!(
            (mc - analytic).abs() / analytic < 0.03,
            "mc={mc} analytic={analytic}"
        );
    }

    #[test]
    fn request_tail_subadditive_for_concentrated_components() {
        // x_p^{R,u} < Σ x_p,i^u when the per-query latency concentrates
        // (max over a large fanout) — the paper's "in general" inequality
        // that motivates request-level budgeting over naive SLO splitting.
        // (For extremely skewed components quantile subadditivity can fail,
        // which is precisely why Eq. 7 works with budgets, not quantiles.)
        let planner = RequestPlanner::new(0.99, 200_000, 8);
        let joint = planner.unloaded_request_tail_ms(&cluster(), &[100, 100]);
        let single = planner.unloaded_request_tail_ms(&cluster(), &[100]);
        assert!(
            joint < 2.0 * single,
            "joint={joint} vs 2×single={}",
            2.0 * single
        );
        // But more than one query's worth.
        assert!(joint > 1.2 * single, "joint={joint} single={single}");
    }

    #[test]
    fn equal_split_sums_to_total() {
        let planner = RequestPlanner::new(0.99, 100_000, 9);
        let b = planner.plan(&cluster(), &[1, 10, 100], ms(3.0), BudgetSplit::Equal);
        let sum: SimDuration = b.per_query.iter().copied().sum();
        let diff = sum.as_nanos().abs_diff(b.total.as_nanos());
        assert!(diff <= 3, "rounding drift {diff}ns");
        assert!(b.per_query.iter().all(|&x| x == b.per_query[0]));
    }

    #[test]
    fn proportional_split_favors_heavy_queries() {
        let planner = RequestPlanner::new(0.99, 100_000, 10);
        let b = planner.plan(
            &cluster(),
            &[1, 100],
            ms(3.0),
            BudgetSplit::ProportionalToTail,
        );
        assert!(
            b.per_query[1] > b.per_query[0],
            "fanout-100 query should get the larger slice: {:?}",
            b.per_query
        );
        let sum: SimDuration = b.per_query.iter().copied().sum();
        let rel =
            (sum.as_nanos() as f64 - b.total.as_nanos() as f64).abs() / b.total.as_nanos() as f64;
        assert!(rel < 1e-6, "split must conserve the total");
    }

    #[test]
    fn infeasible_slo_gives_zero_budget() {
        let planner = RequestPlanner::new(0.99, 50_000, 11);
        let b = planner.plan(
            &cluster(),
            &[100, 100],
            SimDuration::from_micros(10),
            BudgetSplit::Equal,
        );
        assert_eq!(b.total, SimDuration::ZERO);
        assert!(b.per_query.iter().all(|&x| x.is_zero()));
    }

    #[test]
    fn request_input_carries_overrides() {
        let planner = RequestPlanner::new(0.99, 50_000, 12);
        let budgets = planner.plan(&cluster(), &[10, 100], ms(3.0), BudgetSplit::Equal);
        let input = planner.request_input(SimTime::ZERO, 0, &[10, 100], &budgets);
        assert_eq!(input.queries.len(), 2);
        assert_eq!(
            input.queries[0].budget_override(),
            Some(budgets.per_query[0])
        );
        assert_eq!(input.queries[1].fanout, 100);
    }

    #[test]
    fn eq7_additivity_end_to_end() {
        // Validate Eq. 7's core identity by simulation: a request whose
        // tasks are each delayed exactly t_pr,i before dequeue has loaded
        // tail ≈ unloaded tail + Σ t_pr,i. We emulate fixed pre-dequeue
        // delay by adding it analytically (the equation is deterministic in
        // t_pr given the unloaded distribution).
        let planner = RequestPlanner::new(0.99, 300_000, 13);
        let c = cluster();
        let unloaded = planner.unloaded_request_tail_ms(&c, &[10, 100]);
        // With per-query fixed pre-dequeue delays 0.2ms and 0.3ms, the
        // loaded request tail is the same MC percentile shifted by 0.5ms.
        let mut rng = SimRng::seed(13);
        let mut samples: Vec<f64> = (0..300_000)
            .map(|_| planner.draw_unloaded_request_ms(&c, &[10, 100], &mut rng) + 0.2 + 0.3)
            .collect();
        samples.sort_by(f64::total_cmp);
        let loaded = samples[(0.99 * samples.len() as f64).ceil() as usize - 1];
        assert!(
            (loaded - (unloaded + 0.5)).abs() < 0.03,
            "loaded={loaded} unloaded+0.5={}",
            unloaded + 0.5
        );
    }

    #[test]
    #[should_panic(expected = "request needs at least one query")]
    fn empty_request_rejected() {
        let planner = RequestPlanner::new(0.99, 100, 1);
        let _ = planner.unloaded_request_tail_ms(&cluster(), &[]);
    }
}
