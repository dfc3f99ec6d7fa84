//! Parallel experiment runner: fan `(scenario, policy, load, seed)` cells
//! out over worker threads, deterministically.
//!
//! The paper's evaluation is a grid of independent simulation cells (per
//! figure: policies × loads × seeds). Each cell is already deterministic in
//! its inputs ([`run_simulation`](crate::run_simulation) is pure in
//! `(config.seed, input)`), so the grid parallelizes embarrassingly —
//! provided results are reassembled in input order rather than completion
//! order.
//!
//! **Determinism contract.** Every function here returns *bit-identical*
//! results to its serial counterpart for the same inputs, regardless of
//! `jobs` and of thread scheduling: cells are tagged with their input index,
//! workers pull indices from a shared counter (work stealing), and results
//! land in an index-addressed slot vector. No RNG state is shared across
//! cells — each cell derives its streams from its own seed.
//!
//! `jobs = 1` (or a single cell) bypasses threading entirely and runs on
//! the caller's thread; `jobs = 0` is treated as 1.

use crate::maxload::{max_load, MaxLoadOptions};
use crate::spec::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tailguard_policy::Policy;

/// The number of worker threads to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item on up to `jobs` scoped worker threads and
/// returns the results **in input order**.
///
/// Workers claim indices from a shared atomic counter, so long cells do not
/// stall short ones (work stealing at item granularity). `f` must be pure
/// in `(index, item)` for the determinism contract to hold; the function
/// itself guarantees only ordered reassembly.
///
/// # Panics
///
/// Propagates the first worker panic after all threads are joined.
///
/// # Example
///
/// ```
/// let squares = tailguard::run_indexed(&[1u64, 2, 3, 4], 8, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[expect(
    clippy::expect_used,
    reason = "each slot is touched by exactly one claiming worker; a poisoned lock means that worker already panicked; scope() already propagated any worker panic; the lock cannot be poisoned here; fetch_add hands every index to exactly one worker, which always fills it"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "guarded: the `break` above bounds `i < items.len()`"
)]
pub fn run_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs [`max_load`] for several policies concurrently (one bisection per
/// worker — the per-figure pattern of Figs. 4–6, where every policy's
/// search is independent).
///
/// Returns `(policy, max_load)` pairs in the order of `policies`.
pub fn max_load_many(
    scenario: &Scenario,
    policies: &[Policy],
    opts: &MaxLoadOptions,
    jobs: usize,
) -> Vec<(Policy, f64)> {
    run_indexed(policies, jobs, |_, &policy| {
        (policy, max_load(scenario, policy, opts))
    })
}

/// Per-class tail statistics across replicates: sample mean and a 95 %
/// confidence half-width (normal approximation, `1.96·s/√n`; zero for a
/// single replicate).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStat {
    /// Mean of the per-replicate tail latencies, in ms.
    pub mean_ms: f64,
    /// 95 % confidence half-width around the mean, in ms.
    pub ci95_ms: f64,
}

/// The result of a multi-seed [`replicate`] run.
#[derive(Debug, Clone)]
pub struct Replication {
    /// The derived per-replicate seeds (split from the base seed).
    pub seeds: Vec<u64>,
    /// Per-replicate, per-class tail latency in ms
    /// (`per_seed_tails_ms[r][c]`).
    pub per_seed_tails_ms: Vec<Vec<f64>>,
    /// Mean ± CI per class, aggregated over replicates.
    pub tails: Vec<ClassStat>,
    /// Fraction of replicates in which every class met its SLO.
    pub meets_fraction: f64,
}

/// SplitMix64 — the standard seed-derivation mixer. Used to split one base
/// seed into independent per-replicate seeds without any shared RNG state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed sequence [`replicate`] derives from `base_seed`.
pub fn replicate_seeds(base_seed: u64, replicates: usize) -> Vec<u64> {
    let mut state = base_seed;
    (0..replicates).map(|_| splitmix64(&mut state)).collect()
}

/// Measures `(scenario, policy, load)` under `replicates` independent
/// seeds, in parallel, and aggregates per-class tails into mean ± 95 % CI.
///
/// Seeds are split deterministically from `scenario.seed` via SplitMix64,
/// so the full result — including the CI — is reproducible from the
/// scenario alone and independent of `jobs`.
///
/// # Panics
///
/// Panics when `replicates` is zero.
#[expect(
    clippy::cast_possible_truncation,
    reason = "class list indexed by its own enumerate index"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "class list indexed by its own enumerate index; per-seed tail vectors all have one entry per class by construction"
)]
pub fn replicate(
    scenario: &Scenario,
    policy: Policy,
    load: f64,
    opts: &MaxLoadOptions,
    replicates: usize,
    jobs: usize,
) -> Replication {
    assert!(replicates > 0, "need at least one replicate");
    let seeds = replicate_seeds(scenario.seed, replicates);
    let classes = scenario.classes.len();
    let per_seed: Vec<(Vec<f64>, bool)> = run_indexed(&seeds, jobs, |_, &seed| {
        let mut s = scenario.clone();
        s.seed = seed;
        let mut report = crate::maxload::measure_at_load(&s, policy, load, opts);
        let tails: Vec<f64> = (0..classes)
            .map(|c| {
                report
                    .class_tail(c as u8, s.classes[c].percentile)
                    .as_millis_f64()
            })
            .collect();
        let meets = report.meets_all_slos();
        (tails, meets)
    });
    let n = replicates as f64;
    let tails: Vec<ClassStat> = (0..classes)
        .map(|c| {
            let xs: Vec<f64> = per_seed.iter().map(|(t, _)| t[c]).collect();
            let mean = xs.iter().sum::<f64>() / n;
            let ci95 = if replicates > 1 {
                let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
                1.96 * (var / n).sqrt()
            } else {
                0.0
            };
            ClassStat {
                mean_ms: mean,
                ci95_ms: ci95,
            }
        })
        .collect();
    let meets_fraction = per_seed.iter().filter(|(_, m)| *m).count() as f64 / n;
    Replication {
        seeds,
        per_seed_tails_ms: per_seed.into_iter().map(|(t, _)| t).collect(),
        tails,
        meets_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use tailguard_workload::TailbenchWorkload;

    fn quick_opts() -> MaxLoadOptions {
        MaxLoadOptions {
            queries: 8_000,
            tolerance: 0.1,
            ..MaxLoadOptions::default()
        }
    }

    #[test]
    fn run_indexed_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 8, 64] {
            let out = run_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn run_indexed_zero_jobs_is_serial() {
        let out = run_indexed(&[1u32, 2, 3], 0, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn max_load_many_matches_serial() {
        let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = quick_opts();
        let policies = [Policy::TfEdf, Policy::Fifo];
        let many = max_load_many(&scenario, &policies, &opts, 4);
        for (policy, load) in many {
            assert_eq!(load, max_load(&scenario, policy, &opts));
        }
    }

    #[test]
    fn replicate_is_deterministic_across_jobs() {
        let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = quick_opts();
        let a = replicate(&scenario, Policy::TfEdf, 0.3, &opts, 4, 1);
        let b = replicate(&scenario, Policy::TfEdf, 0.3, &opts, 4, 8);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.per_seed_tails_ms, b.per_seed_tails_ms);
        assert_eq!(a.tails, b.tails);
        assert_eq!(a.meets_fraction, b.meets_fraction);
    }

    #[test]
    fn replicate_ci_shrinks_sanely() {
        let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = quick_opts();
        let r = replicate(&scenario, Policy::TfEdf, 0.3, &opts, 3, 2);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.per_seed_tails_ms.len(), 3);
        for stat in &r.tails {
            assert!(stat.mean_ms > 0.0);
            assert!(stat.ci95_ms >= 0.0);
            // Replicate tails at the same load agree to within a wide band.
            assert!(stat.ci95_ms < stat.mean_ms, "{stat:?}");
        }
        // Single replicate: CI must be exactly zero.
        let one = replicate(&scenario, Policy::TfEdf, 0.3, &opts, 1, 1);
        assert_eq!(one.tails[0].ci95_ms, 0.0);
        assert!((0.0..=1.0).contains(&one.meets_fraction));
    }

    #[test]
    fn replicate_seeds_are_distinct_and_stable() {
        let a = replicate_seeds(42, 8);
        let b = replicate_seeds(42, 8);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "seed collisions in {a:?}");
        assert_ne!(replicate_seeds(43, 8), a);
    }

    #[test]
    #[should_panic(expected = "need at least one replicate")]
    fn replicate_rejects_zero() {
        let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let _ = replicate(&scenario, Policy::Fifo, 0.3, &quick_opts(), 0, 1);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
