//! Reference model for index sampling: the hash-set sampler `rand`'s
//! `seq::index::sample` used before it learned to write into a caller's
//! buffer, kept verbatim, and a differential test holding `sample_into`
//! (and the allocating `sample` over the same algorithm) to it — same
//! indices in the same order, and the generator left in the same state —
//! so every placement draw the goldens pin stays where it was.

use rand::rngs::SmallRng;
use rand::seq::index::{sample, sample_into};
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

/// The sampler as it was: partial Fisher-Yates for dense requests,
/// rejection off a `HashSet` for sparse ones.
fn reference<R: RngCore>(rng: &mut R, length: usize, amount: usize) -> Vec<usize> {
    assert!(amount <= length);
    if amount == 0 {
        return Vec::new();
    }
    if amount * 3 >= length {
        let mut pool: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            let j = i + rng.random_range(0..length - i);
            pool.swap(i, j);
        }
        pool.truncate(amount);
        pool
    } else {
        let mut seen = HashSet::with_capacity(amount * 2);
        let mut out = Vec::with_capacity(amount);
        while out.len() < amount {
            let idx = rng.random_range(0..length);
            if seen.insert(idx) {
                out.push(idx);
            }
        }
        out
    }
}

/// The generator's full state, for equality.
fn state(rng: &SmallRng) -> String {
    format!("{rng:?}")
}

/// Draws `(n, k)` three ways from one seed and requires the reference's
/// indices and end state from both library entry points. `buf` is reused
/// across calls, as the simulator reuses its scratch.
fn check(seed: u64, n: usize, k: usize, buf: &mut Vec<u32>) {
    let mut want_rng = SmallRng::seed_from_u64(seed);
    let want = reference(&mut want_rng, n, k);

    let mut into_rng = SmallRng::seed_from_u64(seed);
    sample_into(&mut into_rng, n, k, buf);
    let got: Vec<usize> = buf.iter().map(|&i| i as usize).collect();
    assert_eq!(got, want, "sample_into indices: seed {seed} n {n} k {k}");
    assert_eq!(
        state(&into_rng),
        state(&want_rng),
        "sample_into end state: seed {seed} n {n} k {k}"
    );

    let mut vec_rng = SmallRng::seed_from_u64(seed);
    assert_eq!(
        sample(&mut vec_rng, n, k).into_vec(),
        want,
        "sample indices: seed {seed} n {n} k {k}"
    );
    assert_eq!(
        state(&vec_rng),
        state(&want_rng),
        "sample end state: seed {seed} n {n} k {k}"
    );
}

const SEEDS: [u64; 8] = [0, 1, 2, 7, 42, 1 << 32, 0xDEAD_BEEF, u64::MAX];

#[test]
fn sample_into_matches_the_hash_set_sampler_for_every_small_request() {
    let mut buf = Vec::new();
    for seed in SEEDS {
        for n in 0..=130 {
            for k in 0..=n {
                check(seed, n, k, &mut buf);
            }
        }
    }
}

#[test]
fn sample_into_matches_the_hash_set_sampler_around_the_dense_threshold() {
    // 333 · 3 < 1000 ≤ 334 · 3: the last sparse and the first dense amount.
    let mut buf = Vec::new();
    for seed in SEEDS {
        for k in [0, 1, 100, 333, 334, 1000] {
            check(seed, 1000, k, &mut buf);
        }
    }
}

#[test]
fn sample_into_replaces_stale_contents() {
    let mut buf = vec![9u32; 40];
    let mut rng = SmallRng::seed_from_u64(3);
    sample_into(&mut rng, 50, 5, &mut buf);
    assert_eq!(buf.len(), 5);
    sample_into(&mut rng, 50, 0, &mut buf);
    assert!(buf.is_empty());
}
