//! `LatencyReservoir` against a naive oracle: a sorted `Vec<u64>` of the
//! same samples.
//!
//! The reservoir keeps zeros as a count, samples below 2³² ns in 4 bytes
//! and longer ones in 8, so every answer it gives is assembled across tier
//! boundaries. Each seeded case mixes the tier edges (0, 1, 2³²−1, 2³²,
//! 2³²+1, `u64::MAX`) with random values, and every query must give the
//! oracle's answer exactly.

use tailguard_repro::metrics::{nearest_rank, LatencyReservoir};
use tailguard_repro::simcore::{SimDuration, SimRng};

const EDGES: [u64; 6] = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX];

/// One sample: a tier edge, a zero, a value of either tier, or one near
/// the 4-byte tier's top.
fn draw(rng: &mut SimRng) -> u64 {
    match rng.index(5) {
        0 => EDGES[rng.index(EDGES.len())],
        1 => 0,
        2 => rng.u64() >> 32,
        3 => rng.u64(),
        _ => (1 << 32) - 1 - (rng.u64() >> 48),
    }
}

fn filled(samples: &[u64]) -> LatencyReservoir {
    samples
        .iter()
        .copied()
        .map(SimDuration::from_nanos)
        .collect()
}

/// Requires every answer of `r` to equal the oracle's on `samples`.
fn assert_matches(r: &mut LatencyReservoir, samples: &[u64], case: &str) {
    let mut oracle = samples.to_vec();
    oracle.sort_unstable();
    let n = oracle.len();
    let ns = SimDuration::from_nanos;
    assert_eq!(r.len(), n, "{case}: len");
    assert_eq!(r.is_empty(), n == 0, "{case}: is_empty");
    let at = |rank: usize| ns(rank.checked_sub(1).map_or(0, |i| oracle[i]));
    assert_eq!(r.percentile(0.0), at(nearest_rank(0.0, n)), "{case}: p = 0");
    assert_eq!(r.percentile(1.0), at(nearest_rank(1.0, n)), "{case}: p = 1");
    for rank in 1..=n {
        let p = rank as f64 / n as f64;
        assert_eq!(
            r.percentile(p),
            at(nearest_rank(p, n)),
            "{case}: rank {rank} of {n}"
        );
    }
    assert_eq!(
        r.min(),
        ns(oracle.first().copied().unwrap_or(0)),
        "{case}: min"
    );
    assert_eq!(
        r.max(),
        ns(oracle.last().copied().unwrap_or(0)),
        "{case}: max"
    );
    let sum: u128 = oracle.iter().map(|&s| u128::from(s)).sum();
    let mean = if n == 0 { 0 } else { (sum / n as u128) as u64 };
    assert_eq!(r.mean(), ns(mean), "{case}: mean");
    for edge in EDGES {
        for t in [edge.saturating_sub(1), edge, edge.saturating_add(1)] {
            let over = oracle.iter().filter(|&&s| s > t).count();
            let want = if n == 0 { 0.0 } else { over as f64 / n as f64 };
            assert_eq!(
                r.exceed_ratio(ns(t)).to_bits(),
                want.to_bits(),
                "{case}: exceed_ratio({t})"
            );
        }
    }
    let ascending: Vec<u64> = r.ascending().map(SimDuration::as_nanos).collect();
    assert_eq!(ascending, oracle, "{case}: ascending");
}

#[test]
fn every_answer_equals_a_sorted_vec() {
    let mut rng = SimRng::seed(0x5E5E_7701);
    for case in 0..300 {
        let n = rng.index(120);
        let samples: Vec<u64> = (0..n).map(|_| draw(&mut rng)).collect();
        let mut r = filled(&samples);
        assert_matches(&mut r, &samples, &format!("case {case}"));
        // Records after a query leave the tiers to sort again.
        let more: Vec<u64> = (0..rng.index(8)).map(|_| draw(&mut rng)).collect();
        r.extend(more.iter().copied().map(SimDuration::from_nanos));
        let all = [samples, more].concat();
        assert_matches(&mut r, &all, &format!("case {case}, extended"));
    }
}

#[test]
fn merge_across_tiers_equals_the_concatenation() {
    let mut rng = SimRng::seed(0x3E26_E001);
    for case in 0..200 {
        let a: Vec<u64> = (0..rng.index(60)).map(|_| draw(&mut rng)).collect();
        let b: Vec<u64> = (0..rng.index(60)).map(|_| draw(&mut rng)).collect();
        let mut r = filled(&a);
        // A sorted reservoir absorbing unsorted tiers must sort again.
        r.percentile(0.5);
        r.merge(&filled(&b));
        assert_matches(&mut r, &[a, b].concat(), &format!("merge case {case}"));
    }
}

#[test]
fn a_cleared_reservoir_is_empty_and_refills_exactly() {
    let mut rng = SimRng::seed(0xC1EA_0001);
    let samples: Vec<u64> = (0..500).map(|_| draw(&mut rng)).collect();
    let mut r = filled(&samples);
    r.percentile(0.99);
    r.clear();
    assert_matches(&mut r, &[], "cleared");
    let again: Vec<u64> = (0..500).map(|_| draw(&mut rng)).collect();
    r.extend(again.iter().copied().map(SimDuration::from_nanos));
    assert_matches(&mut r, &again, "refilled");
}

#[test]
fn only_zeros_and_only_edges() {
    assert_matches(&mut filled(&[0; 7]), &[0; 7], "zeros");
    assert_matches(&mut filled(&EDGES), &EDGES, "edges");
    let mut rev = EDGES;
    rev.reverse();
    assert_matches(&mut filled(&rev), &EDGES, "edges reversed");
}
