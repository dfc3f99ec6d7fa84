//! Hostile trace files: the JSON and CSV trace readers take seeded byte
//! mutations of well-formed traces and must answer each with `Ok` or
//! `Err`, never a panic. A trace they accept must be one the simulator
//! can replay: arrivals in order and every fanout at least 1.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tailguard_repro::simcore::SimRng;
use tailguard_repro::workload::{ArrivalProcess, FanoutDist, QueryMix, Trace, TraceError};

/// Mutations per reader.
const MUTATIONS: usize = 20_000;

/// Short byte strings that sit on a parser's edges: separators, quotes,
/// brackets, signs, an exponent, a zero and an over-long number.
const TOKENS: [&[u8]; 12] = [
    b",",
    b"\"",
    b"{",
    b"}",
    b"[",
    b"]",
    b"-",
    b"e9",
    b"0",
    b"\n",
    b"99999999999999999999999",
    b"null",
];

/// `base` with one to four edits: a byte overwritten, inserted or
/// removed, a token spliced in, or a span repeated.
fn mutate(base: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(5) {
            0 if at < bytes.len() => bytes[at] = rng.index(256) as u8,
            1 => bytes.insert(at, rng.index(256) as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let token = TOKENS[rng.index(TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
            _ => {
                let end = (at + 1 + rng.index(16)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    bytes
}

/// Feeds `MUTATIONS` mutations of `base` to `read`, and returns how many
/// it accepted.
fn survives(base: &str, seed: u64, read: fn(&str) -> Result<Trace, TraceError>) -> usize {
    let mut rng = SimRng::seed(seed);
    let mut accepted = 0;
    for i in 0..MUTATIONS {
        let input = String::from_utf8_lossy(&mutate(base.as_bytes(), &mut rng)).into_owned();
        let Ok(result) = catch_unwind(AssertUnwindSafe(|| read(&input))) else {
            panic!("mutation {i} of seed {seed} panicked the reader on {input:?}");
        };
        if let Ok(trace) = result {
            let records = &trace.records;
            assert!(
                records
                    .windows(2)
                    .all(|w| w[0].arrival_ns <= w[1].arrival_ns),
                "mutation {i} of seed {seed} was accepted out of order: {input:?}"
            );
            assert!(
                records.iter().all(|r| r.fanout >= 1),
                "mutation {i} of seed {seed} was accepted with a fanout of 0: {input:?}"
            );
            accepted += 1;
        }
    }
    accepted
}

fn base_trace() -> Trace {
    let mix = QueryMix::equiprobable(2, FanoutDist::paper_mix());
    Trace::generate("mutated", &ArrivalProcess::poisson(1.0), &mix, 12, 5)
}

#[test]
fn mutated_json_traces_are_read_or_refused_without_a_panic() {
    let json = base_trace().to_json().expect("a trace serializes");
    let accepted = survives(&json, 1, Trace::from_json);
    assert!(accepted > 0, "no mutation was accepted");
}

#[test]
fn mutated_csv_traces_are_read_or_refused_without_a_panic() {
    let csv = base_trace().to_csv();
    let accepted = survives(&csv, 2, Trace::from_csv);
    assert!(accepted > 0, "no mutation was accepted");
}
