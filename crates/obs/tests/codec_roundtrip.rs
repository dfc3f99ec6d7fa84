//! Property coverage for the 51-byte trace codec: random valid events —
//! including near-`u64::MAX` timestamps — encode→decode bit-identically,
//! and arbitrary byte corruption is *counted*, never a panic. This is the
//! contract the decode path's fixed field plan (no computed offsets) is
//! supposed to guarantee, and the reason its `clippy::indexing_slicing`
//! exemptions give; see `docs/lint.md`.
//!
//! `proptest` here is the offline stand-in under `third_party/proptest`
//! (version `0.0.0-offline-stub`): deterministic case streams, no
//! shrinking. See `third_party/README.md`.

use proptest::prelude::*;
use tailguard_obs::codec::{decode, decode_stream, encode_append, encode_into, EVENT_BYTES};
use tailguard_sched::{AttemptKind, LeaseToken, TraceEvent};
use tailguard_simcore::{SimDuration, SimRng, SimTime};

const VARIANTS: usize = 17;

/// Draws one random event of the given variant. Times and tokens are drawn
/// from the *full* `u64` range (biased toward the extremes every few
/// draws), so the near-`u64::MAX` regime the Pi→wall scaling audit cares
/// about is exercised constantly, not just by a single pinned case.
fn random_event(variant: usize, rng: &mut SimRng) -> TraceEvent {
    let wide = |rng: &mut SimRng| -> u64 {
        if rng.chance(0.25) {
            u64::MAX - rng.u64() % 4
        } else {
            rng.u64()
        }
    };
    let at = SimTime::from_nanos(wide(rng));
    let dur = SimDuration::from_nanos(wide(rng));
    let id = |rng: &mut SimRng| -> u32 { (rng.u64() & 0xFFFF_FFFF) as u32 };
    let kind = match rng.index(3) {
        0 => AttemptKind::Original,
        1 => AttemptKind::Hedge,
        _ => AttemptKind::Retry,
    };
    match variant {
        0 => TraceEvent::QueryAdmitted {
            at,
            query: id(rng),
            class: rng.index(4) as u8,
            fanout: id(rng),
            deadline: SimTime::from_nanos(wide(rng)),
        },
        1 => TraceEvent::QueryRejected {
            at,
            class: rng.index(4) as u8,
            fanout: id(rng),
        },
        2 => TraceEvent::TaskEnqueued {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            class: rng.index(4) as u8,
            server: id(rng),
            kind,
            deadline: SimTime::from_nanos(wide(rng)),
        },
        3 => TraceEvent::TaskDequeued {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            class: rng.index(4) as u8,
            kind,
            server: id(rng),
            token: LeaseToken(wide(rng)),
            waited: dur,
            slack_ns: wide(rng) as i64,
        },
        4 => TraceEvent::DeadlineMissed {
            at,
            task: id(rng),
            query: id(rng),
            server: id(rng),
            late_by: dur,
        },
        5 => TraceEvent::HedgeIssued {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            server: id(rng),
        },
        6 => TraceEvent::TaskCancelled {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            server: id(rng),
        },
        7 => TraceEvent::TaskCompleted {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            server: id(rng),
            busy: dur,
            won: rng.chance(0.5),
        },
        8 => TraceEvent::TaskLost {
            at,
            task: id(rng),
            slot: id(rng),
            query: id(rng),
            server: id(rng),
        },
        9 => TraceEvent::LeaseReclaimed {
            at,
            task: id(rng),
            query: id(rng),
            server: id(rng),
            token: LeaseToken(wide(rng)),
        },
        10 => TraceEvent::DuplicateSuppressed {
            at,
            task: id(rng),
            query: id(rng),
            server: id(rng),
        },
        11 => TraceEvent::StaleCommitRejected {
            at,
            task: id(rng),
            query: id(rng),
            server: id(rng),
            token: LeaseToken(wide(rng)),
        },
        12 => TraceEvent::AdmissionPause { at },
        13 => TraceEvent::AdmissionResume { at },
        14 => TraceEvent::ServerEjected {
            at,
            server: id(rng),
        },
        15 => TraceEvent::ServerReadmitted {
            at,
            server: id(rng),
        },
        _ => TraceEvent::HedgeBudgetExhausted {
            at,
            slot: id(rng),
            query: id(rng),
            class: rng.index(4) as u8,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity, and re-encoding the decoded event
    /// reproduces the exact bytes (bit-identical, padding included).
    #[test]
    fn random_events_roundtrip_bit_identically(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::seed(seed);
        for variant in 0..VARIANTS {
            let ev = random_event(variant, &mut rng);
            let mut buf = [0u8; EVENT_BYTES];
            encode_into(&ev, &mut buf);
            let back = decode(&buf);
            prop_assert_eq!(back.as_ref(), Some(&ev));
            // The append path must produce the same bytes as the stack path.
            let mut appended = Vec::new();
            encode_append(&ev, &mut appended);
            prop_assert_eq!(&appended[..], &buf[..]);
            // Re-encode the decoded event: byte-for-byte stable.
            let mut again = [0xAAu8; EVENT_BYTES];
            encode_into(&back.expect("decoded above"), &mut again);
            prop_assert_eq!(&again[..], &buf[..]);
        }
    }

    /// Arbitrary single-byte corruption of an encoded stream never panics:
    /// every record either decodes or bumps the corrupt count.
    #[test]
    fn mutated_streams_are_counted_not_panicked(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::seed(seed);
        let mut bytes = Vec::new();
        let n = 8 + rng.index(9);
        for i in 0..n {
            encode_append(&random_event(i % VARIANTS, &mut rng), &mut bytes);
        }
        // Flip a handful of random bytes to random values (tags, kind
        // bytes, and payload alike).
        for _ in 0..4 + rng.index(8) {
            let pos = rng.index(bytes.len());
            bytes[pos] = (rng.u64() & 0xFF) as u8;
        }
        // And sometimes truncate mid-record.
        if rng.chance(0.5) {
            let cut = rng.index(bytes.len());
            bytes.truncate(bytes.len() - cut % EVENT_BYTES);
        }
        let records = bytes.len() / EVENT_BYTES;
        let (events, corrupt) = decode_stream(&bytes);
        // Every whole record is either decoded or counted as corrupt.
        prop_assert_eq!(events.len() as u64 + corrupt, records as u64);
    }
}
