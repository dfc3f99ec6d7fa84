//! Fixed-width binary encoding of [`TraceEvent`]s.
//!
//! Storing whole `TraceEvent` enums (72 bytes each after alignment)
//! behind one lock per event roughly doubled the pure-sim hot path. The
//! binary path instead encodes each event into a
//! [`EVENT_BYTES`]-byte little-endian record on the emitting thread's
//! stack and batches records into the shared ring, deferring all decoding
//! to analysis time.
//!
//! The wire layout is a 1-byte variant tag followed by the variant's
//! fields in declaration order, each at its natural width (`u64` for
//! times/durations/tokens, `u32` for ids and servers, `u8` for classes,
//! flags, and [`AttemptKind`]), with the unused tail zero-padded to
//! [`EVENT_BYTES`]. Fixed width keeps the ring a flat array (no per-event
//! lengths), makes records self-aligned, and — because the padding is
//! deterministically zero — makes two recordings of the same run
//! byte-for-byte comparable, which the determinism tests rely on.
//!
//! Times, durations, and lease tokens are carried at their full 64-bit
//! width — the encoder performs no narrowing casts at all — so a
//! near-`u64::MAX` virtual timestamp round-trips bit-identically (the
//! `near_max_timestamps_round_trip` test and the property suite in
//! `tests/codec_roundtrip.rs` pin this).

use tailguard_sched::{AttemptKind, LeaseToken, TraceEvent};
use tailguard_simcore::{SimDuration, SimTime};

/// Width of one encoded event record. Sized by the largest variant
/// (`TaskDequeued`: tag + 8 fixed-width fields + two 64-bit durations);
/// all other variants zero-pad up to it.
pub const EVENT_BYTES: usize = 51;

const TAG_QUERY_ADMITTED: u8 = 0;
const TAG_QUERY_REJECTED: u8 = 1;
const TAG_TASK_ENQUEUED: u8 = 2;
const TAG_TASK_DEQUEUED: u8 = 3;
const TAG_DEADLINE_MISSED: u8 = 4;
const TAG_HEDGE_ISSUED: u8 = 5;
const TAG_TASK_CANCELLED: u8 = 6;
const TAG_TASK_COMPLETED: u8 = 7;
const TAG_TASK_LOST: u8 = 8;
const TAG_LEASE_RECLAIMED: u8 = 9;
const TAG_DUPLICATE_SUPPRESSED: u8 = 10;
const TAG_STALE_COMMIT_REJECTED: u8 = 11;
const TAG_ADMISSION_PAUSE: u8 = 12;
const TAG_ADMISSION_RESUME: u8 = 13;
const TAG_SERVER_EJECTED: u8 = 14;
const TAG_SERVER_READMITTED: u8 = 15;
const TAG_HEDGE_BUDGET_EXHAUSTED: u8 = 16;

/// Sequential little-endian writer over a fixed record. Fields are laid
/// out in declaration order, not at per-field offsets, so encode and
/// decode stay trivially in sync as long as they list fields identically.
struct Writer<'a> {
    buf: &'a mut [u8; EVENT_BYTES],
    pos: usize,
}

impl Writer<'_> {
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }

    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }

    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u64(&mut self, v: u64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }

    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn i64(&mut self, v: i64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }

    #[inline(always)]
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    #[inline(always)]
    fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }
}

/// Sequential little-endian reader mirroring [`Writer`].
struct Reader<'a> {
    buf: &'a [u8; EVENT_BYTES],
    pos: usize,
}

impl Reader<'_> {
    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        u32::from_le_bytes(b)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(b)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "fixed field plan: every variant's widths sum to <= EVENT_BYTES over a fixed-size array; byte content cannot move `pos` (roundtrip + proptest pinned)"
    )]
    fn i64(&mut self) -> i64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        i64::from_le_bytes(b)
    }

    fn time(&mut self) -> SimTime {
        SimTime::from_nanos(self.u64())
    }

    fn duration(&mut self) -> SimDuration {
        SimDuration::from_nanos(self.u64())
    }
}

fn kind_to_u8(kind: AttemptKind) -> u8 {
    match kind {
        AttemptKind::Original => 0,
        AttemptKind::Hedge => 1,
        AttemptKind::Retry => 2,
    }
}

fn kind_from_u8(v: u8) -> Option<AttemptKind> {
    match v {
        0 => Some(AttemptKind::Original),
        1 => Some(AttemptKind::Hedge),
        2 => Some(AttemptKind::Retry),
        _ => None,
    }
}

/// Encodes one event into a zeroed fixed-width record.
///
/// The buffer is cleared first so the unused tail is always zero —
/// required for the byte-equality determinism checks.
pub fn encode_into(ev: &TraceEvent, buf: &mut [u8; EVENT_BYTES]) {
    buf.fill(0);
    encode_fields(ev, buf);
}

/// Appends one encoded record to `out` without an intermediate stack
/// buffer: the hot-path form for [`BinarySink`](crate::BinarySink). The
/// record region is zero-extended first, so the padding guarantee of
/// [`encode_into`] holds identically.
#[inline]
pub fn encode_append(ev: &TraceEvent, out: &mut Vec<u8>) {
    encode_fields(ev, append_record(out));
}

/// Zero-extends `out` by one record and returns it for in-place encoding.
/// Extending from a constant zero block compiles to one bulk copy, where
/// `Vec::resize` is free to zero element by element.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "in range by construction: `out` was zero-extended by exactly EVENT_BYTES above"
)]
#[expect(
    clippy::unwrap_used,
    reason = "the slice is EVENT_BYTES long by construction"
)]
fn append_record(out: &mut Vec<u8>) -> &mut [u8; EVENT_BYTES] {
    let start = out.len();
    out.extend_from_slice(&[0u8; EVENT_BYTES]);
    (&mut out[start..start + EVENT_BYTES]).try_into().unwrap()
}

/// Field layout shared by [`encode_into`] and [`encode_append`]; assumes
/// `buf` is already zeroed.
#[inline]
// tg-lint: hot(encode)
fn encode_fields(ev: &TraceEvent, buf: &mut [u8; EVENT_BYTES]) {
    let mut w = Writer { buf, pos: 0 };
    match *ev {
        TraceEvent::QueryAdmitted {
            at,
            query,
            class,
            fanout,
            deadline,
        } => {
            w.u8(TAG_QUERY_ADMITTED);
            w.time(at);
            w.u32(query);
            w.u8(class);
            w.u32(fanout);
            w.time(deadline);
        }
        TraceEvent::QueryRejected { at, class, fanout } => {
            w.u8(TAG_QUERY_REJECTED);
            w.time(at);
            w.u8(class);
            w.u32(fanout);
        }
        TraceEvent::TaskEnqueued {
            at,
            task,
            slot,
            query,
            class,
            server,
            kind,
            deadline,
        } => {
            w.u8(TAG_TASK_ENQUEUED);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u8(class);
            w.u32(server);
            w.u8(kind_to_u8(kind));
            w.time(deadline);
        }
        TraceEvent::TaskDequeued {
            at,
            task,
            slot,
            query,
            class,
            kind,
            server,
            token,
            waited,
            slack_ns,
        } => {
            w.u8(TAG_TASK_DEQUEUED);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u8(class);
            w.u8(kind_to_u8(kind));
            w.u32(server);
            w.u64(token.0);
            w.duration(waited);
            w.i64(slack_ns);
        }
        TraceEvent::DeadlineMissed {
            at,
            task,
            query,
            server,
            late_by,
        } => {
            w.u8(TAG_DEADLINE_MISSED);
            w.time(at);
            w.u32(task);
            w.u32(query);
            w.u32(server);
            w.duration(late_by);
        }
        TraceEvent::HedgeIssued {
            at,
            task,
            slot,
            query,
            server,
        } => {
            w.u8(TAG_HEDGE_ISSUED);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u32(server);
        }
        TraceEvent::TaskCancelled {
            at,
            task,
            slot,
            query,
            server,
        } => {
            w.u8(TAG_TASK_CANCELLED);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u32(server);
        }
        TraceEvent::TaskCompleted {
            at,
            task,
            slot,
            query,
            server,
            busy,
            won,
        } => {
            w.u8(TAG_TASK_COMPLETED);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u32(server);
            w.duration(busy);
            w.u8(u8::from(won));
        }
        TraceEvent::TaskLost {
            at,
            task,
            slot,
            query,
            server,
        } => {
            w.u8(TAG_TASK_LOST);
            w.time(at);
            w.u32(task);
            w.u32(slot);
            w.u32(query);
            w.u32(server);
        }
        TraceEvent::LeaseReclaimed {
            at,
            task,
            query,
            server,
            token,
        } => {
            w.u8(TAG_LEASE_RECLAIMED);
            w.time(at);
            w.u32(task);
            w.u32(query);
            w.u32(server);
            w.u64(token.0);
        }
        TraceEvent::DuplicateSuppressed {
            at,
            task,
            query,
            server,
        } => {
            w.u8(TAG_DUPLICATE_SUPPRESSED);
            w.time(at);
            w.u32(task);
            w.u32(query);
            w.u32(server);
        }
        TraceEvent::StaleCommitRejected {
            at,
            task,
            query,
            server,
            token,
        } => {
            w.u8(TAG_STALE_COMMIT_REJECTED);
            w.time(at);
            w.u32(task);
            w.u32(query);
            w.u32(server);
            w.u64(token.0);
        }
        TraceEvent::AdmissionPause { at } => {
            w.u8(TAG_ADMISSION_PAUSE);
            w.time(at);
        }
        TraceEvent::AdmissionResume { at } => {
            w.u8(TAG_ADMISSION_RESUME);
            w.time(at);
        }
        TraceEvent::ServerEjected { at, server } => {
            w.u8(TAG_SERVER_EJECTED);
            w.time(at);
            w.u32(server);
        }
        TraceEvent::ServerReadmitted { at, server } => {
            w.u8(TAG_SERVER_READMITTED);
            w.time(at);
            w.u32(server);
        }
        TraceEvent::HedgeBudgetExhausted {
            at,
            slot,
            query,
            class,
        } => {
            w.u8(TAG_HEDGE_BUDGET_EXHAUSTED);
            w.time(at);
            w.u32(slot);
            w.u32(query);
            w.u8(class);
        }
    }
}
// tg-lint: endhot

/// Decodes one fixed-width record back into a [`TraceEvent`].
///
/// Returns `None` for an unknown variant tag or an out-of-range
/// [`AttemptKind`] byte — a corrupt or version-skewed record, which
/// callers should count rather than panic over.
pub fn decode(buf: &[u8; EVENT_BYTES]) -> Option<TraceEvent> {
    let mut r = Reader { buf, pos: 0 };
    let tag = r.u8();
    Some(match tag {
        TAG_QUERY_ADMITTED => TraceEvent::QueryAdmitted {
            at: r.time(),
            query: r.u32(),
            class: r.u8(),
            fanout: r.u32(),
            deadline: r.time(),
        },
        TAG_QUERY_REJECTED => TraceEvent::QueryRejected {
            at: r.time(),
            class: r.u8(),
            fanout: r.u32(),
        },
        TAG_TASK_ENQUEUED => TraceEvent::TaskEnqueued {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            class: r.u8(),
            server: r.u32(),
            kind: kind_from_u8(r.u8())?,
            deadline: r.time(),
        },
        TAG_TASK_DEQUEUED => TraceEvent::TaskDequeued {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            class: r.u8(),
            kind: kind_from_u8(r.u8())?,
            server: r.u32(),
            token: LeaseToken(r.u64()),
            waited: r.duration(),
            slack_ns: r.i64(),
        },
        TAG_DEADLINE_MISSED => TraceEvent::DeadlineMissed {
            at: r.time(),
            task: r.u32(),
            query: r.u32(),
            server: r.u32(),
            late_by: r.duration(),
        },
        TAG_HEDGE_ISSUED => TraceEvent::HedgeIssued {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            server: r.u32(),
        },
        TAG_TASK_CANCELLED => TraceEvent::TaskCancelled {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            server: r.u32(),
        },
        TAG_TASK_COMPLETED => TraceEvent::TaskCompleted {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            server: r.u32(),
            busy: r.duration(),
            won: r.u8() != 0,
        },
        TAG_TASK_LOST => TraceEvent::TaskLost {
            at: r.time(),
            task: r.u32(),
            slot: r.u32(),
            query: r.u32(),
            server: r.u32(),
        },
        TAG_LEASE_RECLAIMED => TraceEvent::LeaseReclaimed {
            at: r.time(),
            task: r.u32(),
            query: r.u32(),
            server: r.u32(),
            token: LeaseToken(r.u64()),
        },
        TAG_DUPLICATE_SUPPRESSED => TraceEvent::DuplicateSuppressed {
            at: r.time(),
            task: r.u32(),
            query: r.u32(),
            server: r.u32(),
        },
        TAG_STALE_COMMIT_REJECTED => TraceEvent::StaleCommitRejected {
            at: r.time(),
            task: r.u32(),
            query: r.u32(),
            server: r.u32(),
            token: LeaseToken(r.u64()),
        },
        TAG_ADMISSION_PAUSE => TraceEvent::AdmissionPause { at: r.time() },
        TAG_ADMISSION_RESUME => TraceEvent::AdmissionResume { at: r.time() },
        TAG_SERVER_EJECTED => TraceEvent::ServerEjected {
            at: r.time(),
            server: r.u32(),
        },
        TAG_SERVER_READMITTED => TraceEvent::ServerReadmitted {
            at: r.time(),
            server: r.u32(),
        },
        TAG_HEDGE_BUDGET_EXHAUSTED => TraceEvent::HedgeBudgetExhausted {
            at: r.time(),
            slot: r.u32(),
            query: r.u32(),
            class: r.u8(),
        },
        _ => return None,
    })
}

/// Decodes a concatenation of fixed-width records, skipping (and
/// counting) undecodable ones. The trailing partial record, if the input
/// length is not a multiple of [`EVENT_BYTES`], is ignored.
#[expect(
    clippy::integer_division_remainder_used,
    reason = "`EVENT_BYTES` is a non-zero constant"
)]
pub fn decode_stream(bytes: &[u8]) -> (Vec<TraceEvent>, u64) {
    let mut events = Vec::with_capacity(bytes.len() / EVENT_BYTES);
    let mut corrupt = 0u64;
    for rec in bytes.as_chunks::<EVENT_BYTES>().0 {
        match decode(rec) {
            Some(ev) => events.push(ev),
            None => corrupt += 1,
        }
    }
    (events, corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QueryAdmitted {
                at: SimTime::from_millis(1),
                query: 9,
                class: 2,
                fanout: 16,
                deadline: SimTime::from_millis(11),
            },
            TraceEvent::QueryRejected {
                at: SimTime::from_millis(2),
                class: 1,
                fanout: 4,
            },
            TraceEvent::TaskEnqueued {
                at: SimTime::from_millis(3),
                task: 40,
                slot: 40,
                query: 9,
                class: 2,
                server: 7,
                kind: AttemptKind::Hedge,
                deadline: SimTime::from_millis(11),
            },
            TraceEvent::TaskDequeued {
                at: SimTime::from_millis(4),
                task: 40,
                slot: 40,
                query: 9,
                class: 2,
                kind: AttemptKind::Retry,
                server: 7,
                token: LeaseToken(u64::MAX),
                waited: SimDuration::from_millis(1),
                slack_ns: -123_456,
            },
            TraceEvent::DeadlineMissed {
                at: SimTime::from_millis(4),
                task: 40,
                query: 9,
                server: 7,
                late_by: SimDuration::from_nanos(123_456),
            },
            TraceEvent::HedgeIssued {
                at: SimTime::from_millis(5),
                task: 41,
                slot: 40,
                query: 9,
                server: 3,
            },
            TraceEvent::TaskCancelled {
                at: SimTime::from_millis(6),
                task: 41,
                slot: 40,
                query: 9,
                server: 3,
            },
            TraceEvent::TaskCompleted {
                at: SimTime::from_millis(7),
                task: 40,
                slot: 40,
                query: 9,
                server: 7,
                busy: SimDuration::from_millis(2),
                won: true,
            },
            TraceEvent::TaskLost {
                at: SimTime::from_millis(8),
                task: 42,
                slot: 42,
                query: 9,
                server: 1,
            },
            TraceEvent::LeaseReclaimed {
                at: SimTime::from_millis(9),
                task: 42,
                query: 9,
                server: 1,
                token: LeaseToken(17),
            },
            TraceEvent::DuplicateSuppressed {
                at: SimTime::from_millis(10),
                task: 42,
                query: 9,
                server: 1,
            },
            TraceEvent::StaleCommitRejected {
                at: SimTime::from_millis(11),
                task: 42,
                query: 9,
                server: 1,
                token: LeaseToken(16),
            },
            TraceEvent::AdmissionPause {
                at: SimTime::from_millis(12),
            },
            TraceEvent::AdmissionResume {
                at: SimTime::from_millis(13),
            },
            TraceEvent::ServerEjected {
                at: SimTime::from_millis(14),
                server: 5,
            },
            TraceEvent::ServerReadmitted {
                at: SimTime::from_millis(15),
                server: 5,
            },
            TraceEvent::HedgeBudgetExhausted {
                at: SimTime::from_millis(16),
                slot: 50,
                query: 12,
                class: 0,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let mut buf = [0u8; EVENT_BYTES];
            encode_into(&ev, &mut buf);
            assert_eq!(decode(&buf), Some(ev));
        }
    }

    #[test]
    fn encoding_is_deterministic_and_zero_padded() {
        let ev = TraceEvent::AdmissionPause {
            at: SimTime::from_nanos(0x0102_0304_0506_0708),
        };
        let mut a = [0xFFu8; EVENT_BYTES];
        let mut b = [0u8; EVENT_BYTES];
        encode_into(&ev, &mut a);
        encode_into(&ev, &mut b);
        assert_eq!(a, b, "stale buffer contents must not leak into padding");
        assert!(a[9..].iter().all(|&x| x == 0), "tail is zero-padded");
    }

    #[test]
    fn widest_variant_fills_the_record_exactly() {
        let ev = TraceEvent::TaskDequeued {
            at: SimTime::from_nanos(u64::MAX),
            task: u32::MAX,
            slot: u32::MAX,
            query: u32::MAX,
            class: u8::MAX,
            kind: AttemptKind::Retry,
            server: u32::MAX,
            token: LeaseToken(u64::MAX),
            waited: SimDuration::from_nanos(u64::MAX),
            slack_ns: i64::MIN,
        };
        let mut buf = [0u8; EVENT_BYTES];
        encode_into(&ev, &mut buf);
        assert_eq!(decode(&buf), Some(ev));
        assert_ne!(buf[EVENT_BYTES - 1], 0, "TaskDequeued uses every byte");
    }

    #[test]
    fn near_max_timestamps_round_trip() {
        // The ns→field audit contract: every time-carrying field is a full
        // 64-bit lane, so timestamps a few ns below the end of the u64
        // domain (≈ 584 years of virtual time) survive unchanged.
        for off in 0..4u64 {
            let t = u64::MAX - off;
            for ev in [
                TraceEvent::AdmissionPause {
                    at: SimTime::from_nanos(t),
                },
                TraceEvent::QueryAdmitted {
                    at: SimTime::from_nanos(t),
                    query: 1,
                    class: 0,
                    fanout: 2,
                    deadline: SimTime::from_nanos(t),
                },
                TraceEvent::DeadlineMissed {
                    at: SimTime::from_nanos(t),
                    task: 3,
                    query: 1,
                    server: 0,
                    late_by: SimDuration::from_nanos(t),
                },
            ] {
                let mut buf = [0u8; EVENT_BYTES];
                encode_into(&ev, &mut buf);
                assert_eq!(decode(&buf), Some(ev));
            }
        }
    }

    #[test]
    fn unknown_tag_and_bad_kind_decode_to_none() {
        let mut buf = [0u8; EVENT_BYTES];
        buf[0] = 200;
        assert_eq!(decode(&buf), None);
        let ev = TraceEvent::TaskEnqueued {
            at: SimTime::ZERO,
            task: 1,
            slot: 1,
            query: 0,
            class: 0,
            server: 0,
            kind: AttemptKind::Original,
            deadline: SimTime::ZERO,
        };
        encode_into(&ev, &mut buf);
        buf[26] = 9; // the AttemptKind byte
        assert_eq!(decode(&buf), None);
    }

    #[test]
    fn decode_stream_skips_corrupt_and_partial_records() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for ev in &events {
            let mut buf = [0u8; EVENT_BYTES];
            encode_into(ev, &mut buf);
            bytes.extend_from_slice(&buf);
        }
        bytes[EVENT_BYTES] = 250; // corrupt the second record's tag
        bytes.extend_from_slice(&[1, 2, 3]); // trailing partial record
        let (decoded, corrupt) = decode_stream(&bytes);
        assert_eq!(corrupt, 1);
        assert_eq!(decoded.len(), events.len() - 1);
        assert_eq!(decoded[0], events[0]);
        assert_eq!(decoded[1], events[2]);
    }
}
