//! Byte pins for both flat-file exporters: one event of every
//! `TraceEvent` kind, rendered through `events_to_jsonl` and
//! `events_to_csv`, must match the committed expected text exactly.

use tailguard_obs::{events_to_csv, events_to_jsonl};
use tailguard_sched::{AttemptKind, LeaseToken, TraceEvent};
use tailguard_simcore::{SimDuration, SimTime};

/// One event of each of the 17 kinds, with every id distinct so a column
/// written from the wrong field shows up.
fn every_kind() -> Vec<TraceEvent> {
    let at = SimTime::from_nanos;
    let dur = SimDuration::from_nanos;
    vec![
        TraceEvent::QueryAdmitted {
            at: at(1_000),
            query: 3,
            class: 1,
            fanout: 10,
            deadline: at(4_000),
        },
        TraceEvent::QueryRejected {
            at: at(1_001),
            class: 2,
            fanout: 20,
        },
        TraceEvent::TaskEnqueued {
            at: at(1_002),
            task: 5,
            slot: 4,
            query: 3,
            class: 1,
            server: 7,
            kind: AttemptKind::Original,
            deadline: at(4_000),
        },
        TraceEvent::TaskDequeued {
            at: at(1_003),
            task: 6,
            slot: 4,
            query: 3,
            class: 1,
            kind: AttemptKind::Hedge,
            server: 8,
            token: LeaseToken(9),
            waited: dur(11),
            slack_ns: -250,
        },
        TraceEvent::DeadlineMissed {
            at: at(1_004),
            task: 6,
            query: 3,
            server: 8,
            late_by: dur(250),
        },
        TraceEvent::HedgeIssued {
            at: at(1_005),
            task: 12,
            slot: 4,
            query: 3,
            server: 13,
        },
        TraceEvent::TaskCancelled {
            at: at(1_006),
            task: 12,
            slot: 4,
            query: 3,
            server: 13,
        },
        TraceEvent::TaskCompleted {
            at: at(1_007),
            task: 5,
            slot: 4,
            query: 3,
            server: 7,
            busy: dur(600),
            won: true,
        },
        TraceEvent::TaskLost {
            at: at(1_008),
            task: 14,
            slot: 15,
            query: 16,
            server: 17,
        },
        TraceEvent::LeaseReclaimed {
            at: at(1_009),
            task: 14,
            query: 16,
            server: 17,
            token: LeaseToken(18),
        },
        TraceEvent::DuplicateSuppressed {
            at: at(1_010),
            task: 19,
            query: 16,
            server: 20,
        },
        TraceEvent::StaleCommitRejected {
            at: at(1_011),
            task: 21,
            query: 16,
            server: 22,
            token: LeaseToken(23),
        },
        TraceEvent::AdmissionPause { at: at(1_012) },
        TraceEvent::AdmissionResume { at: at(1_013) },
        TraceEvent::ServerEjected {
            at: at(1_014),
            server: 24,
        },
        TraceEvent::ServerReadmitted {
            at: at(1_015),
            server: 24,
        },
        TraceEvent::HedgeBudgetExhausted {
            at: at(1_016),
            slot: 25,
            query: 26,
            class: 3,
        },
    ]
}

#[test]
fn jsonl_of_every_kind_matches_the_pin() {
    assert_eq!(
        events_to_jsonl(&every_kind()),
        include_str!("golden/export_all_kinds.jsonl")
    );
}

#[test]
fn csv_of_every_kind_matches_the_pin() {
    assert_eq!(
        events_to_csv(&every_kind()),
        include_str!("golden/export_all_kinds.csv")
    );
}
