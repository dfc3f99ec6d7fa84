//! Flat-file exporters for recorded event streams (JSONL and CSV).
//!
//! Both formats carry the same columns; fields that do not apply to an
//! event kind are omitted (JSONL) or left empty (CSV). Times are integer
//! nanoseconds on the producing runtime's clock, so external tooling
//! never parses floats it has to round-trip.

use std::fmt;

use tailguard_sched::TraceEvent;

/// The CSV header matching [`event_to_csv_row`]: `at_ns`, `event`, then
/// the JSONL field order with `token` moved last.
pub const CSV_HEADER: &str =
    "at_ns,event,query,task,slot,class,fanout,server,kind,deadline_ns,waited_ns,slack_ns,busy_ns,late_by_ns,won,token";

/// Position of `token` in [`Row::named`]; [`CSV_HEADER`] puts it last.
const TOKEN_COLUMN: usize = 7;

/// One column's value. Names are quoted in JSON and bare in CSV.
#[derive(Clone, Copy)]
enum Cell {
    Num(u64),
    Signed(i64),
    Name(&'static str),
    Flag(bool),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Num(v) => write!(f, "{v}"),
            Cell::Signed(v) => write!(f, "{v}"),
            Cell::Name(v) => f.write_str(v),
            Cell::Flag(v) => write!(f, "{v}"),
        }
    }
}

/// The optional columns of one event; `None` where the kind has no such
/// field.
#[derive(Default)]
struct Row {
    query: Option<Cell>,
    task: Option<Cell>,
    slot: Option<Cell>,
    class: Option<Cell>,
    fanout: Option<Cell>,
    server: Option<Cell>,
    kind: Option<Cell>,
    token: Option<Cell>,
    deadline_ns: Option<Cell>,
    waited_ns: Option<Cell>,
    slack_ns: Option<Cell>,
    busy_ns: Option<Cell>,
    late_by_ns: Option<Cell>,
    won: Option<Cell>,
}

impl Row {
    /// Maps an event to its columns.
    fn of(ev: &TraceEvent) -> Row {
        let id = |v: u32| Some(Cell::Num(v.into()));
        let ns = |v: u64| Some(Cell::Num(v));
        let mut row = match *ev {
            TraceEvent::QueryAdmitted {
                class,
                fanout,
                deadline,
                ..
            } => Row {
                class: id(class.into()),
                fanout: id(fanout),
                deadline_ns: ns(deadline.as_nanos()),
                ..Row::default()
            },
            TraceEvent::QueryRejected { class, fanout, .. } => Row {
                class: id(class.into()),
                fanout: id(fanout),
                ..Row::default()
            },
            TraceEvent::TaskEnqueued {
                task,
                slot,
                class,
                server,
                kind,
                deadline,
                ..
            } => Row {
                task: id(task),
                slot: id(slot),
                class: id(class.into()),
                server: id(server),
                kind: Some(Cell::Name(kind.name())),
                deadline_ns: ns(deadline.as_nanos()),
                ..Row::default()
            },
            TraceEvent::TaskDequeued {
                task,
                slot,
                class,
                kind,
                server,
                token,
                waited,
                slack_ns,
                ..
            } => Row {
                task: id(task),
                slot: id(slot),
                class: id(class.into()),
                server: id(server),
                kind: Some(Cell::Name(kind.name())),
                token: ns(token.0),
                waited_ns: ns(waited.as_nanos()),
                slack_ns: Some(Cell::Signed(slack_ns)),
                ..Row::default()
            },
            TraceEvent::DeadlineMissed {
                task,
                server,
                late_by,
                ..
            } => Row {
                task: id(task),
                server: id(server),
                late_by_ns: ns(late_by.as_nanos()),
                ..Row::default()
            },
            TraceEvent::HedgeIssued {
                task, slot, server, ..
            }
            | TraceEvent::TaskCancelled {
                task, slot, server, ..
            }
            | TraceEvent::TaskLost {
                task, slot, server, ..
            } => Row {
                task: id(task),
                slot: id(slot),
                server: id(server),
                ..Row::default()
            },
            TraceEvent::TaskCompleted {
                task,
                slot,
                server,
                busy,
                won,
                ..
            } => Row {
                task: id(task),
                slot: id(slot),
                server: id(server),
                busy_ns: ns(busy.as_nanos()),
                won: Some(Cell::Flag(won)),
                ..Row::default()
            },
            TraceEvent::LeaseReclaimed {
                task,
                server,
                token,
                ..
            }
            | TraceEvent::StaleCommitRejected {
                task,
                server,
                token,
                ..
            } => Row {
                task: id(task),
                server: id(server),
                token: ns(token.0),
                ..Row::default()
            },
            TraceEvent::DuplicateSuppressed { task, server, .. } => Row {
                task: id(task),
                server: id(server),
                ..Row::default()
            },
            TraceEvent::ServerEjected { server, .. }
            | TraceEvent::ServerReadmitted { server, .. } => Row {
                server: id(server),
                ..Row::default()
            },
            TraceEvent::HedgeBudgetExhausted { slot, class, .. } => Row {
                slot: id(slot),
                class: id(class.into()),
                ..Row::default()
            },
            TraceEvent::AdmissionPause { .. } | TraceEvent::AdmissionResume { .. } => {
                Row::default()
            }
        };
        row.query = ev.query().and_then(id);
        row
    }

    /// The columns with their names, in JSON field order.
    fn named(self) -> [(&'static str, Option<Cell>); 14] {
        [
            ("query", self.query),
            ("task", self.task),
            ("slot", self.slot),
            ("class", self.class),
            ("fanout", self.fanout),
            ("server", self.server),
            ("kind", self.kind),
            ("token", self.token),
            ("deadline_ns", self.deadline_ns),
            ("waited_ns", self.waited_ns),
            ("slack_ns", self.slack_ns),
            ("busy_ns", self.busy_ns),
            ("late_by_ns", self.late_by_ns),
            ("won", self.won),
        ]
    }
}

/// Renders one event as a JSON object (one JSONL line, no trailing
/// newline).
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut out = format!(
        "{{\"at_ns\":{},\"event\":\"{}\"",
        ev.at().as_nanos(),
        ev.kind_name()
    );
    for (name, cell) in Row::of(ev).named() {
        match cell {
            Some(Cell::Name(v)) => out.push_str(&format!(",\"{name}\":\"{v}\"")),
            Some(v) => out.push_str(&format!(",\"{name}\":{v}")),
            None => {}
        }
    }
    out.push('}');
    out
}

/// Renders an event stream as JSONL (one object per line).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Renders one event as a CSV row under [`CSV_HEADER`].
pub fn event_to_csv_row(ev: &TraceEvent) -> String {
    let cols = Row::of(ev).named();
    let (head, rest) = cols.split_at(TOKEN_COLUMN);
    let (token, tail) = rest.split_at(1);
    let mut out = format!("{},{}", ev.at().as_nanos(), ev.kind_name());
    for (_, cell) in head.iter().chain(tail).chain(token) {
        out.push(',');
        if let Some(v) = cell {
            out.push_str(&v.to_string());
        }
    }
    out
}

/// Renders an event stream as CSV with a header row.
pub fn events_to_csv(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for ev in events {
        out.push_str(&event_to_csv_row(ev));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_sched::AttemptKind;
    use tailguard_simcore::{SimDuration, SimTime};

    #[test]
    fn jsonl_lines_parse_as_json() {
        let events = [
            TraceEvent::QueryAdmitted {
                at: SimTime::from_millis(1),
                query: 3,
                class: 1,
                fanout: 10,
                deadline: SimTime::from_millis(4),
            },
            TraceEvent::TaskDequeued {
                at: SimTime::from_millis(2),
                task: 5,
                slot: 4,
                query: 3,
                class: 1,
                kind: AttemptKind::Hedge,
                server: 7,
                token: tailguard_sched::LeaseToken(9),
                waited: SimDuration::from_millis(1),
                slack_ns: -250,
            },
            TraceEvent::LeaseReclaimed {
                at: SimTime::from_millis(3),
                task: 5,
                query: 3,
                server: 7,
                token: tailguard_sched::LeaseToken(9),
            },
        ];
        let jsonl = events_to_jsonl(&events);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.get("at_ns").unwrap().as_u64().is_some());
            assert!(v.get("event").unwrap().as_str().is_some());
        }
        assert!(jsonl.contains("\"slack_ns\":-250"));
        assert!(jsonl.contains("\"kind\":\"hedge\""));
        assert!(jsonl.contains("\"slot\":4"));
        assert!(jsonl.contains("\"token\":9"));
        assert!(jsonl.contains("\"event\":\"lease_reclaimed\""));
    }

    #[test]
    fn csv_rows_have_the_header_arity() {
        let events = [
            TraceEvent::AdmissionPause {
                at: SimTime::from_millis(9),
            },
            TraceEvent::TaskCompleted {
                at: SimTime::from_millis(10),
                task: 1,
                slot: 1,
                query: 0,
                server: 2,
                busy: SimDuration::from_millis(3),
                won: true,
            },
            TraceEvent::StaleCommitRejected {
                at: SimTime::from_millis(11),
                task: 1,
                query: 0,
                server: 2,
                token: tailguard_sched::LeaseToken(3),
            },
            TraceEvent::DuplicateSuppressed {
                at: SimTime::from_millis(12),
                task: 1,
                query: 0,
                server: 2,
            },
        ];
        let csv = events_to_csv(&events);
        let cols = CSV_HEADER.split(',').count();
        assert_eq!(cols, 16, "token column appended");
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(csv.contains("task_completed"));
        assert!(csv.contains("stale_commit_rejected"));
        assert!(csv.contains("duplicate_suppressed"));
    }
}
