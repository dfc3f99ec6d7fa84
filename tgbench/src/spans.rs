//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent, workload). They are recorded from
//! the benchmark's own files — the program carries no instrumentation —
//! kept in memory while measuring, and written out once at exit. A span's
//! self time is its duration minus the part its children cover.

use serde_json::Value;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span tree of one workload run. Creating it opens the root span.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Starts recording; the root span is named after the workload.
    pub fn new(workload: &str) -> Spans {
        let mut s = Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        s.enter(workload);
        s
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an `enter`/`exit` imbalance is a bug in
    /// the benchmark).
    pub fn exit(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Runs `f` `reps` times inside one span (one child span per
    /// repetition) and returns each repetition's seconds.
    pub fn time_reps(&mut self, name: &str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        self.enter(name);
        let secs = (0..reps).map(|_| self.time("rep", &mut f).1).collect();
        self.exit();
        secs
    }

    /// Closes every open span (the root included) and renders the tree.
    pub fn finish(mut self) -> Value {
        while !self.open.is_empty() {
            self.exit();
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_ns - s.start_ns;
                Value::Map(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("workload".into(), Value::Str(self.workload.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "self_ns".into(),
                        Value::U64(dur.saturating_sub(child_ns[id])),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}
