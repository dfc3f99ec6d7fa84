//! What one workload run produced: named metric values, the raw host-time
//! samples behind the medians, and the verdicts of the output checks.

use crate::host::{median, quantile};
use crate::spec::MetricDef;
use serde_json::Value;

/// Collected results of one (workload, trace mode) run.
#[derive(Debug, Default)]
pub struct Outcome {
    values: Vec<(String, f64)>,
    samples: Vec<(String, Vec<f64>)>,
    checks: Vec<(String, bool)>,
    /// Operations the run attempted (queries offered over the timed
    /// repetitions) and how many of them the system lost outright.
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Reports a metric value.
    ///
    /// # Panics
    ///
    /// Panics when the name is reported twice — a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.values.push((name.to_string(), value));
    }

    /// Reports a host-time metric as the median of its samples and keeps
    /// the samples for `latest.json`.
    pub fn put_median(&mut self, name: &str, samples: Vec<f64>) {
        self.put(name, median(&samples));
        self.samples.push((name.to_string(), samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Records the verdict of one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Prints the run for people and for the driver: one `name value unit`
    /// line per reported metric, one line per check, a `#detail` line with
    /// the raw samples, and last the one-line JSON result holding exactly
    /// the metrics `defs` names (a per-layer metric that does not apply to
    /// this workload is absent above and 0 in the JSON).
    ///
    /// # Panics
    ///
    /// Panics when a reported metric is not in `defs`, or an end-to-end
    /// metric in `defs` was not reported — both bugs in the benchmark.
    pub fn print(&self, defs: &[MetricDef], per_layer: bool) {
        for (name, value) in &self.values {
            let def = defs
                .iter()
                .find(|d| &d.name == name)
                .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
            println!("{name} {value} {}", def.unit);
        }
        for (what, ok) in &self.checks {
            println!("check {} {what}", if *ok { "ok" } else { "FAILED" });
        }
        let detail: Vec<(String, Value)> = self
            .samples
            .iter()
            .map(|(name, s)| {
                let stats = Value::Map(vec![
                    ("min".into(), Value::F64(quantile(s, 0.0))),
                    ("q1".into(), Value::F64(quantile(s, 0.25))),
                    ("median".into(), Value::F64(median(s))),
                    ("q3".into(), Value::F64(quantile(s, 0.75))),
                    (
                        "samples".into(),
                        Value::Seq(s.iter().map(|&v| Value::F64(v)).collect()),
                    ),
                ]);
                (name.clone(), stats)
            })
            .collect();
        println!(
            "#detail {}",
            serde_json::to_string(&Value::Map(detail)).expect("json")
        );
        let metrics: Vec<(String, Value)> = defs
            .iter()
            .map(|d| {
                let value = match self.get(&d.name) {
                    Some(v) => v,
                    None if per_layer => 0.0,
                    None => panic!("end-to-end metric {} was not reported", d.name),
                };
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect();
        let result = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        println!("{}", serde_json::to_string(&result).expect("json"));
    }
}
