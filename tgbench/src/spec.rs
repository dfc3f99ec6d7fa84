//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root: workload names, metric names, units, directions and bounds. The
//! binary takes every name and unit from here, so the file and the output
//! cannot drift apart.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the baseline by which the metric may worsen; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

fn metric_defs(root: &Value, key: &str) -> Vec<MetricDef> {
    let text = |m: &Value, k: &str| -> String {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without `{k}`"))
            .to_string()
    };
    root.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when the file is malformed — a build-time defect, not a
    /// runtime condition.
    pub fn load() -> Spec {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            workloads: root
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_defs(&root, "end_to_end"),
            per_layer: metric_defs(&root, "per_layer"),
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
        }
    }

    /// The metric list a run with the given trace mode must report.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
