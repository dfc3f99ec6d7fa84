//! Query trace generation and serialization.

use crate::{ArrivalProcess, FanoutDist};
use serde::{Deserialize, Serialize};
use tailguard_simcore::{SimRng, SimTime};

/// One class's share of the query mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassShare {
    /// Class index (0 = tightest SLO).
    pub class: u8,
    /// Probability of a query belonging to this class.
    pub probability: f64,
    /// Fanout distribution for this class's queries.
    pub fanout: FanoutDist,
}

/// The query mix: classes with probabilities and per-class fanout models.
///
/// # Example
///
/// ```
/// use tailguard_workload::{ClassShare, FanoutDist, QueryMix};
///
/// // The paper's two-class case: equal class probability, shared fanout mix.
/// let mix = QueryMix::new(vec![
///     ClassShare { class: 0, probability: 0.5, fanout: FanoutDist::paper_mix() },
///     ClassShare { class: 1, probability: 0.5, fanout: FanoutDist::paper_mix() },
/// ]);
/// assert_eq!(mix.classes().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryMix {
    classes: Vec<ClassShare>,
    cumulative: Vec<f64>,
}

impl QueryMix {
    /// Builds a mix; probabilities are normalized to sum to one.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty or probabilities are negative /
    /// non-finite / all zero.
    pub fn new(classes: Vec<ClassShare>) -> Self {
        assert!(!classes.is_empty(), "mix needs at least one class");
        let total: f64 = classes.iter().map(|c| c.probability).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "class probabilities must sum to a positive value"
        );
        assert!(
            classes
                .iter()
                .all(|c| c.probability.is_finite() && c.probability >= 0.0),
            "class probabilities must be non-negative"
        );
        let mut cumulative = Vec::with_capacity(classes.len());
        let mut acc = 0.0;
        for c in &classes {
            acc += c.probability / total;
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        QueryMix {
            classes,
            cumulative,
        }
    }

    /// A single-class mix with the given fanout distribution.
    pub fn single(fanout: FanoutDist) -> Self {
        QueryMix::new(vec![ClassShare {
            class: 0,
            probability: 1.0,
            fanout,
        }])
    }

    /// `n` equiprobable classes sharing one fanout distribution (the
    /// paper's two-class and four-class configurations).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn equiprobable(n: u8, fanout: FanoutDist) -> Self {
        assert!(n > 0, "need at least one class");
        QueryMix::new(
            (0..n)
                .map(|class| ClassShare {
                    class,
                    probability: 1.0,
                    fanout: fanout.clone(),
                })
                .collect(),
        )
    }

    /// The class shares.
    pub fn classes(&self) -> &[ClassShare] {
        &self.classes
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Draws `(class, fanout)` for one query.
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded: records are validated sorted by arrival and the branch above requires len >= 2"
    )]
    pub fn sample(&self, rng: &mut SimRng) -> (u8, u32) {
        let u = rng.f64();
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            // tg-lint: allow(unsigned-sub) -- guarded: records are validated sorted by arrival and the branch above requires len >= 2
            .min(self.classes.len() - 1);
        let share = &self.classes[idx];
        (share.class, share.fanout.sample(rng))
    }

    /// The largest fanout any class can draw.
    #[expect(
        clippy::expect_used,
        reason = "mix constructors assert at least one class share"
    )]
    pub fn max_fanout(&self) -> u32 {
        self.classes
            .iter()
            .map(|c| c.fanout.max_fanout())
            .max()
            .expect("non-empty")
    }
}

/// One query in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Arrival time in nanoseconds since trace start.
    pub arrival_ns: u64,
    /// Service class index.
    pub class: u8,
    /// Query fanout `k_f`.
    pub fanout: u32,
}

impl QueryRecord {
    /// The arrival instant as a [`SimTime`].
    pub fn arrival(&self) -> SimTime {
        SimTime::from_nanos(self.arrival_ns)
    }
}

/// Metadata identifying how a trace was generated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable workload label (e.g. "Masstree two-class").
    pub label: String,
    /// Arrival process used.
    pub arrival: ArrivalProcess,
    /// RNG seed the trace was generated from.
    pub seed: u64,
}

/// A reproducible query trace: arrival times, classes and fanouts.
///
/// Traces decouple workload generation from simulation: the same trace can
/// be replayed under every queuing policy so policy comparisons share
/// identical arrivals (the variance-reduction trick the paper's simulations
/// rely on implicitly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Generation metadata.
    pub meta: TraceMeta,
    /// Queries in non-decreasing arrival order.
    pub records: Vec<QueryRecord>,
}

/// Errors from trace (de)serialization.
#[derive(Debug)]
pub enum TraceError {
    /// Malformed JSON.
    Json(serde_json::Error),
    /// Malformed CSV row.
    Csv(String),
    /// Records were not sorted by arrival time.
    NotSorted,
    /// The record at this index has a fanout of 0: a query with no task.
    ZeroFanout(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "trace json invalid: {e}"),
            TraceError::Csv(msg) => write!(f, "trace csv invalid: {msg}"),
            TraceError::NotSorted => f.write_str("trace records not sorted by arrival time"),
            TraceError::ZeroFanout(i) => write!(f, "trace record {i} has fanout 0"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Json(e) => Some(e),
            TraceError::Csv(_) | TraceError::NotSorted | TraceError::ZeroFanout(_) => None,
        }
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

impl Trace {
    /// Generates a trace of `count` queries.
    pub fn generate(
        label: impl Into<String>,
        arrival: &ArrivalProcess,
        mix: &QueryMix,
        count: usize,
        seed: u64,
    ) -> Self {
        let mut master = SimRng::seed(seed);
        let mut arrival_rng = master.split();
        let mut mix_rng = master.split();
        let mut t = SimTime::ZERO;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            t += arrival.next_gap(&mut arrival_rng);
            let (class, fanout) = mix.sample(&mut mix_rng);
            records.push(QueryRecord {
                arrival_ns: t.as_nanos(),
                class,
                fanout,
            });
        }
        Trace {
            meta: TraceMeta {
                label: label.into(),
                arrival: arrival.clone(),
                seed,
            },
            records,
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no queries.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Trace duration (arrival time of the last query).
    pub fn duration(&self) -> SimTime {
        self.records
            .last()
            .map_or(SimTime::ZERO, QueryRecord::arrival)
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Json`] if serialization fails (it cannot for
    /// well-formed traces).
    pub fn to_json(&self) -> Result<String, TraceError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Parses a trace from JSON, validating arrival order and fanouts.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Json`] on malformed input,
    /// [`TraceError::NotSorted`] when arrivals are out of order and
    /// [`TraceError::ZeroFanout`] on a record with a fanout of 0.
    #[expect(
        clippy::indexing_slicing,
        reason = "`windows(2)` yields two-element slices"
    )]
    pub fn from_json(s: &str) -> Result<Self, TraceError> {
        let trace: Trace = serde_json::from_str(s)?;
        if trace
            .records
            .windows(2)
            .any(|w| w[1].arrival_ns < w[0].arrival_ns)
        {
            return Err(TraceError::NotSorted);
        }
        if let Some(i) = trace.records.iter().position(|r| r.fanout == 0) {
            return Err(TraceError::ZeroFanout(i));
        }
        Ok(trace)
    }

    /// Serializes the records as CSV (`arrival_ns,class,fanout`, one query
    /// per line) — the interchange format for external tooling. Metadata is
    /// not carried; use JSON for loss-free round-trips.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "arrival_ns,class,fanout
",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{}
",
                r.arrival_ns, r.class, r.fanout
            ));
        }
        out
    }

    /// Parses records from CSV produced by [`Trace::to_csv`] (or any file
    /// with the same header). The metadata is reconstructed as a synthetic
    /// Poisson process at the trace's empirical mean rate.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Csv`] on malformed rows and
    /// [`TraceError::NotSorted`] when arrivals are out of order.
    #[expect(clippy::expect_used, reason = "guarded by the len() >= 2 branch above")]
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded: records are validated sorted by arrival and the branch above requires len >= 2"
    )]
    pub fn from_csv(s: &str) -> Result<Self, TraceError> {
        let mut lines = s.lines();
        match lines.next() {
            Some(h) if h.trim() == "arrival_ns,class,fanout" => {}
            _ => return Err(TraceError::Csv("missing header".to_string())),
        }
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let parse_err = || TraceError::Csv(format!("line {}: `{line}`", i + 2));
            let arrival_ns: u64 = parts
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let class: u8 = parts
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let fanout: u32 = parts
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(parse_err)?;
            if parts.next().is_some() || fanout == 0 {
                return Err(parse_err());
            }
            records.push(QueryRecord {
                arrival_ns,
                class,
                fanout,
            });
        }
        if records
            .windows(2)
            .any(|w| w[1].arrival_ns < w[0].arrival_ns)
        {
            return Err(TraceError::NotSorted);
        }
        let rate = if records.len() >= 2 {
            // tg-lint: allow(unsigned-sub) -- guarded: records are validated sorted by arrival and the branch above requires len >= 2
            let span_ms = (records.last().expect("non-empty").arrival_ns - records[0].arrival_ns)
                as f64
                / 1e6;
            if span_ms > 0.0 {
                // tg-lint: allow(unsigned-sub) -- guarded: records are validated sorted by arrival and the branch above requires len >= 2
                (records.len() - 1) as f64 / span_ms
            } else {
                1.0
            }
        } else {
            1.0
        };
        Ok(Trace {
            meta: TraceMeta {
                label: "imported-csv".to_string(),
                arrival: ArrivalProcess::poisson(rate.max(1e-9)),
                seed: 0,
            },
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix2() -> QueryMix {
        QueryMix::equiprobable(2, FanoutDist::paper_mix())
    }

    #[test]
    fn generate_is_deterministic() {
        let a = ArrivalProcess::poisson(1.0);
        let t1 = Trace::generate("t", &a, &mix2(), 1000, 7);
        let t2 = Trace::generate("t", &a, &mix2(), 1000, 7);
        assert_eq!(t1, t2);
        let t3 = Trace::generate("t", &a, &mix2(), 1000, 8);
        assert_ne!(t1, t3);
    }

    #[test]
    fn arrivals_sorted_and_rate_correct() {
        let a = ArrivalProcess::poisson(2.0);
        let t = Trace::generate("t", &a, &mix2(), 100_000, 1);
        assert!(t
            .records
            .windows(2)
            .all(|w| w[1].arrival_ns >= w[0].arrival_ns));
        let rate = t.len() as f64 / t.duration().as_millis_f64();
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn class_split_roughly_even() {
        let a = ArrivalProcess::poisson(1.0);
        let t = Trace::generate("t", &a, &mix2(), 100_000, 2);
        let c0 = t.records.iter().filter(|r| r.class == 0).count();
        let frac = c0 as f64 / t.len() as f64;
        assert!((frac - 0.5).abs() < 0.01, "class-0 fraction {frac}");
    }

    #[test]
    fn json_roundtrip() {
        let a = ArrivalProcess::pareto(0.5);
        let t = Trace::generate("roundtrip", &a, &mix2(), 500, 3);
        let json = t.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.meta.label, "roundtrip");
        assert_eq!(back.meta.seed, 3);
    }

    #[test]
    fn unsorted_json_rejected() {
        let a = ArrivalProcess::poisson(1.0);
        let mut t = Trace::generate("bad", &a, &mix2(), 10, 4);
        t.records.swap(0, 9);
        let json = t.to_json().unwrap();
        assert!(matches!(
            Trace::from_json(&json),
            Err(TraceError::NotSorted)
        ));
    }

    #[test]
    fn csv_roundtrip_preserves_records() {
        let a = ArrivalProcess::poisson(2.0);
        let t = Trace::generate("csv", &a, &mix2(), 500, 21);
        let csv = t.to_csv();
        let back = Trace::from_csv(&csv).expect("parse");
        assert_eq!(t.records, back.records);
        // Reconstructed rate approximates the original.
        assert!((back.meta.arrival.rate_per_ms() - 2.0).abs() < 0.3);
    }

    #[test]
    fn json_rejects_a_zero_fanout() {
        let mut trace = Trace::generate("t", &ArrivalProcess::poisson(1.0), &mix2(), 5, 1);
        trace.records[3].fanout = 0;
        let json = trace.to_json().expect("serializes");
        assert!(matches!(
            Trace::from_json(&json),
            Err(TraceError::ZeroFanout(3))
        ));
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(matches!(Trace::from_csv("nope"), Err(TraceError::Csv(_))));
        assert!(matches!(
            Trace::from_csv(
                "arrival_ns,class,fanout
1,2
"
            ),
            Err(TraceError::Csv(_))
        ));
        assert!(matches!(
            Trace::from_csv(
                "arrival_ns,class,fanout
1,0,0
"
            ),
            Err(TraceError::Csv(_))
        ));
        assert!(matches!(
            Trace::from_csv(
                "arrival_ns,class,fanout
5,0,1
1,0,1
"
            ),
            Err(TraceError::NotSorted)
        ));
    }

    #[test]
    fn csv_tolerates_blank_lines() {
        let t = Trace::from_csv(
            "arrival_ns,class,fanout
1,0,1

2,1,4
",
        )
        .expect("parse");
        assert_eq!(t.len(), 2);
        assert_eq!(t.records[1].fanout, 4);
    }

    #[test]
    fn mix_validation() {
        let m = QueryMix::new(vec![
            ClassShare {
                class: 0,
                probability: 3.0,
                fanout: FanoutDist::fixed(1),
            },
            ClassShare {
                class: 1,
                probability: 1.0,
                fanout: FanoutDist::fixed(2),
            },
        ]);
        let mut rng = SimRng::seed(8);
        let n = 100_000;
        let c0 = (0..n).filter(|_| m.sample(&mut rng).0 == 0).count();
        let frac = c0 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
        assert_eq!(m.max_fanout(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = QueryMix::new(vec![]);
    }
}
