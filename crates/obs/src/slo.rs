//! Online SLO attainment monitoring with multi-window burn-rate alerts.
//!
//! TailGuard's contract is a *tail* SLO: at least `target` of dequeues
//! make their queuing deadline. A run-level attainment number hides when
//! the misses happened; [`SloMonitor`] instead buckets dequeues into
//! fixed time windows per class and tracks the miss ratio over two
//! horizons — the just-closed bucket (fast) and the last
//! [`SloConfig::slow_buckets`] buckets (slow) — as *burn rates*:
//! miss-ratio divided by the error budget `1 − target`, so burn `1.0`
//! means exactly consuming budget and `10.0` means burning it ten times
//! too fast. An alert fires only when **both** windows exceed
//! [`SloConfig::burn_threshold`]: the fast window makes alerts prompt,
//! the slow window keeps one noisy bucket from paging (the classic
//! multi-window multi-burn-rate construction).
//!
//! The monitor consumes decoded [`TraceEvent::TaskDequeued`] events off
//! the hot path (post-run or on scrape), keeps per-bucket coarse slack
//! histograms for windowed percentile tracking, and publishes its state
//! under the `tailguard_slo_*` names via [`SloMonitor::publish`].

use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use tailguard_dist::{Cdf, LogHistogram};
use tailguard_sched::{ClassSpec, TraceEvent};
use tailguard_simcore::SimDuration;

use crate::Registry;

/// The SLO being monitored and the windowing of its burn rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Attainment target in (0, 1): the fraction of dequeues that must
    /// make their deadline. The error budget is `1 − target`.
    pub target: f64,
    /// Width of one time bucket (the fast window).
    pub bucket: SimDuration,
    /// Buckets in the slow window (≥ 1); also how many buckets are
    /// retained for windowed percentile queries.
    pub slow_buckets: usize,
    /// Burn rate both windows must reach to raise an alert. `1.0` alerts
    /// on any over-budget burn; SRE practice starts around `2`–`14`
    /// depending on window length.
    pub burn_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target: 0.99,
            bucket: SimDuration::from_millis(100),
            slow_buckets: 10,
            burn_threshold: 2.0,
        }
    }
}

impl SloConfig {
    /// The default windows with the attainment target taken from the
    /// strictest (lowest) percentile in `classes`, so no configured class
    /// under-alerts; the plain default when `classes` is empty.
    pub fn for_classes(classes: &[ClassSpec]) -> Self {
        let target = classes
            .iter()
            .map(|c| c.percentile)
            .fold(f64::NAN, f64::min);
        SloConfig {
            target: if target.is_nan() { 0.99 } else { target },
            ..SloConfig::default()
        }
    }
}

/// Coarse per-bucket slack histogram: 1 µs to 10 s in ~30% steps — wide
/// enough for quantile tracking, cheap enough to keep one per bucket.
fn coarse_hist() -> LogHistogram {
    LogHistogram::with_range(1e-3, 1e4, 1.3)
}

/// One time bucket of one class's dequeue outcomes.
struct Bucket {
    /// The bucket's index (`at / bucket_width`).
    index: u64,
    dequeues: u64,
    misses: u64,
    /// Positive dequeue slack, ms.
    slack: LogHistogram,
}

/// One class's windowed state plus run-level totals.
struct ClassWindow {
    /// The most recent `slow_buckets + 1` buckets, oldest first; the last
    /// entry is the still-open current bucket.
    buckets: VecDeque<Bucket>,
    total_dequeues: u64,
    total_misses: u64,
    /// Burn rates as of the last closed bucket.
    fast_burn: f64,
    slow_burn: f64,
    /// Whether the alert condition held at the last closed bucket
    /// (alerts fire on the transition into this state).
    alerting: bool,
    alerts: u64,
}

impl ClassWindow {
    fn new(index: u64) -> Self {
        let mut buckets = VecDeque::new();
        buckets.push_back(Bucket {
            index,
            dequeues: 0,
            misses: 0,
            slack: coarse_hist(),
        });
        ClassWindow {
            buckets,
            total_dequeues: 0,
            total_misses: 0,
            fast_burn: 0.0,
            slow_burn: 0.0,
            alerting: false,
            alerts: 0,
        }
    }
}

/// One burn-rate alert: both windows of `class` exceeded the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloAlert {
    /// End of the bucket whose close raised the alert, nanoseconds.
    pub at_ns: u64,
    /// The burning class.
    pub class: u8,
    /// Fast-window burn rate at the alert.
    pub fast_burn: f64,
    /// Slow-window burn rate at the alert.
    pub slow_burn: f64,
}

/// Per-class summary of [`SloMonitor`] state, serialized into
/// `tailguard sim --json` and rendered by `tailguard slo`.
#[derive(Debug, Clone, Serialize)]
pub struct SloClassSnapshot {
    /// The service class.
    pub class: u8,
    /// Run-level dequeues observed.
    pub dequeues: u64,
    /// Run-level deadline misses.
    pub misses: u64,
    /// Run-level attainment `1 − misses/dequeues` (1.0 when idle).
    pub attainment: f64,
    /// Whether run-level attainment meets the target.
    pub met: bool,
    /// Fast-window burn rate as of the last closed bucket.
    pub fast_burn: f64,
    /// Slow-window burn rate as of the last closed bucket.
    pub slow_burn: f64,
    /// Alerts raised for this class.
    pub alerts: u64,
    /// Windowed positive-slack p50, ms (0 when idle).
    pub slack_p50_ms: f64,
    /// Windowed positive-slack p99, ms (0 when idle).
    pub slack_p99_ms: f64,
}

/// The monitor's full serializable state.
#[derive(Debug, Clone, Serialize)]
pub struct SloSnapshot {
    /// Attainment target in (0, 1).
    pub target: f64,
    /// Bucket width, nanoseconds.
    pub bucket_ns: u64,
    /// Slow-window length, buckets.
    pub slow_buckets: usize,
    /// Alerting burn threshold.
    pub burn_threshold: f64,
    /// Per-class summaries, ascending class order.
    pub classes: Vec<SloClassSnapshot>,
    /// Every alert raised, in time order.
    pub alerts: Vec<SloAlert>,
}

/// The online SLO attainment monitor. Feed it dequeue events via
/// [`SloMonitor::observe`]/[`SloMonitor::ingest`], seal with
/// [`SloMonitor::finish`], then read snapshots or publish to a registry.
pub struct SloMonitor {
    config: SloConfig,
    bucket_ns: u64,
    classes: BTreeMap<u8, ClassWindow>,
    alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// A monitor for the given SLO. Degenerate configs are clamped:
    /// zero-width buckets become 1 ns, a zero-length slow window one
    /// bucket, and the error budget never falls below 1e-9.
    pub fn new(config: SloConfig) -> Self {
        SloMonitor {
            bucket_ns: config.bucket.as_nanos().max(1),
            config,
            classes: BTreeMap::new(),
            alerts: Vec::new(),
        }
    }

    fn error_budget(&self) -> f64 {
        (1.0 - self.config.target).max(1e-9)
    }

    fn slow_buckets(&self) -> usize {
        self.config.slow_buckets.max(1)
    }

    /// Closes the newest bucket of `class`: computes both burn rates and
    /// evaluates the alert transition.
    #[expect(
        clippy::expect_used,
        reason = "a ClassWindow is constructed with one bucket and never drained below one"
    )]
    fn close_bucket(
        config: &SloConfig,
        budget: f64,
        slow_len: usize,
        bucket_ns: u64,
        alerts: &mut Vec<SloAlert>,
        class: u8,
        w: &mut ClassWindow,
    ) {
        let closed = w.buckets.back().expect("window always has a bucket");
        let fast_ratio = if closed.dequeues == 0 {
            0.0
        } else {
            closed.misses as f64 / closed.dequeues as f64
        };
        let tail = w.buckets.iter().rev().take(slow_len);
        let (mut deq, mut miss) = (0u64, 0u64);
        for b in tail {
            deq += b.dequeues;
            miss += b.misses;
        }
        let slow_ratio = if deq == 0 {
            0.0
        } else {
            miss as f64 / deq as f64
        };
        w.fast_burn = fast_ratio / budget;
        w.slow_burn = slow_ratio / budget;
        let burning = w.fast_burn >= config.burn_threshold && w.slow_burn >= config.burn_threshold;
        if burning && !w.alerting {
            w.alerts += 1;
            alerts.push(SloAlert {
                at_ns: (closed.index + 1).saturating_mul(bucket_ns),
                class,
                fast_burn: w.fast_burn,
                slow_burn: w.slow_burn,
            });
        }
        w.alerting = burning;
    }

    /// Rolls `class`'s window forward so the newest bucket covers
    /// `index`, closing (and alert-evaluating) every bucket left behind.
    #[expect(
        clippy::expect_used,
        reason = "observe() inserts the entry before calling roll_to; a ClassWindow is constructed with one bucket and never drained below one; the loop pushes a bucket each iteration; the window is never empty"
    )]
    fn roll_to(&mut self, class: u8, index: u64) {
        let budget = self.error_budget();
        let slow_len = self.slow_buckets();
        let bucket_ns = self.bucket_ns;
        let config = self.config;
        let w = self
            .classes
            .get_mut(&class)
            .expect("roll_to called after entry creation");
        while w.buckets.back().expect("non-empty").index < index {
            Self::close_bucket(
                &config,
                budget,
                slow_len,
                bucket_ns,
                &mut self.alerts,
                class,
                w,
            );
            let next = w.buckets.back().expect("non-empty").index + 1;
            // A gap longer than the slow window leaves nothing but empty
            // buckets in scope: jump straight to the target.
            let next = if index.saturating_sub(next) >= slow_len as u64 {
                index
            } else {
                next
            };
            w.buckets.push_back(Bucket {
                index: next,
                dequeues: 0,
                misses: 0,
                slack: coarse_hist(),
            });
            if w.buckets.len() > slow_len + 1 {
                w.buckets.pop_front();
            }
        }
    }

    /// Feeds one event. Only [`TraceEvent::TaskDequeued`] moves the
    /// monitor; everything else is ignored, so the full decoded stream
    /// can be replayed unfiltered. Buckets assume time order per class:
    /// a dequeue older than the class's open bucket is counted in that
    /// open bucket. A full recording is in emission order and satisfies
    /// this. A sampled recording is in bundle order — each kept query's
    /// events released together at its completion — so on a sampled run
    /// the buckets, burn rates and alerts describe the retained stream,
    /// not the run's timeline.
    #[expect(
        clippy::expect_used,
        reason = "the entry was inserted just above; a window always has a bucket; a ClassWindow is constructed with one bucket and never drained below one"
    )]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "`bucket_ns` is `.max(1)`-clamped at construction"
    )]
    pub fn observe(&mut self, ev: &TraceEvent) {
        let TraceEvent::TaskDequeued {
            at,
            class,
            slack_ns,
            ..
        } = *ev
        else {
            return;
        };
        let index = at.as_nanos() / self.bucket_ns;
        self.classes
            .entry(class)
            .or_insert_with(|| ClassWindow::new(index));
        self.roll_to(class, index);
        let w = self.classes.get_mut(&class).expect("just inserted");
        let b = w.buckets.back_mut().expect("non-empty");
        b.dequeues += 1;
        w.total_dequeues += 1;
        if slack_ns < 0 {
            b.misses += 1;
            w.total_misses += 1;
        } else {
            b.slack.record(slack_ns as f64 / 1e6);
        }
    }

    /// Replays a decoded event stream through [`SloMonitor::observe`].
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Seals the stream: closes every class's still-open bucket so the
    /// final partial bucket contributes to burn rates and alerts.
    pub fn finish(&mut self) {
        let budget = self.error_budget();
        let slow_len = self.slow_buckets();
        let bucket_ns = self.bucket_ns;
        let config = self.config;
        for (&class, w) in &mut self.classes {
            Self::close_bucket(
                &config,
                budget,
                slow_len,
                bucket_ns,
                &mut self.alerts,
                class,
                w,
            );
        }
        self.alerts.sort_by_key(|a| (a.at_ns, a.class));
    }

    /// Every alert raised so far, in time order after [`SloMonitor::finish`].
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Run-level attainment for `class` (1.0 when idle or unseen).
    pub fn attainment(&self, class: u8) -> f64 {
        match self.classes.get(&class) {
            Some(w) if w.total_dequeues > 0 => {
                1.0 - w.total_misses as f64 / w.total_dequeues as f64
            }
            _ => 1.0,
        }
    }

    /// The full serializable state, classes in ascending order.
    pub fn snapshot(&self) -> SloSnapshot {
        let slow_len = self.slow_buckets();
        let classes = self
            .classes
            .iter()
            .map(|(&class, w)| {
                let mut slack = coarse_hist();
                for b in w.buckets.iter().rev().take(slow_len) {
                    slack.merge(&b.slack);
                }
                let snap = slack.snapshot();
                let (p50, p99) = if snap.is_empty() {
                    (0.0, 0.0)
                } else {
                    (snap.quantile(0.50), snap.quantile(0.99))
                };
                let attainment = self.attainment(class);
                SloClassSnapshot {
                    class,
                    dequeues: w.total_dequeues,
                    misses: w.total_misses,
                    attainment,
                    met: attainment >= self.config.target,
                    fast_burn: w.fast_burn,
                    slow_burn: w.slow_burn,
                    alerts: w.alerts,
                    slack_p50_ms: p50,
                    slack_p99_ms: p99,
                }
            })
            .collect();
        SloSnapshot {
            target: self.config.target,
            bucket_ns: self.bucket_ns,
            slow_buckets: slow_len,
            burn_threshold: self.config.burn_threshold,
            classes,
            alerts: self.alerts.clone(),
        }
    }

    /// Publishes the monitor's state under the `tailguard_slo_*` names:
    /// the target gauge, and per class the dequeue/miss/alert counters,
    /// attainment and burn-rate gauges, and windowed slack percentile
    /// gauges. Call after [`SloMonitor::finish`].
    pub fn publish(&self, registry: &mut Registry) {
        if self.classes.is_empty() {
            return;
        }
        registry.gauge_set(
            "tailguard_slo_target",
            "Configured SLO attainment target",
            self.config.target,
        );
        for snap in self.snapshot().classes {
            let l = format!("{{class=\"{}\"}}", snap.class);
            registry.counter_set(
                &format!("tailguard_slo_dequeues_total{l}"),
                "Dequeues observed by the SLO monitor",
                snap.dequeues,
            );
            registry.counter_set(
                &format!("tailguard_slo_misses_total{l}"),
                "Deadline misses observed by the SLO monitor",
                snap.misses,
            );
            registry.counter_set(
                &format!("tailguard_slo_alerts_total{l}"),
                "Multi-window burn-rate alerts raised",
                snap.alerts,
            );
            registry.gauge_set(
                &format!("tailguard_slo_attainment{l}"),
                "Run-level SLO attainment (1 - miss ratio)",
                snap.attainment,
            );
            registry.gauge_set(
                &format!("tailguard_slo_burn_fast{l}"),
                "Fast-window burn rate (miss ratio / error budget)",
                snap.fast_burn,
            );
            registry.gauge_set(
                &format!("tailguard_slo_burn_slow{l}"),
                "Slow-window burn rate (miss ratio / error budget)",
                snap.slow_burn,
            );
            registry.gauge_set(
                &format!("tailguard_slo_slack_p50_ms{l}"),
                "Windowed median positive dequeue slack",
                snap.slack_p50_ms,
            );
            registry.gauge_set(
                &format!("tailguard_slo_slack_p99_ms{l}"),
                "Windowed p99 positive dequeue slack",
                snap.slack_p99_ms,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_sched::{AttemptKind, LeaseToken};
    use tailguard_simcore::SimTime;

    fn config() -> SloConfig {
        SloConfig {
            target: 0.9, // 10% error budget
            bucket: SimDuration::from_millis(10),
            slow_buckets: 4,
            burn_threshold: 2.0,
        }
    }

    fn dequeue(at_ms: u64, class: u8, slack_ns: i64) -> TraceEvent {
        TraceEvent::TaskDequeued {
            at: SimTime::from_millis(at_ms),
            task: 0,
            slot: 0,
            query: 0,
            class,
            kind: AttemptKind::Original,
            server: 0,
            token: LeaseToken(1),
            waited: SimDuration::from_millis(1),
            slack_ns,
        }
    }

    #[test]
    fn attainment_counts_misses_per_class() {
        let mut mon = SloMonitor::new(config());
        for i in 0..10 {
            mon.observe(&dequeue(i, 0, if i < 2 { -1 } else { 1_000_000 }));
            mon.observe(&dequeue(i, 1, 1_000_000));
        }
        mon.finish();
        assert!((mon.attainment(0) - 0.8).abs() < 1e-12);
        assert!((mon.attainment(1) - 1.0).abs() < 1e-12);
        assert!((mon.attainment(7) - 1.0).abs() < 1e-12, "unseen class idle");
        let snap = mon.snapshot();
        assert_eq!(snap.classes.len(), 2);
        assert!(!snap.classes[0].met, "0.8 < 0.9 target");
        assert!(snap.classes[1].met);
    }

    #[test]
    fn sustained_burn_raises_one_alert_per_episode() {
        let mut mon = SloMonitor::new(config());
        // Buckets 0..6 (10 ms each): all dequeues miss — burn 10x.
        for ms in 0..60 {
            mon.observe(&dequeue(ms, 0, -1));
        }
        // Recovery: buckets 6..12 all healthy.
        for ms in 60..120 {
            mon.observe(&dequeue(ms, 0, 1_000_000));
        }
        // Relapse: buckets 12..18 all miss again.
        for ms in 120..180 {
            mon.observe(&dequeue(ms, 0, -1));
        }
        mon.finish();
        assert_eq!(
            mon.alerts().len(),
            2,
            "one alert per burning episode, not per bucket: {:?}",
            mon.alerts()
        );
        assert_eq!(mon.alerts()[0].class, 0);
        assert!(mon.alerts()[0].fast_burn >= 2.0);
        assert!(mon.alerts()[0].slow_burn >= 2.0);
        assert!(
            mon.alerts()[1].at_ns > mon.alerts()[0].at_ns,
            "second episode alerts later"
        );
    }

    #[test]
    fn single_noisy_bucket_does_not_alert() {
        let mut mon = SloMonitor::new(config());
        // Long healthy history, then one fully-missing bucket: fast burn
        // spikes but the slow window stays under threshold.
        for ms in 0..40 {
            for _ in 0..10 {
                mon.observe(&dequeue(ms, 0, 1_000_000));
            }
        }
        for ms in 40..50 {
            mon.observe(&dequeue(ms, 0, -1));
        }
        for ms in 50..90 {
            for _ in 0..10 {
                mon.observe(&dequeue(ms, 0, 1_000_000));
            }
        }
        mon.finish();
        assert!(
            mon.alerts().is_empty(),
            "slow window must veto a single bad bucket: {:?}",
            mon.alerts()
        );
    }

    #[test]
    fn publish_exposes_slo_names() {
        let mut mon = SloMonitor::new(config());
        for i in 0..10 {
            mon.observe(&dequeue(i, 2, if i == 0 { -1 } else { 2_000_000 }));
        }
        mon.finish();
        let mut reg = Registry::new();
        mon.publish(&mut reg);
        assert_eq!(
            reg.counter("tailguard_slo_dequeues_total{class=\"2\"}"),
            Some(10)
        );
        assert_eq!(
            reg.counter("tailguard_slo_misses_total{class=\"2\"}"),
            Some(1)
        );
        assert!((reg.gauge("tailguard_slo_target").unwrap() - 0.9).abs() < 1e-12);
        let att = reg.gauge("tailguard_slo_attainment{class=\"2\"}").unwrap();
        assert!((att - 0.9).abs() < 1e-12);
        assert!(
            reg.gauge("tailguard_slo_slack_p50_ms{class=\"2\"}")
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn empty_monitor_publishes_nothing() {
        let mut mon = SloMonitor::new(config());
        mon.finish();
        let mut reg = Registry::new();
        mon.publish(&mut reg);
        assert_eq!(reg.gauge("tailguard_slo_target"), None);
        assert!(mon.snapshot().classes.is_empty());
    }

    #[test]
    fn time_gaps_jump_without_iterating_every_bucket() {
        let mut mon = SloMonitor::new(config());
        mon.observe(&dequeue(0, 0, -1));
        // A gap of ~10^6 buckets must not hang.
        mon.observe(&dequeue(10_000_000, 0, 1_000_000));
        mon.finish();
        assert_eq!(mon.snapshot().classes[0].dequeues, 2);
    }
}
