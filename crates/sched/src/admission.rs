//! The admission controller (§III.C): a moving window over task-dequeue
//! outcomes plus reject-then-recover hysteresis.

use crate::config::AdmissionConfig;
use tailguard_metrics::TimedRatio;
use tailguard_simcore::SimTime;

/// Window-based admission control with hysteresis.
///
/// Rejection starts when the deadline-miss ratio over the moving time
/// window exceeds `threshold` and stops when it falls below
/// `resume_threshold` (or when the window drains below `min_samples`,
/// whichever happens first). Events age out of a time window on their own,
/// so the controller re-admits even under total rejection.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    config: AdmissionConfig,
    window: TimedRatio,
    rejecting: bool,
    resumes: u64,
}

impl AdmissionController {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            window: TimedRatio::new(config.window),
            rejecting: false,
            resumes: 0,
        }
    }

    /// Records one dequeue outcome into the window.
    pub(crate) fn record(&mut self, now: SimTime, missed: bool) {
        self.window.record(now, missed);
    }

    /// Whether the controller is rejecting, as of its last
    /// [`AdmissionController::rejects`] call.
    pub(crate) fn is_rejecting(&self) -> bool {
        self.rejecting
    }

    /// Whether a query arriving at `now` must be rejected. Updates the
    /// `rejecting` state (hysteresis) as a side effect.
    pub(crate) fn rejects(&mut self, now: SimTime) -> bool {
        if self.window.len(now) < self.config.min_samples {
            self.resume_if_rejecting();
            return false;
        }
        let ratio = self.window.ratio(now);
        if self.rejecting {
            if ratio < self.config.resume_threshold {
                self.resume_if_rejecting();
            }
        } else if ratio > self.config.threshold {
            self.rejecting = true;
        }
        self.rejecting
    }

    fn resume_if_rejecting(&mut self) {
        if self.rejecting {
            self.rejecting = false;
            self.resumes += 1;
        }
    }

    /// Number of reject→admit transitions so far (each one means rejection
    /// *stopped* after the window recovered or drained).
    pub(crate) fn resumes(&self) -> u64 {
        self.resumes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_simcore::SimDuration;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn cfg(threshold: f64) -> AdmissionConfig {
        AdmissionConfig::new(SimDuration::from_millis(100), threshold).with_min_samples(4)
    }

    #[test]
    fn below_min_samples_never_rejects() {
        let mut c = AdmissionController::new(cfg(0.1));
        c.record(ms(0), true);
        c.record(ms(1), true);
        assert!(!c.rejects(ms(1)));
    }

    #[test]
    fn rejects_above_threshold_and_resumes_below() {
        let mut c = AdmissionController::new(cfg(0.5));
        for i in 0..4 {
            c.record(ms(i), true);
        }
        assert!(c.rejects(ms(4)), "all misses → reject");
        // On-time dequeues dilute the ratio below the (resume) threshold.
        for i in 5..15 {
            c.record(ms(i), false);
        }
        assert!(!c.rejects(ms(15)));
        assert_eq!(c.resumes(), 1);
    }

    #[test]
    fn hysteresis_holds_between_resume_and_reject_thresholds() {
        // threshold 0.5, resume 0.2: a ratio of 1/3 keeps rejecting once
        // started, but does not start rejection on its own.
        let config = cfg(0.5).with_resume_threshold(0.2);
        let mut fresh = AdmissionController::new(config);
        for i in 0..2 {
            fresh.record(ms(i), true);
        }
        for i in 2..6 {
            fresh.record(ms(i), false);
        }
        assert!(!fresh.rejects(ms(6)), "1/3 < threshold: stays admitting");

        let mut tripped = AdmissionController::new(config);
        for i in 0..4 {
            tripped.record(ms(i), true);
        }
        assert!(tripped.rejects(ms(4)));
        for i in 5..13 {
            tripped.record(ms(i), false);
        }
        // Ratio now 4/12 = 1/3: above resume threshold, keeps rejecting.
        assert!(tripped.rejects(ms(13)), "1/3 > resume: still rejecting");
        for i in 13..30 {
            tripped.record(ms(i), false);
        }
        assert!(!tripped.rejects(ms(30)), "ratio below resume: admits again");
        assert_eq!(tripped.resumes(), 1);
    }

    #[test]
    fn timed_window_drains_and_resumes() {
        // Total rejection: no new dequeues; the time window must age the
        // misses out and resume on its own.
        let mut c = AdmissionController::new(cfg(0.1));
        for i in 0..10 {
            c.record(ms(i), true);
        }
        assert!(c.rejects(ms(10)));
        assert!(!c.rejects(ms(500)), "window drained → admit");
        assert_eq!(c.resumes(), 1);
    }
}
