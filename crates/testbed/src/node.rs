//! The emulated edge node.

use crate::sensor::SensorStore;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tailguard_dist::DynDistribution;
use tailguard_faults::{DispatchOutcome, FaultPlan, FinishOutcome};
use tailguard_sched::units;
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tokio::sync::mpsc;
use tokio::time::Instant;

/// Times the fault epoch was armed when it already held an instant.
/// Double-arming is benign (first arm wins) but worth counting: a non-zero
/// value in a test run means two code paths both think they own arming.
static FAULT_EPOCH_DOUBLE_ARMS: AtomicU64 = AtomicU64::new(0);

/// Arms the fault epoch at `now`, idempotently.
///
/// `OnceLock::set` returns `Err` when a value is already present; an
/// `unwrap()` there would panic whichever worker armed second (e.g. a
/// runner re-calibrating after a warm-up pass). The first arm wins — fault
/// episodes stay anchored to the earliest epoch — and later arms are
/// counted instead of panicking. Returns `true` when this call armed it.
pub(crate) fn arm_fault_epoch(epoch: &OnceLock<Instant>, now: Instant) -> bool {
    let armed = epoch.set(now).is_ok();
    if !armed {
        FAULT_EPOCH_DOUBLE_ARMS.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            epoch.get().is_some(),
            "set failed, so an instant must already be armed"
        );
    }
    armed
}

/// Times the epoch was re-armed after already being set (see
/// [`arm_fault_epoch`]); process-wide, read by the regression test.
#[cfg(test)]
pub(crate) fn fault_epoch_double_arms() -> u64 {
    FAULT_EPOCH_DOUBLE_ARMS.load(Ordering::Relaxed)
}

/// A task sent from the query handler to an edge node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskAssignment {
    /// Handler-side task identifier.
    pub task_id: u64,
    /// The lease token fencing this dispatch (0 = unleased); echoed back
    /// in the result so the handler can reject zombie replies.
    pub lease: u64,
    /// First day of the requested record range.
    pub start_day: u32,
    /// Number of consecutive days requested.
    pub days: u32,
    /// When the handler dispatched the task; echoed back in the result.
    pub dispatched_at: Instant,
}

/// What happened to a task at the edge node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskOutcome {
    /// The retrieval completed and the payload is valid.
    Ok,
    /// A fault episode swallowed the task (at dispatch) or its result (at
    /// completion); no payload.
    Lost,
    /// The worker panicked while serving the task; no payload.
    Failed,
}

/// A completed task returned to the handler/aggregator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskResult {
    /// The node that served the task.
    pub node: u32,
    /// Handler-side task identifier.
    pub task_id: u64,
    /// The lease token the task was dispatched under, echoed back.
    pub lease: u64,
    /// The dispatch instant of the assignment, echoed back: the handler
    /// measures post-queuing time from it.
    pub dispatched_at: Instant,
    /// Number of sensor records retrieved.
    pub records: usize,
    /// Mean temperature over the range (the aggregated payload).
    pub mean_temperature: f32,
    /// Mean humidity over the range.
    pub mean_humidity: f32,
    /// Whether the payload is valid, or how the task was lost.
    pub outcome: TaskOutcome,
}

/// A payload-free result for a task the node could not serve.
fn empty_result(node: u32, task: &TaskAssignment, outcome: TaskOutcome) -> TaskResult {
    TaskResult {
        node,
        task_id: task.task_id,
        lease: task.lease,
        dispatched_at: task.dispatched_at,
        records: 0,
        mean_temperature: 0.0,
        mean_humidity: 0.0,
        outcome,
    }
}

/// Runs one edge node: serves tasks one at a time — emulating the Pi's
/// processing time with a sleep drawn from the node's cluster service
/// distribution (compressed by `time_scale`) — then performs the actual
/// record retrieval and returns the aggregate.
///
/// `faults` (already compressed into the wall domain) injects per-node
/// episodes measured from the instant `fault_epoch` is set; until then the
/// node is healthy, so offline calibration always probes the fault-free
/// cluster. Worker panics (in the service draw or the retrieval) are caught
/// and reported as [`TaskOutcome::Failed`] instead of killing the node.
///
/// Exits when the assignment channel closes.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn edge_node(
    node_id: u32,
    store: Arc<SensorStore>,
    service: DynDistribution,
    time_scale: f64,
    faults: Option<Arc<FaultPlan>>,
    fault_epoch: Arc<OnceLock<Instant>>,
    mut rng: SimRng,
    mut tasks: mpsc::UnboundedReceiver<TaskAssignment>,
    results: mpsc::UnboundedSender<TaskResult>,
) {
    'tasks: while let Some(task) = tasks.recv().await {
        let fault_now = || -> Option<SimTime> {
            let epoch = fault_epoch.get()?;
            Some(SimTime::from_nanos(units::sat_u128_to_u64(
                epoch.elapsed().as_nanos(),
            )))
        };
        // Serves the task; breaks out with the outcome of a task that
        // ends without a payload, which takes the one reply path below.
        let unserved = 'serve: {
            // A pathological service distribution can panic; treat that
            // like any other worker fault so the node survives.
            let drawn = std::panic::catch_unwind(AssertUnwindSafe(|| service.sample(&mut rng)));
            let Ok(sample_ms) = drawn else {
                break 'serve TaskOutcome::Failed;
            };
            let mut service_ms = sample_ms / time_scale;
            let began = fault_now();
            if let (Some(plan), Some(now)) = (faults.as_deref(), began) {
                match plan.at_dispatch(node_id, now, SimDuration::from_millis_f64(service_ms)) {
                    // No NACK, no result: only a lease reclaim recovers it.
                    DispatchOutcome::Swallowed => continue 'tasks,
                    DispatchOutcome::Dropped => break 'serve TaskOutcome::Lost,
                    DispatchOutcome::Runs(delay) => service_ms = delay.as_millis_f64(),
                }
            }
            // tokio's timer wheel rounds sleeps *up* to 1 ms, which would
            // bias every service time (+0.5 ms mean — 20% at a 25x
            // compression). Stochastic rounding to whole milliseconds keeps
            // the mean exact: 2.3 ms sleeps 2 ms with p=0.7 and 3 ms with
            // p=0.3.
            let floor = service_ms.floor();
            let quantized_ms = units::trunc_f64_to_u64(if rng.f64() < service_ms - floor {
                floor + 1.0
            } else {
                floor
            });
            // tokio wakes at the first wheel tick *strictly after* now + d,
            // so an aligned n-ms target needs sleep(n-1 ms); sleep(0)
            // itself consumes exactly one 1-ms tick (verified by testbed
            // tests).
            if quantized_ms >= 1 {
                tokio::time::sleep(std::time::Duration::from_millis(quantized_ms - 1)).await;
            }
            let mut duplicate = false;
            if let (Some(plan), Some(now)) = (faults.as_deref(), fault_now()) {
                match plan.at_finish(node_id, began.unwrap_or(SimTime::ZERO), now) {
                    FinishOutcome::Swallowed => continue 'tasks,
                    FinishOutcome::Lost => break 'serve TaskOutcome::Lost,
                    FinishOutcome::Delivered { duplicate: twice } => duplicate = twice,
                }
            }
            let retrieved = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let slice = store.range_query(task.start_day, task.days);
                let (mean_temperature, mean_humidity) = SensorStore::aggregate(slice);
                (slice.len(), mean_temperature, mean_humidity)
            }));
            let result = match retrieved {
                Ok((records, mean_temperature, mean_humidity)) => TaskResult {
                    node: node_id,
                    task_id: task.task_id,
                    lease: task.lease,
                    dispatched_at: task.dispatched_at,
                    records,
                    mean_temperature,
                    mean_humidity,
                    outcome: TaskOutcome::Ok,
                },
                Err(_) => empty_result(node_id, &task, TaskOutcome::Failed),
            };
            if results.send(result).is_err() {
                return; // handler gone; shut down quietly
            }
            if duplicate {
                // The ack was retransmitted: deliver the same result a
                // second time. The handler's state store suppresses the
                // redelivery.
                if results.send(result).is_err() {
                    return;
                }
            }
            continue 'tasks;
        };
        if results
            .send(empty_result(node_id, &task, unserved))
            .is_err()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_dist::{Cdf, Deterministic, Distribution};
    use tailguard_faults::{FaultEpisode, FaultKind};

    fn healthy() -> (Option<Arc<FaultPlan>>, Arc<OnceLock<Instant>>) {
        (None, Arc::new(OnceLock::new()))
    }

    #[tokio::test(start_paused = true)]
    async fn node_serves_tasks_in_order() {
        let store = Arc::new(SensorStore::generate_days(1, 40));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(5.0));
        let (faults, epoch) = healthy();
        tokio::spawn(edge_node(
            3,
            store,
            service,
            1.0,
            faults,
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        let t0 = tokio::time::Instant::now();
        for id in 0..3 {
            task_tx
                .send(TaskAssignment {
                    task_id: id,
                    lease: 0,
                    start_day: 0,
                    days: 1,
                    dispatched_at: Instant::now(),
                })
                .unwrap();
        }
        for id in 0..3 {
            let r = res_rx.recv().await.unwrap();
            assert_eq!(r.task_id, id);
            assert_eq!(r.node, 3);
            assert_eq!(r.records, SensorStore::RECORDS_PER_DAY);
            assert_eq!(r.outcome, TaskOutcome::Ok);
        }
        // Three sequential ~5ms services (tick-compensated; allow 1-tick
        // misalignment at the start of the run).
        let e = t0.elapsed();
        assert!(e >= std::time::Duration::from_millis(11), "{e:?}");
        assert!(e <= std::time::Duration::from_millis(18), "{e:?}");
    }

    #[tokio::test(start_paused = true)]
    async fn time_scale_compresses_service() {
        let store = Arc::new(SensorStore::generate_days(2, 5));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(100.0));
        let (faults, epoch) = healthy();
        tokio::spawn(edge_node(
            0,
            store,
            service,
            10.0, // 100ms of "Pi time" becomes 10ms of wall time
            faults,
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        let t0 = tokio::time::Instant::now();
        task_tx
            .send(TaskAssignment {
                task_id: 0,
                lease: 0,
                start_day: 0,
                days: 1,
                dispatched_at: Instant::now(),
            })
            .unwrap();
        res_rx.recv().await.unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(8),
            "{elapsed:?}"
        );
        assert!(
            elapsed < std::time::Duration::from_millis(20),
            "{elapsed:?}"
        );
    }

    #[tokio::test(start_paused = true)]
    async fn node_exits_on_channel_close() {
        let store = Arc::new(SensorStore::generate_days(3, 5));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, _res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(1.0));
        let (faults, epoch) = healthy();
        let h = tokio::spawn(edge_node(
            0,
            store,
            service,
            1.0,
            faults,
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        drop(task_tx);
        h.await.unwrap(); // must terminate
    }

    #[tokio::test(start_paused = true)]
    async fn blackout_loses_tasks_until_the_episode_ends() {
        let store = Arc::new(SensorStore::generate_days(4, 10));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(2.0));
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            7,
            SimTime::from_millis(0),
            SimTime::from_millis(5),
            FaultKind::Drop,
        ));
        let epoch = Arc::new(OnceLock::new());
        arm_fault_epoch(&epoch, Instant::now());
        tokio::spawn(edge_node(
            7,
            store,
            service,
            1.0,
            Some(Arc::new(plan)),
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        let send = |id| {
            task_tx
                .send(TaskAssignment {
                    task_id: id,
                    lease: 0,
                    start_day: 0,
                    days: 1,
                    dispatched_at: Instant::now(),
                })
                .unwrap();
        };
        send(0);
        let r = res_rx.recv().await.unwrap();
        assert_eq!(r.outcome, TaskOutcome::Lost);
        assert_eq!(r.records, 0);
        // Past the blackout the node is healthy again.
        tokio::time::sleep(std::time::Duration::from_millis(10)).await;
        send(1);
        let r = res_rx.recv().await.unwrap();
        assert_eq!(r.outcome, TaskOutcome::Ok);
        assert_eq!(r.records, SensorStore::RECORDS_PER_DAY);
    }

    #[tokio::test(start_paused = true)]
    async fn crash_swallows_the_task_silently() {
        let store = Arc::new(SensorStore::generate_days(8, 10));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(2.0));
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            9,
            SimTime::from_millis(0),
            SimTime::from_millis(5),
            FaultKind::Crash,
        ));
        let epoch = Arc::new(OnceLock::new());
        arm_fault_epoch(&epoch, Instant::now());
        tokio::spawn(edge_node(
            9,
            store,
            service,
            1.0,
            Some(Arc::new(plan)),
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        let send = |id| {
            task_tx
                .send(TaskAssignment {
                    task_id: id,
                    lease: id + 1,
                    start_day: 0,
                    days: 1,
                    dispatched_at: Instant::now(),
                })
                .unwrap();
        };
        // Dispatched into the crash: swallowed, no result at all.
        send(0);
        // Past the crash: served normally, and the lease echoes back.
        tokio::time::sleep(std::time::Duration::from_millis(10)).await;
        send(1);
        let r = res_rx.recv().await.unwrap();
        assert_eq!(r.task_id, 1, "the crashed task must yield nothing");
        assert_eq!(r.lease, 2);
        assert_eq!(r.outcome, TaskOutcome::Ok);
    }

    #[tokio::test(start_paused = true)]
    async fn duplicate_delivery_sends_the_result_twice() {
        let store = Arc::new(SensorStore::generate_days(9, 10));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(2.0));
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            4,
            SimTime::from_millis(0),
            SimTime::from_millis(50),
            FaultKind::DuplicateDelivery,
        ));
        let epoch = Arc::new(OnceLock::new());
        arm_fault_epoch(&epoch, Instant::now());
        tokio::spawn(edge_node(
            4,
            store,
            service,
            1.0,
            Some(Arc::new(plan)),
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        task_tx
            .send(TaskAssignment {
                task_id: 0,
                lease: 7,
                start_day: 0,
                days: 1,
                dispatched_at: Instant::now(),
            })
            .unwrap();
        let first = res_rx.recv().await.unwrap();
        let second = res_rx.recv().await.unwrap();
        assert_eq!(first.task_id, second.task_id);
        assert_eq!(first.lease, second.lease);
        assert_eq!(first.outcome, TaskOutcome::Ok);
        assert_eq!(second.outcome, TaskOutcome::Ok);
        assert_eq!(first.records, second.records);
    }

    #[tokio::test(start_paused = true)]
    async fn slowdown_inflates_service_time() {
        let store = Arc::new(SensorStore::generate_days(5, 10));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(Deterministic::new(5.0));
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            SimTime::from_millis(0),
            SimTime::from_millis(1_000),
            FaultKind::Slowdown { factor: 4.0 },
        ));
        let epoch = Arc::new(OnceLock::new());
        arm_fault_epoch(&epoch, Instant::now());
        tokio::spawn(edge_node(
            0,
            store,
            service,
            1.0,
            Some(Arc::new(plan)),
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        let t0 = tokio::time::Instant::now();
        task_tx
            .send(TaskAssignment {
                task_id: 0,
                lease: 0,
                start_day: 0,
                days: 1,
                dispatched_at: Instant::now(),
            })
            .unwrap();
        let r = res_rx.recv().await.unwrap();
        assert_eq!(r.outcome, TaskOutcome::Ok);
        // 5 ms × factor 4 ≈ 20 ms instead of 5 ms.
        let e = t0.elapsed();
        assert!(e >= std::time::Duration::from_millis(17), "{e:?}");
        assert!(e <= std::time::Duration::from_millis(23), "{e:?}");
    }

    /// A service distribution that panics on every draw — the injection
    /// point for worker-panic hardening tests.
    #[derive(Debug)]
    struct PanickingDist;
    impl Cdf for PanickingDist {
        fn cdf(&self, x: f64) -> f64 {
            if x >= 1.0 {
                1.0
            } else {
                0.0
            }
        }
    }
    impl Distribution for PanickingDist {
        fn sample(&self, _rng: &mut SimRng) -> f64 {
            panic!("injected worker fault")
        }
        fn mean(&self) -> f64 {
            1.0
        }
    }

    #[tokio::test(start_paused = true)]
    async fn worker_panic_reports_failed_and_node_survives() {
        let store = Arc::new(SensorStore::generate_days(6, 5));
        let (task_tx, task_rx) = mpsc::unbounded_channel();
        let (res_tx, mut res_rx) = mpsc::unbounded_channel();
        let service: DynDistribution = Arc::new(PanickingDist);
        let (faults, epoch) = healthy();
        tokio::spawn(edge_node(
            0,
            store,
            service,
            1.0,
            faults,
            epoch,
            SimRng::seed(1),
            task_rx,
            res_tx,
        ));
        // Two tasks: both must come back Failed — the panic is contained
        // per task, so the node keeps serving instead of dying on the
        // first one.
        for id in 0..2 {
            task_tx
                .send(TaskAssignment {
                    task_id: id,
                    lease: 0,
                    start_day: 0,
                    days: 1,
                    dispatched_at: Instant::now(),
                })
                .unwrap();
        }
        for id in 0..2 {
            let r = res_rx.recv().await.unwrap();
            assert_eq!(r.task_id, id);
            assert_eq!(r.outcome, TaskOutcome::Failed);
            assert_eq!(r.records, 0);
        }
    }

    /// Regression: arming the fault epoch twice used to `unwrap()` the
    /// `OnceLock::set` error and panic the arming worker. It must be
    /// idempotent — first instant wins, later arms are counted.
    #[tokio::test(start_paused = true)]
    async fn double_arming_the_fault_epoch_is_idempotent() {
        let epoch = Arc::new(OnceLock::new());
        let before = fault_epoch_double_arms();
        let first = Instant::now();
        assert!(arm_fault_epoch(&epoch, first));
        tokio::time::sleep(std::time::Duration::from_millis(5)).await;
        assert!(
            !arm_fault_epoch(&epoch, Instant::now()),
            "second arm must report it did not win"
        );
        assert_eq!(
            epoch.get().copied(),
            Some(first),
            "the first armed instant must win"
        );
        assert_eq!(
            fault_epoch_double_arms(),
            before + 1,
            "the re-arm must be counted"
        );
    }
}
