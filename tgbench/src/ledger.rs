//! The traced pass: the per-layer cost ledger.
//!
//! For a simulated workload it runs the workload untraced (for the wall
//! time the ledger must add up to), captures its `TraceEvent` stream once,
//! replays each layer from that stream ([`crate::replay`]), and reports
//! per layer: work done (exact counts from the trace), time per operation
//! and `busy_s = count × time`. `bench.attributed_share` is the part of
//! the untraced wall the replays account for; `core.residual_ns_per_event`
//! is the rest — the driver, the handler's own code, and whatever runs
//! colder in the run than in a replay.

use crate::host::{cpu_seconds, median, peak_rss_bytes, rss_bytes};
use crate::outcome::Outcome;
use crate::replay::{self, Arrivals, CaptureSink};
use crate::replay_obs;
use crate::sim::{query_types, run_once, SimSummary};
use crate::spans::Spans;
use crate::workloads::{
    maxload_case, maxload_probes, sim_case, testbed_config, SimCase, SimKind, Workload,
};
use std::path::Path;
use std::sync::{Arc, Mutex};
use tailguard::{
    max_load, max_load_many, run_simulation, run_simulation_traced, SimReport, FLIGHT_RING_CAPACITY,
};
use tailguard_obs::{BinaryRecorder, SloConfig};
use tailguard_policy::Policy;
use tailguard_sched::TraceEvent;
use tailguard_testbed::{run_testbed, SensorStore};

/// Untraced repetitions behind the wall time the ledger is compared to,
/// run before the replays and again after them: the host's speed drifts
/// over the ~10 s the replays take, and a wall measured only beforehand
/// makes `bench.attributed_share` swing with the drift.
const WALL_REPS: usize = 2;

fn ns_per(secs: &[f64], count: u64) -> f64 {
    median(secs) * 1e9 / count.max(1) as f64
}

/// Runs one workload traced, writes its spans, and returns the per-layer
/// metrics.
pub fn run(
    workload: Workload,
    name: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
) -> Outcome {
    let mut spans = Spans::new(name);
    let outcome = match workload {
        Workload::Sim(kind) => sim(&mut spans, kind, seed, scale),
        Workload::MaxLoad => maxload(&mut spans, seed, scale),
        Workload::Testbed => testbed(&mut spans, seed, seconds, scale),
    };
    let path = out_dir.join(format!("spans-{name}.json"));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&spans.finish()).expect("json") + "\n",
        )
    });
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    outcome
}

/// Captures the workload's event stream through `run_simulation_traced`.
fn capture(case: &SimCase) -> (SimReport, Vec<TraceEvent>) {
    let tasks: usize = case
        .input
        .requests
        .iter()
        .flat_map(|r| r.queries.iter().map(|q| q.fanout as usize))
        .sum();
    let buf = Arc::new(Mutex::new(Vec::with_capacity(
        case.queries() + tasks * 3 + tasks / 8,
    )));
    let report = run_simulation_traced(
        &case.config,
        &case.input,
        Box::new(CaptureSink(Arc::clone(&buf))),
    );
    // The sink was dropped with the handler, so this is the only handle.
    let events = std::mem::take(&mut *buf.lock().expect("capture lock"));
    (report, events)
}

fn sim(spans: &mut Spans, kind: SimKind, seed: u64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let case = sim_case(kind, seed, scale);
    let (queries, warmup) = (case.queries(), case.config.warmup_queries);
    let summarise = |report: &mut SimReport| SimSummary::of(report, queries, warmup);
    let types = query_types(&case.input);

    // --- the run itself: cold, then warm, untraced ---------------------------
    let rss_before = rss_bytes();
    let (mut cold_report, cold_s) = spans.time("run.cold", || run_once(kind, &case));
    let rss_per_query = (peak_rss_bytes() - rss_before).max(0.0) / queries as f64;
    let s = summarise(&mut cold_report);
    let report = cold_report;
    let mut walls = spans.time_reps("run.untraced", WALL_REPS, || {
        black_box_report(run_once(kind, &case));
    });

    // --- capture ----------------------------------------------------------------
    let ((mut traced_report, events), traced_s) = spans.time("run.capture", || capture(&case));
    let mut ts = summarise(&mut traced_report);
    if kind == SimKind::Observed {
        // The observed run's snapshot sampling adds engine events that the
        // bare traced run does not have; everything else must agree.
        ts.events = s.events;
    }
    out.check(
        "traced run's simulated results identical to the untraced run's",
        ts == s,
    );
    out.check("query conservation", s.conserved);

    // --- replays ------------------------------------------------------------------
    let arrivals = Arrivals::of(&events, warmup);
    let config = &case.config;
    let heap = replay::heap(spans, &events, &case);
    let queues = replay::queues(spans, &events, config);
    let store = replay::store(spans, &events, config);
    let est = replay::estimator(spans, &events, &arrivals, config, &types);
    let solve = replay::dist_solve(spans, config, &types);
    let sample = replay::dist_sample(spans, &events, &arrivals, config);
    let reservoirs = replay::reservoirs(spans, &events, &arrivals);
    let window = config
        .admission
        .map(|a| replay::window(spans, &events, a.window));
    let health = replay::health(spans, &events, config);
    let faults = config
        .faults
        .as_ref()
        .map(|plan| (plan.len(), replay::faults(spans, &events, plan)));
    let handler = config
        .faults
        .is_none()
        .then(|| replay::handler(spans, &events, &arrivals, config, &types));
    let gen_secs = spans.time_reps("workload.gen", replay::REPLAY_REPS, || {
        std::hint::black_box(case.scenario.input(case.load, queries).len());
    });
    // The driver's own identifiable work: it clones (and at the end drops)
    // its input, and draws each query's placement.
    let clone_secs = spans.time_reps("core.input_clone", replay::REPLAY_REPS, || {
        std::hint::black_box(case.input.clone().len());
    });
    let placement = replay::placement(spans, &arrivals, config);

    walls.extend(spans.time_reps("run.untraced", WALL_REPS, || {
        black_box_report(run_once(kind, &case));
    }));
    let wall = median(&walls);
    // Against the bare traced run of the same input the capture sink is the
    // only difference; for `sim_observed` the untraced side is the whole
    // pipeline, so the overhead is taken against its NullSink run below.
    let mut plain_wall = wall;

    // --- checks: the replays reproduce the run's own counters ---------------------
    let engine_events = traced_report.events_processed;
    let heap_gap = heap.events.abs_diff(engine_events);
    if config.faults.is_none() {
        out.check("simcore replay pops == events_processed", heap_gap == 0);
    } else {
        // A finish swallowed by a crash that began mid-service leaves no
        // trace event, so the replay misses a handful of pops.
        out.check(
            "simcore replay pops within 0.1% of events_processed",
            heap_gap * 1000 <= engine_events,
        );
    }
    out.check(
        "policy replay: pushes + direct starts == TaskEnqueued events",
        queues.pushes + queues.bypassed == queues.enqueued_events,
    );
    out.check(
        "policy replay dequeues in the traced order and drains",
        queues.order_matches,
    );
    let lc = &report.lifecycle;
    out.check(
        "lifecycle replay counters == report (leases, reclaims, stale, duplicates)",
        (
            store.stats.leases_issued,
            store.stats.reclaims,
            store.stats.stale_commits_rejected,
            store.stats.duplicates_suppressed,
        ) == (
            lc.leases_issued,
            lc.reclaims,
            lc.stale_commits_rejected,
            lc.duplicates_suppressed,
        ),
    );
    out.check(
        "metrics replay records one latency per completed query",
        reservoirs.query_records == s.completed,
    );
    if let Some(h) = &handler {
        out.check(
            "handler replay re-makes the run's admissions and completions",
            (h.completed, h.rejected) == (s.completed, s.rejected),
        );
    }

    // --- the ledger -------------------------------------------------------------------
    // Seconds of the run each layer's replay accounts for.
    let heap_s = median(&heap.secs);
    let queue_s = median(&queues.secs);
    let store_s = median(&store.secs);
    let estimator_s = median(&est.lookup_secs) + median(&est.record_secs);
    let reservoir_s = median(&reservoirs.secs);
    let window_s = window.as_ref().map_or(0.0, |w| median(&w.secs));
    let mut attributed = heap_s
        + queue_s
        + store_s
        + estimator_s
        + reservoir_s
        + window_s
        + median(&sample.secs)
        + median(&clone_secs)
        + median(&placement.secs);
    out.put("simcore.heap_ops", 2.0 * heap.events as f64);
    out.put(
        "simcore.heap_ns_per_op",
        ns_per(&heap.secs, 2 * heap.events),
    );
    out.put("simcore.heap_depth_max", heap.depth_max as f64);
    out.put_median("simcore.heap_busy_s", heap.secs);
    out.put("simcore.placement_draws", placement.draws as f64);
    out.put(
        "simcore.placement_ns_per_draw",
        ns_per(&placement.secs, placement.draws),
    );
    out.put_median("core.input_clone_s", clone_secs);
    out.put_median("workload.gen_s", gen_secs.clone());
    out.put(
        "workload.gen_ns_per_query",
        ns_per(&gen_secs, queries as u64),
    );
    put_solve(&mut out, &solve);
    out.put("dist.sample_calls", sample.calls as f64);
    out.put(
        "dist.sample_ns_per_call",
        ns_per(&sample.secs, sample.calls),
    );
    let queue_ops = queues.pushes + queues.pops;
    out.put("policy.queue_ops", queue_ops as f64);
    out.put("policy.queue_ns_per_op", ns_per(&queues.secs, queue_ops));
    out.put("policy.queue_depth_mean", queues.depth_mean);
    out.put("policy.queue_depth_max", queues.depth_max as f64);
    out.put_median("policy.queue_busy_s", queues.secs);
    out.put("sched.estimator.lookups", est.lookups as f64);
    out.put(
        "sched.estimator.ns_per_lookup",
        ns_per(&est.lookup_secs, est.lookups),
    );
    out.put("sched.estimator.records", est.records as f64);
    out.put(
        "sched.estimator.ns_per_record",
        ns_per(&est.record_secs, est.records),
    );
    out.put("sched.estimator.refreshes", est.refreshes as f64);
    out.put("lifecycle.ops", store.ops as f64);
    out.put("lifecycle.ns_per_op", ns_per(&store.secs, store.ops));
    out.put_median("lifecycle.busy_s", store.secs);
    out.put("lifecycle.leases_issued", lc.leases_issued as f64);
    out.put("lifecycle.reclaims", lc.reclaims as f64);
    out.put("lifecycle.stale_rejected", lc.stale_commits_rejected as f64);
    out.put(
        "lifecycle.duplicates_suppressed",
        lc.duplicates_suppressed as f64,
    );
    out.put("metrics.reservoir_records", reservoirs.records as f64);
    out.put(
        "metrics.reservoir_ns_per_record",
        ns_per(&reservoirs.secs, reservoirs.records),
    );
    out.put_median("metrics.percentile_s", reservoirs.percentile_secs);
    if let Some(w) = window {
        out.put("metrics.window_ops", w.ops as f64);
        out.put("metrics.window_ns_per_op", ns_per(&w.secs, w.ops));
    }
    if let Some(h) = handler {
        out.put("sched.handler.calls", h.calls as f64);
        out.put("sched.handler.ns_per_call", ns_per(&h.secs, h.calls));
        // Self time: the handler's span less what its callees cost when
        // replayed alone (policy, lifecycle, estimator, metrics).
        out.put(
            "sched.handler.self_ns_per_call",
            (median(&h.secs) - (queue_s + store_s + estimator_s + reservoir_s + window_s)) * 1e9
                / h.calls.max(1) as f64,
        );
        out.put("sched.handler.deadline_miss_ratio", h.deadline_miss_ratio);
        out.put("sched.admission.rejects", s.rejected as f64);
        out.put(
            "sched.admission.pauses",
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::AdmissionPause { .. }))
                .count() as f64,
        );
    }
    if let Some(h) = health {
        attributed += median(&h.secs);
        out.put("sched.health.observes", h.observes as f64);
        out.put("sched.health.ns_per_observe", ns_per(&h.secs, h.observes));
        out.put("sched.health.ejections", report.health.ejections as f64);
        out.put("sched.health.rerouted", report.health.rerouted_tasks as f64);
    }
    if config.mitigation.is_some() {
        let r = &report.robustness;
        out.put("sched.mitigation.hedges_issued", r.hedges_issued as f64);
        out.put(
            "sched.mitigation.hedge_win_ratio",
            r.hedge_wins as f64 / r.hedges_issued.max(1) as f64,
        );
        out.put("sched.mitigation.retries", r.retries as f64);
    }
    if let Some((episodes, f)) = faults {
        attributed += median(&f.secs);
        out.put("faults.episodes", episodes as f64);
        out.put("faults.lookups", f.lookups as f64);
        out.put("faults.ns_per_lookup", ns_per(&f.secs, f.lookups));
        out.put_median("faults.busy_s", f.secs);
    }
    if kind == SimKind::Observed {
        let slo = SloConfig {
            target: config
                .classes
                .iter()
                .map(|c| c.percentile)
                .fold(1.0, f64::min),
            ..SloConfig::default()
        };
        let o = replay_obs::obs(spans, &events, slo);
        out.check("decode_stream reports 0 corrupt records", o.corrupt == 0);
        out.check("codec round-trip reproduces the stream", o.roundtrip_exact);
        // One full-stream recording; two decodes of the retained tail (the
        // observed run's own and the timeline pass's), then the analyses.
        attributed += median(&o.recorder_secs)
            + 2.0 * median(&o.decode_secs) * o.retained as f64 / o.events as f64
            + median(&o.ingest_secs)
            + median(&o.slo_secs)
            + median(&o.timeline_secs)
            + median(&o.expose_secs);
        out.put("obs.events", o.events as f64);
        out.put(
            "obs.codec.encode_ns_per_record",
            ns_per(&o.encode_secs, o.events),
        );
        out.put(
            "obs.codec.decode_ns_per_record",
            ns_per(&o.decode_secs, o.events),
        );
        out.put(
            "obs.recorder.ns_per_event",
            ns_per(&o.recorder_secs, o.events),
        );
        out.put("obs.recorder.evicted", o.evicted as f64);
        out.put(
            "obs.sampler.ns_per_event",
            ns_per(&o.sampler_secs, o.events),
        );
        out.put("obs.sampler.kept_ratio", o.kept_ratio);
        out.put(
            "obs.registry.ingest_ns_per_event",
            ns_per(&o.ingest_secs, o.retained),
        );
        out.put_median("obs.registry.expose_s", o.expose_secs);
        out.put("obs.slo.ns_per_event", ns_per(&o.slo_secs, o.retained));
        out.put_median("obs.timeline.build_s", o.timeline_secs);

        // Overheads against the same input's NullSink run, same process.
        let null = spans.time_reps("run.nullsink", WALL_REPS, || {
            black_box_report(run_simulation(config, &case.input));
        });
        let recording = spans.time_reps("run.recording", WALL_REPS, || {
            let recorder = BinaryRecorder::with_capacity(FLIGHT_RING_CAPACITY);
            black_box_report(run_simulation_traced(config, &case.input, recorder.sink()));
        });
        plain_wall = median(&null);
        out.put(
            "obs.recording_overhead_pct",
            (median(&recording) / plain_wall - 1.0) * 100.0,
        );
        out.put(
            "obs.pipeline_overhead_pct",
            (wall / plain_wall - 1.0) * 100.0,
        );
    }

    out.put("core.events", s.events as f64);
    out.put(
        "core.events_per_query",
        s.events as f64 / s.completed as f64,
    );
    out.put("core.ns_per_event", wall * 1e9 / s.events as f64);
    out.put("core.cold_run_s", cold_s);
    out.put("core.rss_bytes_per_query", rss_per_query);
    out.put("core.accepted_load", s.accepted_load);
    out.put(
        "core.residual_ns_per_event",
        (wall - attributed) * 1e9 / s.events as f64,
    );
    out.put("core.slo_miss_share", 1.0 - s.slo_met_share());
    out.put("core.failed_share", 1.0 - s.served_share());
    out.put(
        "bench.trace_overhead_pct",
        (traced_s / plain_wall - 1.0) * 100.0,
    );
    out.put("bench.attributed_share", attributed / wall);
    out.attempted = s.offered;
    out.failed = s.unresolved;
    out
}

fn put_solve(out: &mut Outcome, solve: &replay::DistReplay) {
    out.put("dist.solve_calls", solve.calls as f64);
    out.put(
        "dist.solve_us_per_call",
        ns_per(&solve.secs, solve.calls) / 1e3,
    );
}

fn black_box_report(report: SimReport) {
    std::hint::black_box(report.events_processed);
}

fn maxload(spans: &mut Spans, seed: u64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let case = maxload_case(seed, scale);
    let (scenario, opts) = (&case.scenario, &case.opts);

    // Each cell alone, then all of them through the parallel runner.
    spans.enter("core.maxload.cells");
    let cells: Vec<(Policy, f64, f64)> = Policy::ALL
        .iter()
        .map(|&policy| {
            let (load, secs) = spans.time(policy.name(), || max_load(scenario, policy, opts));
            (policy, load, secs)
        })
        .collect();
    spans.exit();
    let (many, many_s) = spans.time("core.runner.max_load_many", || {
        max_load_many(scenario, &Policy::ALL, opts, case.jobs)
    });
    out.check(
        "parallel search returns the serial cells' loads",
        many.iter()
            .zip(&cells)
            .all(|(&(p, load), &(cp, cload, _))| p == cp && load == cload),
    );
    let serial_s: f64 = cells.iter().map(|c| c.2).sum();
    let probes: u64 = cells.iter().map(|c| maxload_probes(c.1, opts)).sum();
    let load_of = |policy: Policy| cells.iter().find(|c| c.0 == policy).map_or(0.0, |c| c.1);

    let input = scenario.input(0.5, opts.queries);
    let types = query_types(&input);
    let config = scenario.config(Policy::TfEdf);
    let gen_secs = spans.time_reps("workload.gen", replay::REPLAY_REPS, || {
        std::hint::black_box(scenario.input(0.5, opts.queries).len());
    });
    let solve = replay::dist_solve(spans, &config, &types);

    out.put("core.runner.cells", cells.len() as f64);
    out.put(
        "core.runner.parallel_efficiency",
        serial_s / (case.jobs as f64 * many_s),
    );
    out.put("core.maxload.probes", probes as f64);
    out.put("core.maxload.max_load.fifo", load_of(Policy::Fifo));
    out.put("core.maxload.max_load.priq", load_of(Policy::Priq));
    out.put("core.maxload.max_load.tedf", load_of(Policy::TEdf));
    out.put_median("workload.gen_s", gen_secs.clone());
    out.put(
        "workload.gen_ns_per_query",
        ns_per(&gen_secs, opts.queries as u64),
    );
    put_solve(&mut out, &solve);
    out.attempted = probes * opts.queries as u64;
    out
}

fn testbed(spans: &mut Spans, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let config = testbed_config(seed, seconds, scale);
    // The 32 per-node sensor stores, generated alone.
    let ((), store_s) = spans.time("testbed.store_build", || {
        for node in 0..32u64 {
            std::hint::black_box(
                SensorStore::generate_days(seed ^ (0x1000 + node), config.store_days).len(),
            );
        }
    });
    let cpu0 = cpu_seconds();
    let (report, wall) = spans.time("testbed.run", || run_testbed(&config));
    let cpu = cpu_seconds() - cpu0;
    let measured_s = report.elapsed_wall_ms / 1000.0;
    let tasks = report.lifecycle.leases_issued;
    let offered_per_s = tailguard::scenarios::sas_testbed().rate_for_load(config.target_load)
        * 1000.0
        * config.time_scale;
    out.check("no worker panicked", report.worker_panics == 0);
    out.put("testbed.tasks", tasks as f64);
    out.put(
        "testbed.calibration_s",
        (wall - measured_s - store_s).max(0.0),
    );
    out.put("testbed.store_build_s", store_s);
    out.put(
        "testbed.achieved_over_offered",
        report.completed_queries as f64 / measured_s / offered_per_s,
    );
    out.put("testbed.miss_ratio", report.miss_ratio);
    out.put("testbed.cpu_us_per_task", cpu * 1e6 / tasks.max(1) as f64);
    out.put("lifecycle.leases_issued", tasks as f64);
    out.attempted = config.queries as u64;
    out
}
