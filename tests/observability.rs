//! Observability guarantees at the workspace level.
//!
//! Four pins protect the PR-4/PR-9 invariants:
//!  1. Turning the flight recorder ON does not perturb the simulation —
//!     an observed run reproduces the exact golden values of
//!     `golden_report.rs` (the trace-disabled path is byte-identical by
//!     construction: no sink is installed and no snapshot events enter
//!     the heap).
//!  2. Recordings are deterministic under the parallel runner — both the
//!     raw binary ring contents and the decoded event streams of each
//!     cell are byte-identical for `--jobs 1` and `--jobs 8`.
//!  3. The Prometheus text exposition of a fixed-seed run matches a
//!     committed golden snapshot (set `TG_UPDATE_GOLDEN=1` to
//!     regenerate after a deliberate semantic change).
//!  4. The decoded traces of fixed-seed runs — one steady, one a fault
//!     cascade through chained requests — match committed JSONL goldens:
//!     the binary codec round-trips every event the simulator emits, not
//!     just the variants unit tests construct by hand, and the driver's
//!     order of settling one event's fallout is pinned.
//!
//! Two oracles check the one-pass analysis against the simple versions
//! in `observability/reference.rs`:
//!  5. `build_timelines` equals the reference builder on full, truncated,
//!     sampled and concatenated recordings.
//!  6. `publish_run`, which decodes the ring once and streams it, equals
//!     decoding into a `Vec` and ingesting that slice, on an evicting and
//!     a sampled ring.

#[path = "observability/reference.rs"]
mod reference;

use tailguard_repro::obs::{
    build_timelines, events_to_jsonl, publish_run, Registry, RunSummary, SamplerConfig,
};
use tailguard_repro::policy::Policy;
use tailguard_repro::sched::{AttemptKind, TraceEvent};
use tailguard_repro::simcore::{SimDuration, SimTime};
use tailguard_repro::tailguard::{
    run_indexed, run_simulation, run_simulation_observed, scenarios, ClassSpec, ClusterSpec,
    FaultEpisode, FaultKind, FaultPlan, MaxLoadOptions, MitigationConfig, ObsOptions, QuerySpec,
    RequestInput, SimConfig, SimInput, SimReport,
};
use tailguard_repro::workload::TailbenchWorkload;

/// The golden scenario of `golden_report.rs`: Masstree single-class,
/// N=100, offered load 0.40, 10k queries, default warmup.
fn golden_run(policy: Policy) -> (tailguard::SimConfig, SimInput) {
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    let opts = MaxLoadOptions {
        queries: 10_000,
        ..MaxLoadOptions::default()
    };
    let input = scenario.input(0.4, opts.queries);
    let warmup = (opts.queries as f64 * opts.warmup_fraction) as usize;
    (scenario.config(policy).with_warmup(warmup), input)
}

fn assert_reports_identical(observed: &mut SimReport, unobserved: &mut SimReport) {
    assert_eq!(observed.class_tail(0, 0.99), unobserved.class_tail(0, 0.99));
    assert_eq!(observed.completed_queries, unobserved.completed_queries);
    assert_eq!(observed.rejected_queries, unobserved.rejected_queries);
    assert_eq!(observed.elapsed, unobserved.elapsed);
    assert_eq!(
        observed.pre_dequeue.percentile(0.99),
        unobserved.pre_dequeue.percentile(0.99)
    );
    assert_eq!(
        observed.deadline_miss_ratio(),
        unobserved.deadline_miss_ratio()
    );
}

/// Invariant 1: the observed golden run reproduces the exact pins of
/// `golden_report.rs` — recording is a pure read-side tap.
#[test]
fn observed_golden_run_matches_seed_pins() {
    // Same table as golden_report.rs.
    const GOLDEN: [(&str, u64, u64, u64); 5] = [
        ("TailGuard", 764618, 9500, 493996),
        ("FIFO", 733903, 9500, 462686),
        ("PRIQ", 733903, 9500, 462686),
        ("T-EDFQ", 733903, 9500, 462686),
        ("SJF", 959037, 9500, 552100),
    ];
    for (policy, (name, p99_ns, completed, pre_p99_ns)) in
        Policy::WITH_EXTENSIONS.iter().zip(GOLDEN)
    {
        let (config, input) = golden_run(*policy);
        let run = run_simulation_observed(&config, &input, &ObsOptions::default());
        let mut observed = run.report;
        assert_eq!(
            observed.class_tail(0, 0.99).as_nanos(),
            p99_ns,
            "{name}: observed class-0 p99 drifted from the golden pin"
        );
        assert_eq!(observed.completed_queries, completed, "{name}");
        assert_eq!(
            observed.pre_dequeue.percentile(0.99).as_nanos(),
            pre_p99_ns,
            "{name}"
        );
        // And the full report agrees with an unobserved run of the same
        // config (only `events_processed` may differ — snapshot events).
        let mut unobserved = run_simulation(&config, &input);
        assert_reports_identical(&mut observed, &mut unobserved);
        assert!(observed.events_processed >= unobserved.events_processed);
        // Acceptance: every observed run emits at least one snapshot.
        assert!(!run.snapshots.is_empty(), "{name}: no snapshots emitted");
        assert!(run.recorder.total_recorded() > 0, "{name}: empty recording");
        // The online SLO monitor saw the run: its dequeue count matches
        // the lease counter exactly (leases are issued at dequeue, one
        // per dispatch, so the trace and the state store must agree).
        let slo_dequeues: u64 = run.slo.classes.iter().map(|c| c.dequeues).sum();
        assert_eq!(
            slo_dequeues, observed.lifecycle.leases_issued,
            "{name}: SLO monitor dequeues disagree with lifecycle stats"
        );
    }
}

/// Invariant 2: recorder contents are bit-identical whether the cells run
/// serially or under the parallel runner — at both layers: the raw
/// fixed-width binary stream and the decoded JSONL rendering.
#[test]
fn recorder_contents_identical_across_jobs() {
    let cells: Vec<(Policy, f64)> = [Policy::TfEdf, Policy::Fifo, Policy::Sjf]
        .into_iter()
        .flat_map(|p| [(p, 0.3), (p, 0.5)])
        .collect();
    let record = |jobs: usize| -> Vec<(Vec<u8>, String)> {
        run_indexed(&cells, jobs, |_, &(policy, load)| {
            let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
            let input = scenario.input(load, 2_000);
            let config = scenario.config(policy).with_warmup(100);
            let run = run_simulation_observed(&config, &input, &ObsOptions::default());
            (
                run.recorder.raw_bytes(),
                events_to_jsonl(&run.recorder.events()),
            )
        })
    };
    let serial = record(1);
    let parallel = record(8);
    assert_eq!(serial.len(), parallel.len());
    for (i, ((sb, sj), (pb, pj))) in serial.iter().zip(&parallel).enumerate() {
        assert!(!sb.is_empty(), "cell {i}: empty recording");
        assert_eq!(
            sb, pb,
            "cell {i}: raw binary recording differs between jobs=1 and jobs=8"
        );
        assert_eq!(
            sj, pj,
            "cell {i}: decoded recording differs between jobs=1 and jobs=8"
        );
    }
}

/// A fault cascade on 4 servers: three-query chained requests under a
/// blackout on server 1 and a crash on server 2, with a lease TTL, retries
/// and hedging. Dispatches into the blackout are dropped on the spot, so
/// one report's fallout dispatches, retries and chains — admits — further
/// queries: the order the simulator's driver settles that in is pinned.
fn fault_cascade_run() -> (SimConfig, SimInput) {
    let at = SimTime::from_micros;
    let plan = FaultPlan::new()
        .with_episode(FaultEpisode::new(1, at(1_500), at(4_000), FaultKind::Drop))
        .with_episode(FaultEpisode::new(2, at(2_500), at(5_000), FaultKind::Crash));
    let config = SimConfig::new(
        ClusterSpec::homogeneous(4, TailbenchWorkload::Masstree.service_dist()),
        vec![ClassSpec::p99(SimDuration::from_millis(2))],
        Policy::TfEdf,
    )
    .with_warmup(0)
    .with_seed(7)
    .with_lease(SimDuration::from_millis(1))
    .with_mitigation(
        MitigationConfig::new()
            .with_hedge_after(1.0)
            .with_max_attempts(3),
    )
    .with_faults(plan);
    let input = SimInput {
        requests: (0..30)
            .map(|i| RequestInput {
                arrival: at(i * 150),
                queries: vec![QuerySpec::new(0, 2); 3].into(),
            })
            .collect(),
    };
    (config, input)
}

/// Invariant 4: the decoded traces of small fixed-seed runs are pinned to
/// committed JSONL goldens — exercising encode → ring → decode over the
/// full event mix a real simulation produces, fault cascades included.
#[test]
fn decoded_trace_matches_committed_golden() {
    let (config, input) = golden_run(Policy::TfEdf);
    let steady = SimInput {
        requests: input.requests.into_iter().take(300).collect(),
    };
    let cases = [
        ("decoded_trace.jsonl", (config, steady)),
        ("fault_cascade_trace.jsonl", fault_cascade_run()),
    ];
    for (file, (config, input)) in cases {
        let run = run_simulation_observed(&config, &input, &ObsOptions::default());
        assert_eq!(
            run.recorder.dropped(),
            0,
            "{file}: ring evicted records; grow DEFAULT_RING_CAPACITY or shrink the run"
        );
        let jsonl = events_to_jsonl(&run.recorder.events());
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var("TG_UPDATE_GOLDEN").is_ok() {
            std::fs::write(&path, &jsonl).expect("write golden decoded trace");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing {path} — run with TG_UPDATE_GOLDEN=1"));
        assert_eq!(
            jsonl, golden,
            "{file}: decoded trace drifted from the committed golden snapshot; \
             if the change is deliberate, regenerate with TG_UPDATE_GOLDEN=1"
        );
    }
}

/// Invariant 3: the Prometheus text exposition of a fixed-seed run is
/// pinned to a committed golden file.
#[test]
fn exposition_matches_committed_golden() {
    let (config, input) = golden_run(Policy::TfEdf);
    // Trim to 2k queries so the pin stays fast; determinism is what is
    // under test, not the workload itself.
    let input_small = SimInput {
        requests: input.requests.into_iter().take(2_000).collect(),
    };
    let run = run_simulation_observed(&config, &input_small, &ObsOptions::default());
    let text = run.registry.prometheus_text();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_exposition.txt"
    );
    if std::env::var("TG_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden exposition");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing tests/golden/metrics_exposition.txt — run with TG_UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the committed golden snapshot; \
         if the change is deliberate, regenerate with TG_UPDATE_GOLDEN=1"
    );
}

/// The retained events of one observed run.
fn recording(config: &SimConfig, input: &SimInput, opts: &ObsOptions) -> Vec<TraceEvent> {
    run_simulation_observed(config, input, opts)
        .recorder
        .events()
}

/// Invariant 5: the one-pass timeline builder (id-offset index, original
/// attempts found at their task offset) folds every stream exactly as the
/// reference does — including streams where those shortcuts do not hold.
#[test]
fn timelines_equal_the_reference_builder() {
    let (golden_config, golden_input) = golden_run(Policy::TfEdf);
    let (cascade_config, cascade_input) = fault_cascade_run();
    let full = ObsOptions::default();
    let golden = recording(&golden_config, &golden_input, &full);
    let cascade = recording(&cascade_config, &cascade_input, &full);
    let truncated = recording(
        &golden_config,
        &golden_input,
        &ObsOptions {
            ring_capacity: golden.len() / 4,
            ..ObsOptions::default()
        },
    );
    let sampled = recording(
        &golden_config,
        &golden_input,
        &ObsOptions {
            sampler: Some(SamplerConfig::default()),
            ..ObsOptions::default()
        },
    );
    let concatenated: Vec<TraceEvent> = cascade.iter().chain(&golden).copied().collect();

    // Each stream carries what it is here for.
    for kind in [
        "hedge_issued",
        "task_lost",
        "lease_reclaimed",
        "task_cancelled",
    ] {
        assert!(
            cascade.iter().any(|e| e.kind_name() == kind),
            "the cascade has no {kind}"
        );
    }
    assert!(
        cascade.iter().any(|e| matches!(
            e,
            TraceEvent::TaskEnqueued {
                kind: AttemptKind::Retry,
                ..
            }
        )),
        "the cascade has no retry"
    );
    let admitted = |events: &[TraceEvent]| -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::QueryAdmitted { query, .. } => Some(query),
                _ => None,
            })
            .collect()
    };
    let truncated_heads = admitted(&truncated);
    assert!(
        truncated.iter().any(|e| matches!(
            *e,
            TraceEvent::TaskCompleted { query, .. } if !truncated_heads.contains(&query)
        )),
        "the truncated ring kept every timeline's head"
    );
    assert!(
        admitted(&sampled).windows(2).any(|w| w[1] < w[0]),
        "the sampled recording admits in id order"
    );

    for (name, events) in [
        ("golden", &golden),
        ("fault cascade", &cascade),
        ("truncated ring", &truncated),
        ("sampled", &sampled),
        ("concatenated", &concatenated),
    ] {
        let want = reference::reference_build_timelines(events);
        let got = build_timelines(events);
        assert!(!want.is_empty(), "{name}: no timelines");
        let differing: Vec<u32> = want
            .iter()
            .filter(|(q, tl)| got.get(q) != Some(tl))
            .map(|(&q, _)| q)
            .take(5)
            .collect();
        assert!(
            got == want,
            "{name}: {} timelines vs the reference's {}; first differing ids {differing:?}",
            got.len(),
            want.len()
        );
    }
    // The golden run's admissions replaced the cascade's under the same ids.
    let merged = build_timelines(&concatenated);
    assert_eq!(merged.get(&0), build_timelines(&golden).get(&0));
    assert_ne!(merged.get(&0), build_timelines(&cascade).get(&0));
}

/// Invariant 6: publishing straight off the ring — each record decoded
/// once and fed to the SLO monitor and the event tally together — fills
/// the registry and seals the monitor exactly as decoding the whole
/// recording and ingesting the slice does.
#[test]
fn one_pass_publish_equals_the_slice_path() {
    let (golden_config, golden_input) = golden_run(Policy::TfEdf);
    for (scenario, (config, input)) in [
        ("golden", (golden_config, golden_input)),
        ("fault cascade", fault_cascade_run()),
    ] {
        let events = run_simulation_observed(&config, &input, &ObsOptions::default())
            .recorder
            .len();
        let rings = [
            (
                "evicting",
                ObsOptions {
                    ring_capacity: events / 4,
                    ..ObsOptions::default()
                },
            ),
            (
                "sampled",
                ObsOptions {
                    sampler: Some(SamplerConfig::default()),
                    ..ObsOptions::default()
                },
            ),
        ];
        for (ring, opts) in rings {
            let run = run_simulation_observed(&config, &input, &opts);
            let case = format!("{scenario}, {ring} ring");
            if opts.sampler.is_some() {
                assert!(
                    run.recorder.sampled_out() > 0,
                    "{case}: nothing sampled out"
                );
            } else {
                assert!(run.recorder.dropped() > 0, "{case}: nothing evicted");
            }
            let report = &run.report;
            let summary = RunSummary {
                robustness: &report.robustness,
                lifecycle: &report.lifecycle,
                health: &report.health,
                server_health: &report.server_health,
                window_rolls: config.adaptive.map(|_| report.estimator_window_rolls),
                budget_lookups: report.budget_lookups,
                estimator_refreshes: report.estimator_refreshes,
                cached_budgets: report.cached_budgets,
                completed_queries: report.completed_queries,
                elapsed_ms: report.elapsed.as_millis_f64(),
                deadline_miss_ratio: report.deadline_miss_ratio(),
            };
            let mut one_pass = Registry::new();
            let got = publish_run(
                &mut one_pass,
                &run.recorder,
                &config.classes,
                opts.slo,
                &summary,
            );
            let mut slice = Registry::new();
            let want = reference::reference_publish_run(
                &mut slice,
                &run.recorder,
                &config.classes,
                opts.slo,
                &summary,
            );
            assert_eq!(
                one_pass.prometheus_text(),
                slice.prometheus_text(),
                "{case}: exposition"
            );
            assert_eq!(one_pass.to_json(), slice.to_json(), "{case}: JSON snapshot");
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{case}: SLO snapshot"
            );
        }
    }
}
