//! The `obs` layer's replays: the captured event stream fed to the codec,
//! the binary recorder, the tail sampler, the registry, the SLO monitor
//! and the timeline builder, one at a time.
//!
//! `run_simulation_observed` records every event but analyses only what
//! the ring retained, so the recorder and codec-encode replays see the
//! whole stream and the analysis replays see its retained tail.

use crate::replay::REPLAY_REPS;
use crate::spans::Spans;
use std::hint::black_box;
use tailguard::DEFAULT_RING_CAPACITY;
use tailguard_obs::codec::{decode_stream, encode_append, EVENT_BYTES};
use tailguard_obs::{
    build_timelines, BinaryRecorder, Registry, SamplerConfig, SloConfig, SloMonitor, TailSampler,
};
use tailguard_sched::TraceEvent;

pub struct ObsReplay {
    pub events: u64,
    pub retained: u64,
    pub evicted: u64,
    pub corrupt: u64,
    pub roundtrip_exact: bool,
    pub kept_ratio: f64,
    pub encode_secs: Vec<f64>,
    pub decode_secs: Vec<f64>,
    pub recorder_secs: Vec<f64>,
    pub sampler_secs: Vec<f64>,
    pub ingest_secs: Vec<f64>,
    pub expose_secs: Vec<f64>,
    pub slo_secs: Vec<f64>,
    pub timeline_secs: Vec<f64>,
}

pub fn obs(spans: &mut Spans, events: &[TraceEvent], slo: SloConfig) -> ObsReplay {
    spans.enter("obs");
    let retained = &events[events.len().saturating_sub(DEFAULT_RING_CAPACITY)..];

    let mut bytes = Vec::new();
    let encode_secs = spans.time_reps("codec.encode", REPLAY_REPS, || {
        bytes = Vec::with_capacity(events.len() * EVENT_BYTES);
        for ev in events {
            encode_append(ev, &mut bytes);
        }
    });
    let mut decoded = (Vec::new(), 0);
    let decode_secs = spans.time_reps("codec.decode", REPLAY_REPS, || {
        decoded = decode_stream(&bytes);
    });
    let (roundtrip_exact, corrupt) = (decoded.0 == events, decoded.1);
    drop((bytes, decoded));

    let mut evicted = 0;
    let recorder_secs = spans.time_reps("recorder", REPLAY_REPS, || {
        let recorder = BinaryRecorder::with_capacity(DEFAULT_RING_CAPACITY);
        let mut sink = recorder.sink();
        for batch in events.chunks(sink.batch_hint()) {
            sink.record_batch(batch);
        }
        drop(sink);
        evicted = recorder.dropped();
    });

    let mut kept_ratio = 0.0;
    let sampler_secs = spans.time_reps("sampler", REPLAY_REPS, || {
        let mut sampler = TailSampler::new(SamplerConfig::default());
        let mut out = Vec::new();
        let mut discarded = 0;
        for ev in events {
            discarded += sampler.offer(ev, &mut out);
        }
        discarded += sampler.finish(&mut out);
        kept_ratio = 1.0 - discarded as f64 / events.len().max(1) as f64;
    });

    let mut registry = Registry::new();
    let ingest_secs = spans.time_reps("registry.ingest", REPLAY_REPS, || {
        registry = Registry::new();
        registry.ingest_events(retained);
    });
    let expose_secs = spans.time_reps("registry.expose", REPLAY_REPS, || {
        black_box(registry.prometheus_text().len());
    });
    let slo_secs = spans.time_reps("slo", REPLAY_REPS, || {
        let mut monitor = SloMonitor::new(slo);
        monitor.ingest(retained);
        monitor.finish();
        black_box(monitor.alerts().len());
    });
    let timeline_secs = spans.time_reps("timeline", REPLAY_REPS, || {
        black_box(build_timelines(retained).len());
    });
    spans.exit();
    ObsReplay {
        events: events.len() as u64,
        retained: retained.len() as u64,
        evicted,
        corrupt,
        roundtrip_exact,
        kept_ratio,
        encode_secs,
        decode_secs,
        recorder_secs,
        sampler_secs,
        ingest_secs,
        expose_secs,
        slo_secs,
        timeline_secs,
    }
}
