//! The binary flight recorder: per-handler staging, batched flushes.
//!
//! A recorder that takes one mutex lock and one 72-byte enum copy per
//! event was measured at roughly a doubling of the pure-sim hot path.
//! [`BinaryRecorder`] structures recording around the runner's actual
//! concurrency model instead: parallelism is *across*
//! experiment cells, each handler is single-threaded, so each installed
//! [`BinarySink`] owns a private staging buffer it appends encoded
//! records to without any synchronization, and only touches the shared
//! ring once per [`FLUSH_EVENTS`]-event batch (and once at drop). The
//! hot-path cost per event is a stack-buffer encode plus a `Vec` append;
//! the lock amortizes to under 1/1000th of a lock per event.
//!
//! Records are the [`codec`](crate::codec) fixed-width layout, decoded
//! back into [`TraceEvent`]s only at analysis time ([`BinaryRecorder::events`]).
//! The ring bounds memory by *event count* and evicts whole oldest
//! records, counting evictions.

use crate::codec::{decode, encode_append, EVENT_BYTES};
use crate::sampler::{SamplerConfig, TailSampler};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use tailguard_sched::{TraceEvent, TraceSink};

/// Staged events per sink before a flush into the shared ring. At 51
/// bytes per record this stages ~6.4 KiB — small enough that the staging
/// block never evicts the scheduler's L1 working set (a 52 KiB stage
/// measurably slowed the hot path), large enough to amortize the ring
/// lock to under 1/128th of a lock per event.
pub const FLUSH_EVENTS: usize = 128;

struct BinRing {
    /// Flushed staging blocks, oldest first. Each is a non-empty multiple
    /// of [`EVENT_BYTES`]; blocks move in whole (a flush is a `Vec` move,
    /// not a per-record copy — the difference between ~35% and ~10%
    /// recording overhead on the pure-sim hot path).
    blocks: VecDeque<Vec<u8>>,
    /// Byte offset of the oldest *retained* record in the front block;
    /// eviction pops whole blocks and advances it by the remainder,
    /// keeping per-event eviction semantics on top of block-granular
    /// memory management.
    head: usize,
    /// Events currently retained (`blocks` bytes past `head`, in records).
    retained: usize,
    capacity: usize,
    /// Events that reached the ring over its lifetime (retained + evicted).
    total: u64,
    /// Events evicted to honor the capacity bound.
    dropped: u64,
    /// Events discarded upstream by tail-aware sampling (never reached
    /// the ring; accounted separately from capacity eviction).
    sampled_out: u64,
}

impl BinRing {
    /// Takes ownership of one staged block and evicts oldest records
    /// until the capacity bound holds again: whole blocks while the
    /// excess covers them, then one head advance inside the new front
    /// block. A fully evicted block is handed back (cleared, capacity
    /// intact) for the caller to stage into next, so a sink at steady
    /// state recycles the same few buffers instead of churning the
    /// allocator once per flush.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "`EVENT_BYTES` is a non-zero constant"
    )]
    fn push_block(&mut self, block: Vec<u8>) -> Option<Vec<u8>> {
        debug_assert!(!block.is_empty() && block.len().is_multiple_of(EVENT_BYTES));
        let events = block.len() / EVENT_BYTES;
        self.total += events as u64;
        self.retained += events;
        self.blocks.push_back(block);
        let mut excess = self.retained.saturating_sub(self.capacity);
        self.retained = self.retained.min(self.capacity);
        self.dropped += excess as u64;
        let mut recycled = None;
        // The block just pushed always survives: `capacity` is at least 1.
        while let Some(front) = self.blocks.front() {
            let front_records = front.len().saturating_sub(self.head) / EVENT_BYTES;
            if excess < front_records {
                self.head += excess * EVENT_BYTES;
                break;
            }
            excess -= front_records;
            recycled = self.blocks.pop_front().map(|mut freed| {
                freed.clear();
                freed
            });
            self.head = 0;
        }
        recycled
    }

    /// The retained records, oldest first, as (up to two) contiguous byte
    /// runs: the front block past `head`, then every later block whole.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` always lands on a record boundary inside block 0: `push_block` advances it by whole records and resets it when it pops a block"
    )]
    fn byte_runs(&self) -> impl Iterator<Item = &[u8]> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| if i == 0 { &b[self.head..] } else { &b[..] })
            .filter(|run| !run.is_empty())
    }
}

/// A bounded binary flight recorder, shared as a cheap-to-clone handle.
///
/// The driver keeps one handle and installs per-handler [`BinarySink`]s
/// via [`BinaryRecorder::sink`] (or [`BinaryRecorder::sink_sampled`] for
/// tail-aware sampling). Sinks batch privately and flush on a fixed
/// event cadence and on drop, so the recording is complete once the
/// handler (and with it the sink) is dropped.
#[derive(Clone)]
pub struct BinaryRecorder {
    inner: Arc<Mutex<BinRing>>,
}

impl std::fmt::Debug for BinaryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring();
        f.debug_struct("BinaryRecorder")
            .field("capacity", &ring.capacity)
            .field("len", &ring.retained)
            .field("total", &ring.total)
            .field("dropped", &ring.dropped)
            .field("sampled_out", &ring.sampled_out)
            .finish()
    }
}

impl BinaryRecorder {
    /// Locks the ring, recovering from a poisoned mutex: the ring holds
    /// plain counters and fixed-width byte records, so state left by a
    /// thread that panicked mid-flush is still internally consistent and
    /// the recording (a diagnostic aid) should outlive the panic.
    fn ring(&self) -> std::sync::MutexGuard<'_, BinRing> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A recorder keeping the most recent `capacity` events (at least 1).
    /// The buffer grows on demand up to the bound rather than
    /// preallocating, so a generous default costs nothing on short runs.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryRecorder {
            inner: Arc::new(Mutex::new(BinRing {
                blocks: VecDeque::new(),
                head: 0,
                retained: 0,
                capacity: capacity.max(1),
                total: 0,
                dropped: 0,
                sampled_out: 0,
            })),
        }
    }

    /// A boxed per-handler sink recording every event, ready for
    /// [`QueryHandler::with_trace_sink`](tailguard_sched::QueryHandler::with_trace_sink).
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(BinarySink {
            ring: Arc::clone(&self.inner),
            staged: Vec::new(),
            sampler: None,
            sampled_out: 0,
        })
    }

    /// A boxed per-handler sink with tail-aware sampling in front of the
    /// ring: interesting queries retained whole, healthy ones kept at the
    /// configured per-mille rate.
    pub fn sink_sampled(&self, config: SamplerConfig) -> Box<dyn TraceSink> {
        Box::new(BinarySink {
            ring: Arc::clone(&self.inner),
            staged: Vec::new(),
            sampler: Some(TailSampler::new(config)),
            sampled_out: 0,
        })
    }

    /// The retained events decoded back to [`TraceEvent`]s, oldest first.
    /// Undecodable records (corruption — not expected in-process) are
    /// skipped.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_event(|ev| out.push(ev));
        out
    }

    /// Decodes each retained record in place, oldest first, and hands it
    /// to `f` — the analysis path's one pass over the ring, with no
    /// decoded copy of it. Skips undecodable records like
    /// [`BinaryRecorder::events`]. Holds the ring lock throughout, so `f`
    /// must not touch this recorder.
    pub(crate) fn for_each_event(&self, mut f: impl FnMut(TraceEvent)) {
        let ring = self.ring();
        for run in ring.byte_runs() {
            for rec in run.as_chunks::<EVENT_BYTES>().0 {
                if let Some(ev) = decode(rec) {
                    f(ev);
                }
            }
        }
    }

    /// The retained records as one contiguous byte string, oldest first —
    /// the unit the determinism tests compare byte-for-byte across
    /// `--jobs` levels. Decode with [`decode_stream`](crate::codec::decode_stream).
    pub fn raw_bytes(&self) -> Vec<u8> {
        let ring = self.ring();
        let mut out = Vec::with_capacity(ring.retained * EVENT_BYTES);
        for run in ring.byte_runs() {
            out.extend_from_slice(run);
        }
        out
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring().retained
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded into the ring over its lifetime (retained +
    /// evicted; excludes sampled-out events, which never reached it).
    pub fn total_recorded(&self) -> u64 {
        self.ring().total
    }

    /// Events evicted to honor the capacity bound. When non-zero,
    /// summaries built from [`BinaryRecorder::events`] describe a suffix
    /// of the run — callers should surface that instead of calling the
    /// recording complete.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Events discarded by tail-aware sampling before reaching the ring.
    /// Zero unless a [`BinaryRecorder::sink_sampled`] sink fed the ring.
    pub fn sampled_out(&self) -> u64 {
        self.ring().sampled_out
    }

    /// The configured capacity bound, in events.
    pub fn capacity(&self) -> usize {
        self.ring().capacity
    }

    /// Discards the retained records and resets all counters.
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.blocks.clear();
        ring.head = 0;
        ring.retained = 0;
        ring.total = 0;
        ring.dropped = 0;
        ring.sampled_out = 0;
    }
}

/// A per-handler recording sink: encodes into a private staging buffer,
/// flushes to the shared [`BinaryRecorder`] ring in batches and on drop.
///
/// Not a clonable handle — each installed sink owns its stage. A handler
/// is single-threaded, so the stage needs no synchronization; `Send`
/// (required by [`TraceSink`]) holds because ownership moves with the
/// handler across the parallel runner's worker threads.
pub struct BinarySink {
    ring: Arc<Mutex<BinRing>>,
    staged: Vec<u8>,
    sampler: Option<TailSampler>,
    /// Healthy-sampled-away events not yet reported to the ring.
    sampled_out: u64,
}

impl BinarySink {
    fn flush(&mut self) {
        if self.staged.is_empty() && self.sampled_out == 0 {
            return;
        }
        // Hand the whole staged block to the ring by move; the next batch
        // stages into whatever block the ring just evicted (same capacity,
        // already faulted in), or a fresh buffer while the ring is still
        // filling.
        let block = std::mem::take(&mut self.staged);
        let recycled = {
            let mut ring = self
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            ring.sampled_out += self.sampled_out;
            self.sampled_out = 0;
            if block.is_empty() {
                None
            } else {
                ring.push_block(block)
            }
        };
        self.staged = recycled.unwrap_or_else(|| Vec::with_capacity(FLUSH_EVENTS * EVENT_BYTES));
    }

    #[inline]
    fn flush_if_full(&mut self) {
        if self.staged.len() >= FLUSH_EVENTS * EVENT_BYTES {
            self.flush();
        }
    }
}

impl TraceSink for BinarySink {
    // tg-lint: hot(record)
    fn record(&mut self, event: &TraceEvent) {
        match &mut self.sampler {
            Some(sampler) => {
                self.sampled_out += sampler.offer(event, &mut self.staged);
            }
            None => encode_append(event, &mut self.staged),
        }
        self.flush_if_full();
    }
    // tg-lint: endhot
}

impl Drop for BinarySink {
    fn drop(&mut self) {
        if let Some(mut sampler) = self.sampler.take() {
            self.sampled_out += sampler.finish(&mut self.staged);
        }
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_stream;
    use tailguard_simcore::SimTime;

    fn pause(n: u64) -> TraceEvent {
        TraceEvent::AdmissionPause {
            at: SimTime::from_nanos(n),
        }
    }

    #[test]
    fn events_visible_after_sink_drop() {
        let rec = BinaryRecorder::with_capacity(1024);
        {
            let mut sink = rec.sink();
            for n in 0..5 {
                sink.record(&pause(n));
            }
            // Below the flush threshold: nothing in the ring yet.
            assert_eq!(rec.len(), 0);
        }
        assert_eq!(rec.len(), 5, "drop flushes the stage");
        let kept: Vec<u64> = rec.events().iter().map(|e| e.at().as_nanos()).collect();
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn batch_threshold_flushes_mid_stream() {
        let rec = BinaryRecorder::with_capacity(1 << 20);
        let mut sink = rec.sink();
        for n in 0..(FLUSH_EVENTS as u64) {
            sink.record(&pause(n));
        }
        assert_eq!(rec.len(), FLUSH_EVENTS, "threshold reached, flushed");
        sink.record(&pause(9999));
        assert_eq!(rec.len(), FLUSH_EVENTS, "next event stages privately");
        drop(sink);
        assert_eq!(rec.len(), FLUSH_EVENTS + 1);
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let rec = BinaryRecorder::with_capacity(3);
        {
            let mut sink = rec.sink();
            for n in 0..5 {
                sink.record(&pause(n));
            }
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total_recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let kept: Vec<u64> = rec.events().iter().map(|e| e.at().as_nanos()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    /// Records `n` events through a plain sink into a ring of
    /// `capacity` and checks the retained bytes are exactly the encoding
    /// of the last `capacity` events, with every other one counted.
    fn check_ring_keeps_the_last(capacity: usize, n: u64) {
        let rec = BinaryRecorder::with_capacity(capacity);
        {
            let mut sink = rec.sink();
            for k in 0..n {
                sink.record(&pause(k));
            }
        }
        let kept = (n as usize).min(capacity);
        let mut expected = Vec::new();
        for k in (n - kept as u64)..n {
            encode_append(&pause(k), &mut expected);
        }
        assert_eq!(rec.raw_bytes(), expected, "capacity {capacity}, {n} events");
        assert_eq!(rec.len(), kept);
        assert_eq!(rec.total_recorded(), n);
        assert_eq!(rec.dropped(), n - kept as u64);
    }

    #[test]
    fn ring_keeps_exactly_the_last_capacity_records() {
        // Not a multiple of FLUSH_EVENTS: eviction ends mid-block.
        check_ring_keeps_the_last(FLUSH_EVENTS * 3 + 37, 2_000);
        check_ring_keeps_the_last(FLUSH_EVENTS * 3 + 37, (FLUSH_EVENTS * 3 + 37) as u64);
        // Below one block: every flush evicts inside the block it pushed.
        check_ring_keeps_the_last(FLUSH_EVENTS / 2 + 1, 2_000);
        check_ring_keeps_the_last(1, 300);
        // A multiple of FLUSH_EVENTS: whole blocks leave the ring.
        check_ring_keeps_the_last(FLUSH_EVENTS * 2, 2_000);
    }

    #[test]
    fn raw_bytes_round_trip_matches_events() {
        let rec = BinaryRecorder::with_capacity(64);
        {
            let mut sink = rec.sink();
            for n in 0..7 {
                sink.record(&pause(n));
            }
        }
        let (decoded, corrupt) = decode_stream(&rec.raw_bytes());
        assert_eq!(corrupt, 0);
        assert_eq!(decoded, rec.events());
    }

    #[test]
    fn sampled_sink_reports_discards_to_ring() {
        use tailguard_sched::AttemptKind;
        let rec = BinaryRecorder::with_capacity(1024);
        {
            let mut sink = rec.sink_sampled(SamplerConfig {
                keep_permille: 0,
                slow_after: tailguard_simcore::SimDuration::from_millis(20),
            });
            // One healthy query: admitted, enqueued, completed.
            sink.record(&TraceEvent::QueryAdmitted {
                at: SimTime::from_millis(1),
                query: 0,
                class: 0,
                fanout: 1,
                deadline: SimTime::from_millis(11),
            });
            sink.record(&TraceEvent::TaskEnqueued {
                at: SimTime::from_millis(1),
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline: SimTime::from_millis(11),
            });
            sink.record(&TraceEvent::TaskCompleted {
                at: SimTime::from_millis(2),
                task: 0,
                slot: 0,
                query: 0,
                server: 0,
                busy: tailguard_simcore::SimDuration::from_millis(1),
                won: true,
            });
            sink.record(&pause(99));
        }
        assert_eq!(rec.sampled_out(), 3, "the healthy bundle was dropped");
        assert_eq!(rec.len(), 1, "the cluster event passed through");
        assert_eq!(rec.dropped(), 0, "sampling is not capacity eviction");
    }
}
