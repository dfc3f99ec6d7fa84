//! Tail-aware sampling of the binary event stream.
//!
//! Uniform sampling of trace events is the wrong tool for tail-latency
//! work: the events that explain a P99 miss are, by definition, rare, and
//! a 1% uniform sample discards 99% of them. [`TailSampler`] instead
//! buffers each query's events as an encoded bundle until the query's
//! last attempt resolves, then keeps the whole bundle if anything
//! *interesting* happened to it — a deadline miss, hedge, retry, lost
//! task, lease reclaim, fencing rejection, budget denial, or a dequeue
//! slower than a threshold — and otherwise keeps only a deterministic
//! fraction of the healthy bundles. Every retained query is complete
//! (admission through final completion), so timeline reconstruction
//! still works on the sampled stream.
//!
//! Healthy-query retention hashes the query id through SplitMix64, so the
//! same run keeps the same queries regardless of `--jobs` or runtime —
//! sampling never perturbs the determinism story. Cluster-scoped events
//! (rejections, admission flips, server ejections) carry no query id and
//! always pass straight through.

use crate::codec::{encode_append, EVENT_BYTES};
use tailguard_sched::{AttemptKind, QueryId, TraceEvent};
use tailguard_simcore::SimDuration;

/// What the sampler keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Per-mille of *healthy* query bundles to retain (0..=1000; 1000
    /// keeps everything and reduces the sampler to bundling overhead).
    /// Interesting bundles are always retained.
    pub keep_permille: u16,
    /// A dequeue that waited at least this long marks its query
    /// interesting even if the deadline ultimately held — the near-misses
    /// tail analysis wants alongside the misses.
    pub slow_after: SimDuration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            keep_permille: 10,
            slow_after: SimDuration::from_millis(20),
        }
    }
}

/// SplitMix64 finalizer: a fixed, high-quality 64-bit mix used to turn a
/// query id into a stable sampling decision. Deterministic by design —
/// no seed, no process entropy.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query's buffered, encoded events plus the state needed to decide
/// when the query is finished and whether it was interesting.
struct Bundle {
    query: QueryId,
    /// Encoded events, [`EVENT_BYTES`] each, in emission order.
    buf: Vec<u8>,
    /// Attempts enqueued and not yet terminal. The bundle closes when
    /// this returns to zero after having been positive.
    open_attempts: u32,
    /// Whether anything tail-relevant happened; set once, never cleared.
    interesting: bool,
    /// A lease reclaim re-enqueues the *same* task id; this marker makes
    /// the follow-up `TaskEnqueued` not double-count the attempt (and a
    /// follow-up `TaskCancelled` still decrement it once).
    reclaim_pending: bool,
}

const NO_BUNDLE: u32 = u32::MAX;

/// The tail-aware sampler. Feed events through [`TailSampler::offer`];
/// retained encoded bytes are appended to the caller's buffer and the
/// number of healthy-sampled-away events is returned as a delta. Call
/// [`TailSampler::finish`] (or let the owning sink drop) to flush queries
/// still open at end of stream — those are always retained, since an
/// unresolved query at shutdown is itself interesting.
pub struct TailSampler {
    config: SamplerConfig,
    /// Dense query-id → slab index (+[`NO_BUNDLE`] for absent). Query ids
    /// are handler-assigned sequentially, so a flat Vec beats a map.
    slots: Vec<u32>,
    bundles: Vec<Bundle>,
    free: Vec<u32>,
    /// A query whose open-attempt count just hit zero. Closing is
    /// deferred one event because a lost task and its retry re-enqueue
    /// share a timestamp: if the next event belongs to this query the
    /// bundle silently reopens, otherwise it is finalized.
    pending_close: Option<QueryId>,
}

impl TailSampler {
    /// A sampler with the given retention policy.
    pub fn new(config: SamplerConfig) -> Self {
        TailSampler {
            config,
            slots: Vec::new(),
            bundles: Vec::new(),
            free: Vec::new(),
            pending_close: None,
        }
    }

    /// Whether this query id survives healthy sampling.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "a literal non-zero modulus (the per-mille bucket)"
    )]
    fn keeps_healthy(&self, query: QueryId) -> bool {
        splitmix64(u64::from(query)) % 1000 < u64::from(self.config.keep_permille)
    }

    fn bundle_index(&self, query: QueryId) -> Option<usize> {
        match self.slots.get(query as usize) {
            Some(&idx) if idx != NO_BUNDLE => Some(idx as usize),
            _ => None,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    fn open_bundle(&mut self, query: QueryId, interesting: bool) -> usize {
        if self.slots.len() <= query as usize {
            self.slots.resize(query as usize + 1, NO_BUNDLE);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let b = &mut self.bundles[idx as usize];
                b.query = query;
                b.buf.clear();
                b.open_attempts = 0;
                b.interesting = interesting;
                b.reclaim_pending = false;
                idx as usize
            }
            None => {
                self.bundles.push(Bundle {
                    query,
                    buf: Vec::new(),
                    open_attempts: 0,
                    interesting,
                    reclaim_pending: false,
                });
                // tg-lint: allow(unsigned-sub) -- bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above
                self.bundles.len() - 1
            }
        };
        self.slots[query as usize] = idx as u32;
        idx
    }

    /// Finalizes one bundle: appends its bytes to `out` if retained,
    /// returns the number of events discarded otherwise.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bundle indices are bounded by the bundle pool size, far below 2^32"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    fn finalize(&mut self, query: QueryId, out: &mut Vec<u8>) -> u64 {
        let Some(idx) = self.bundle_index(query) else {
            return 0;
        };
        self.slots[query as usize] = NO_BUNDLE;
        let keep = self.bundles[idx].interesting || self.keeps_healthy(query);
        let discarded = if keep {
            out.extend_from_slice(&self.bundles[idx].buf);
            0
        } else {
            (self.bundles[idx].buf.len() / EVENT_BYTES) as u64
        };
        self.free.push(idx as u32);
        discarded
    }

    /// Offers one event. Encoded bytes of events/bundles decided *kept*
    /// are appended to `out`; the return value is how many events were
    /// discarded by healthy sampling as a result of this call.
    #[expect(
        clippy::indexing_slicing,
        reason = "bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    pub fn offer(&mut self, ev: &TraceEvent, out: &mut Vec<u8>) -> u64 {
        let query = ev.query();
        let mut discarded = 0;
        if let Some(closing) = self.pending_close {
            if query == Some(closing) {
                // Same query again (e.g. a same-timestamp retry
                // re-enqueue): the close was premature, reopen.
                self.pending_close = None;
            } else {
                discarded += self.finalize(closing, out);
                self.pending_close = None;
            }
        }
        let Some(q) = query else {
            // Cluster-scoped event: always retained, never bundled.
            encode_append(ev, out);
            return discarded;
        };
        // A query-scoped event for a query without a bundle is
        // post-terminal (a late duplicate or zombie commit after the
        // bundle closed) or pre-installation; either way it is
        // tail-relevant, so the fresh bundle starts interesting.
        let idx = match self.bundle_index(q) {
            Some(idx) => idx,
            None => {
                let recreated = !matches!(ev, TraceEvent::QueryAdmitted { .. });
                let idx = self.open_bundle(q, recreated);
                if recreated {
                    self.pending_close = Some(q);
                }
                idx
            }
        };
        let b = &mut self.bundles[idx];
        encode_append(ev, &mut b.buf);
        match *ev {
            TraceEvent::TaskEnqueued { kind, .. } => {
                if b.reclaim_pending {
                    b.reclaim_pending = false;
                } else {
                    b.open_attempts += 1;
                }
                if kind != AttemptKind::Original {
                    b.interesting = true;
                }
            }
            TraceEvent::TaskDequeued { waited, .. } if waited >= self.config.slow_after => {
                b.interesting = true;
            }
            TraceEvent::LeaseReclaimed { .. } => {
                b.interesting = true;
                b.reclaim_pending = true;
            }
            TraceEvent::DeadlineMissed { .. }
            | TraceEvent::HedgeIssued { .. }
            | TraceEvent::DuplicateSuppressed { .. }
            | TraceEvent::StaleCommitRejected { .. }
            | TraceEvent::HedgeBudgetExhausted { .. } => {
                b.interesting = true;
            }
            TraceEvent::TaskCompleted { .. }
            | TraceEvent::TaskCancelled { .. }
            | TraceEvent::TaskLost { .. } => {
                if matches!(ev, TraceEvent::TaskCancelled { .. }) && b.reclaim_pending {
                    b.reclaim_pending = false;
                }
                if matches!(ev, TraceEvent::TaskLost { .. }) {
                    b.interesting = true;
                }
                b.open_attempts = b.open_attempts.saturating_sub(1);
                if b.open_attempts == 0 {
                    self.pending_close = Some(q);
                }
            }
            _ => {}
        }
        discarded
    }

    /// Flushes every bundle still open, in query-id order, marking them
    /// retained (an unresolved query at end of stream is interesting).
    /// Returns the healthy-sampled-away count from closing the pending
    /// query, if any.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`slots` is indexed by query id, so every `q` is a `QueryId` the handler minted"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`q` ranges over `0..self.slots.len()`; bundle/slot tables: `idx` comes from sentinel-checked `slots` entries or the free list, both minted by this sampler; `bundles` is non-empty right after the push above"
    )]
    pub fn finish(&mut self, out: &mut Vec<u8>) -> u64 {
        let mut discarded = 0;
        if let Some(closing) = self.pending_close.take() {
            discarded += self.finalize(closing, out);
        }
        for q in 0..self.slots.len() {
            if self.slots[q] != NO_BUNDLE {
                let idx = self.slots[q] as usize;
                self.bundles[idx].interesting = true;
                discarded += self.finalize(q as QueryId, out);
            }
        }
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_stream;
    use tailguard_sched::LeaseToken;
    use tailguard_simcore::SimTime;

    fn config(keep_permille: u16) -> SamplerConfig {
        SamplerConfig {
            keep_permille,
            slow_after: SimDuration::from_millis(20),
        }
    }

    /// A minimal healthy query: admit, enqueue, dequeue, complete.
    fn healthy_query(q: QueryId, task: u32) -> Vec<TraceEvent> {
        vec![
            TraceEvent::QueryAdmitted {
                at: SimTime::from_millis(1),
                query: q,
                class: 0,
                fanout: 1,
                deadline: SimTime::from_millis(11),
            },
            TraceEvent::TaskEnqueued {
                at: SimTime::from_millis(1),
                task,
                slot: task,
                query: q,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline: SimTime::from_millis(11),
            },
            TraceEvent::TaskDequeued {
                at: SimTime::from_millis(2),
                task,
                slot: task,
                query: q,
                class: 0,
                kind: AttemptKind::Original,
                server: 0,
                token: LeaseToken(1),
                waited: SimDuration::from_millis(1),
                slack_ns: 9_000_000,
            },
            TraceEvent::TaskCompleted {
                at: SimTime::from_millis(3),
                task,
                slot: task,
                query: q,
                server: 0,
                busy: SimDuration::from_millis(1),
                won: true,
            },
        ]
    }

    fn run(sampler: &mut TailSampler, events: &[TraceEvent]) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::new();
        let mut discarded = 0;
        for ev in events {
            discarded += sampler.offer(ev, &mut out);
        }
        discarded += sampler.finish(&mut out);
        let (decoded, corrupt) = decode_stream(&out);
        assert_eq!(corrupt, 0);
        (decoded, discarded)
    }

    #[test]
    fn keep_all_retains_every_event_in_order() {
        let mut events = healthy_query(0, 0);
        events.extend(healthy_query(1, 1));
        let mut sampler = TailSampler::new(config(1000));
        let (decoded, discarded) = run(&mut sampler, &events);
        assert_eq!(discarded, 0);
        assert_eq!(decoded, events);
    }

    #[test]
    fn keep_none_discards_healthy_but_keeps_misses() {
        let mut events = healthy_query(0, 0);
        let miss_query = healthy_query(1, 1);
        events.extend(&miss_query);
        events.insert(
            events.len() - 1,
            TraceEvent::DeadlineMissed {
                at: SimTime::from_millis(2),
                task: 1,
                query: 1,
                server: 0,
                late_by: SimDuration::from_millis(1),
            },
        );
        let mut sampler = TailSampler::new(config(0));
        let (decoded, discarded) = run(&mut sampler, &events);
        assert_eq!(discarded, 4, "the healthy query's 4 events are dropped");
        assert_eq!(decoded.len(), 5, "the missing query kept whole");
        assert!(decoded.iter().all(|e| e.query() == Some(1)));
    }

    #[test]
    fn slow_dequeue_marks_query_interesting() {
        let mut events = healthy_query(0, 0);
        if let TraceEvent::TaskDequeued { waited, .. } = &mut events[2] {
            *waited = SimDuration::from_millis(25);
        }
        let mut sampler = TailSampler::new(config(0));
        let (decoded, discarded) = run(&mut sampler, &events);
        assert_eq!(discarded, 0);
        assert_eq!(decoded, events);
    }

    #[test]
    fn hedge_kind_enqueue_marks_query_interesting() {
        let mut events = healthy_query(0, 0);
        if let TraceEvent::TaskEnqueued { kind, .. } = &mut events[1] {
            *kind = AttemptKind::Hedge;
        }
        let mut sampler = TailSampler::new(config(0));
        let (decoded, _) = run(&mut sampler, &events);
        assert_eq!(decoded, events);
    }

    #[test]
    fn cluster_events_always_pass_through() {
        let events = [
            TraceEvent::AdmissionPause {
                at: SimTime::from_millis(1),
            },
            TraceEvent::ServerEjected {
                at: SimTime::from_millis(2),
                server: 3,
            },
            TraceEvent::QueryRejected {
                at: SimTime::from_millis(3),
                class: 0,
                fanout: 4,
            },
        ];
        let mut sampler = TailSampler::new(config(0));
        let (decoded, discarded) = run(&mut sampler, &events);
        assert_eq!(discarded, 0);
        assert_eq!(decoded, events);
    }

    #[test]
    fn reclaim_reenqueue_does_not_double_count_attempts() {
        // One task: enqueue, dequeue, lease reclaimed, re-enqueued (same
        // task id), dequeued again, completed. If the re-enqueue
        // double-counted, the bundle would never close and `finish` would
        // flush it; instead it must close at the completion.
        let q = 0;
        let deadline = SimTime::from_millis(11);
        let events = vec![
            TraceEvent::QueryAdmitted {
                at: SimTime::from_millis(1),
                query: q,
                class: 0,
                fanout: 1,
                deadline,
            },
            TraceEvent::TaskEnqueued {
                at: SimTime::from_millis(1),
                task: 0,
                slot: 0,
                query: q,
                class: 0,
                server: 0,
                kind: AttemptKind::Original,
                deadline,
            },
            TraceEvent::TaskDequeued {
                at: SimTime::from_millis(2),
                task: 0,
                slot: 0,
                query: q,
                class: 0,
                kind: AttemptKind::Original,
                server: 0,
                token: LeaseToken(1),
                waited: SimDuration::from_millis(1),
                slack_ns: 9_000_000,
            },
            TraceEvent::LeaseReclaimed {
                at: SimTime::from_millis(6),
                task: 0,
                query: q,
                server: 0,
                token: LeaseToken(1),
            },
            TraceEvent::TaskEnqueued {
                at: SimTime::from_millis(6),
                task: 0,
                slot: 0,
                query: q,
                class: 0,
                server: 1,
                kind: AttemptKind::Original,
                deadline,
            },
            TraceEvent::TaskDequeued {
                at: SimTime::from_millis(7),
                task: 0,
                slot: 0,
                query: q,
                class: 0,
                kind: AttemptKind::Original,
                server: 1,
                token: LeaseToken(2),
                waited: SimDuration::from_millis(1),
                slack_ns: 4_000_000,
            },
            TraceEvent::TaskCompleted {
                at: SimTime::from_millis(8),
                task: 0,
                slot: 0,
                query: q,
                server: 1,
                busy: SimDuration::from_millis(1),
                won: true,
            },
        ];
        let mut sampler = TailSampler::new(config(0));
        let mut out = Vec::new();
        for ev in &events {
            sampler.offer(ev, &mut out);
        }
        // Bundle closed by the completion: the next unrelated event
        // finalizes it without waiting for finish().
        sampler.offer(
            &TraceEvent::AdmissionPause {
                at: SimTime::from_millis(9),
            },
            &mut out,
        );
        let (decoded, _) = decode_stream(&out);
        assert_eq!(decoded.len(), events.len() + 1);
        assert_eq!(&decoded[..events.len()], &events[..]);
    }

    #[test]
    fn same_timestamp_lost_retry_reopens_pending_close() {
        let q = 0;
        let deadline = SimTime::from_millis(11);
        let mut events = healthy_query(q, 0);
        events.truncate(3); // admit, enqueue, dequeue
        events.push(TraceEvent::TaskLost {
            at: SimTime::from_millis(5),
            task: 0,
            slot: 0,
            query: q,
            server: 0,
        });
        // Retry re-enqueue at the same instant: open_attempts transiently
        // zero, must not close the bundle.
        events.push(TraceEvent::TaskEnqueued {
            at: SimTime::from_millis(5),
            task: 1,
            slot: 0,
            query: q,
            class: 0,
            server: 1,
            kind: AttemptKind::Retry,
            deadline,
        });
        events.push(TraceEvent::TaskCompleted {
            at: SimTime::from_millis(6),
            task: 1,
            slot: 0,
            query: q,
            server: 1,
            busy: SimDuration::from_millis(1),
            won: true,
        });
        let mut sampler = TailSampler::new(config(0));
        let (decoded, _) = run(&mut sampler, &events);
        assert_eq!(decoded, events, "one contiguous bundle, nothing split");
    }

    #[test]
    fn post_terminal_duplicate_recreates_interesting_bundle() {
        let mut events = healthy_query(0, 0);
        // Closing event for another query, forcing query 0's finalize.
        events.extend(healthy_query(1, 1));
        let late = TraceEvent::DuplicateSuppressed {
            at: SimTime::from_millis(9),
            task: 0,
            query: 0,
            server: 0,
        };
        events.push(late);
        let mut sampler = TailSampler::new(config(0));
        let (decoded, _) = run(&mut sampler, &events);
        assert!(
            decoded.contains(&late),
            "late duplicate for a closed query must be retained"
        );
    }

    #[test]
    fn healthy_sampling_is_deterministic_over_query_id() {
        let mut keep_a = Vec::new();
        for trial in 0..2 {
            let mut sampler = TailSampler::new(config(500));
            let mut events = Vec::new();
            for q in 0..64 {
                events.extend(healthy_query(q, q));
            }
            let (decoded, discarded) = run(&mut sampler, &events);
            let kept: Vec<QueryId> = decoded
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::QueryAdmitted { query, .. } => Some(*query),
                    _ => None,
                })
                .collect();
            assert!(!kept.is_empty() && kept.len() < 64, "~half retained");
            assert_eq!(discarded, (64 - kept.len() as u64) * 4);
            if trial == 0 {
                keep_a = kept;
            } else {
                assert_eq!(keep_a, kept, "same decision on every run");
            }
        }
    }
}
