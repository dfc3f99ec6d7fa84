//! Reference model for the per-server index: every question a [`FaultPlan`]
//! answers, written as the whole-plan linear scan the library used before
//! it was indexed (over the public `episodes()` list, so nothing here can
//! lean on the index), and a differential test holding the indexed answers
//! to the scans bit for bit over seeded random plans.

use std::collections::BTreeSet;
use tailguard_faults::{DispatchOutcome, FaultEpisode, FaultKind, FaultPlan, FinishOutcome};
use tailguard_simcore::{SimDuration, SimRng, SimTime};

/// The linear scans, over a plan's episode list.
struct Scan<'a>(&'a [FaultEpisode]);

impl Scan<'_> {
    fn any_active(&self, server: u32, now: SimTime, kind: FaultKind) -> bool {
        self.0
            .iter()
            .any(|e| e.server == server && e.active_at(now) && e.kind == kind)
    }

    fn crash_started_within(&self, server: u32, from: SimTime, to: SimTime) -> bool {
        self.0.iter().any(|e| {
            e.server == server && e.kind == FaultKind::Crash && from < e.start && e.start <= to
        })
    }

    fn slowdown_factor(&self, server: u32, now: SimTime) -> f64 {
        self.0
            .iter()
            .filter(|e| e.server == server && e.active_at(now))
            .fold(1.0, |acc, e| match e.kind {
                FaultKind::Slowdown { factor } => acc * factor,
                FaultKind::DegradeRamp { peak } => {
                    let span = e.end.saturating_since(e.start).as_nanos() as f64;
                    let phase = now.saturating_since(e.start).as_nanos() as f64 / span;
                    acc * (1.0 + (peak - 1.0) * phase)
                }
                FaultKind::Flap { factor, period } => {
                    let cycle = now.saturating_since(e.start).as_nanos() / period.as_nanos();
                    if cycle.is_multiple_of(2) {
                        acc * factor
                    } else {
                        acc
                    }
                }
                _ => acc,
            })
    }

    fn completion_delay(&self, server: u32, now: SimTime, service: SimDuration) -> SimDuration {
        let mut start = now;
        loop {
            let stalled_until = self
                .0
                .iter()
                .filter(|e| {
                    e.server == server
                        && e.active_at(start)
                        && matches!(e.kind, FaultKind::Stall | FaultKind::Restart)
                })
                .map(|e| e.end)
                .max();
            match stalled_until {
                Some(end) if end > start => start = end,
                _ => break,
            }
        }
        let factor = self.slowdown_factor(server, start);
        start.saturating_since(now) + service.mul_f64(factor)
    }

    /// The check sequence both drivers ran per dispatch.
    fn at_dispatch(&self, server: u32, now: SimTime, service: SimDuration) -> DispatchOutcome {
        if self.any_active(server, now, FaultKind::Crash) {
            DispatchOutcome::Swallowed
        } else if self.any_active(server, now, FaultKind::Drop) {
            DispatchOutcome::Dropped
        } else {
            DispatchOutcome::Runs(self.completion_delay(server, now, service))
        }
    }

    /// The check sequence both drivers ran per finish.
    fn at_finish(&self, server: u32, dispatched_at: SimTime, now: SimTime) -> FinishOutcome {
        if self.crash_started_within(server, dispatched_at, now) {
            FinishOutcome::Swallowed
        } else if self.any_active(server, now, FaultKind::Drop)
            || self.any_active(server, now, FaultKind::Restart)
        {
            FinishOutcome::Lost
        } else {
            FinishOutcome::Delivered {
                duplicate: self.any_active(server, now, FaultKind::DuplicateDelivery),
            }
        }
    }
}

/// A plan on servers `1..=servers` (server 0 stays healthy inside the
/// index), up to 64 episodes each, on a coarse time grid so equal starts,
/// overlaps and short episodes nested in long earlier ones are all common.
/// Built one `with_episode` at a time: ties must keep insertion order.
fn random_plan(rng: &mut SimRng, servers: u32) -> FaultPlan {
    let tick = 1 + rng.index(50) as u64;
    let at = |ticks: usize| SimTime::from_nanos(ticks as u64 * tick);
    let mut plan = FaultPlan::new();
    for server in 1..=servers {
        for _ in 0..1 + rng.index(64) {
            let start = rng.index(256);
            let len = 1 + if rng.chance(0.3) {
                rng.index(256)
            } else {
                rng.index(8)
            };
            let magnitude = 0.25 + rng.f64() * 8.0;
            let kind = match rng.index(8) {
                0 => FaultKind::Slowdown { factor: magnitude },
                1 => FaultKind::Stall,
                2 => FaultKind::Drop,
                3 => FaultKind::Crash,
                4 => FaultKind::Restart,
                5 => FaultKind::DuplicateDelivery,
                6 => FaultKind::DegradeRamp { peak: magnitude },
                _ => FaultKind::Flap {
                    factor: magnitude,
                    period: SimDuration::from_nanos(1 + rng.index(20) as u64 * tick),
                },
            };
            let episode = FaultEpisode {
                server,
                start: at(start),
                end: at(start + len),
                kind,
            };
            plan = plan.with_episode(episode);
        }
    }
    plan
}

/// Holds every indexed answer to the scan's, at every episode edge and the
/// nanosecond before it, on every server of `servers`.
fn assert_agrees(plan: &FaultPlan, servers: &[u32], rng: &mut SimRng) {
    let scan = Scan(plan.episodes());
    let mut instants = BTreeSet::from([SimTime::ZERO]);
    for e in plan.episodes() {
        for t in [e.start, e.end] {
            instants.insert(t);
            instants.insert(SimTime::from_nanos(t.as_nanos().saturating_sub(1)));
        }
    }
    let instants: Vec<SimTime> = instants.into_iter().collect();
    for &server in servers {
        for &now in &instants {
            let service = SimDuration::from_nanos(1 + rng.u64() % 1_000_000);
            let ctx = format!("server {server} at {now:?} in {:?}", plan.episodes());
            for (name, kind, got) in [
                ("drops", FaultKind::Drop, plan.drops(server, now)),
                ("crashed", FaultKind::Crash, plan.crashed(server, now)),
                (
                    "restart_loses",
                    FaultKind::Restart,
                    plan.restart_loses(server, now),
                ),
                (
                    "duplicates",
                    FaultKind::DuplicateDelivery,
                    plan.duplicates(server, now),
                ),
            ] {
                assert_eq!(got, scan.any_active(server, now, kind), "{name}: {ctx}");
            }
            assert_eq!(
                plan.slowdown_factor(server, now).to_bits(),
                scan.slowdown_factor(server, now).to_bits(),
                "slowdown_factor: {ctx}"
            );
            assert_eq!(
                plan.completion_delay(server, now, service).as_nanos(),
                scan.completion_delay(server, now, service).as_nanos(),
                "completion_delay: {ctx}"
            );
            assert_eq!(
                plan.at_dispatch(server, now, service),
                scan.at_dispatch(server, now, service),
                "at_dispatch: {ctx}"
            );
            // Dispatch instants before, at and (never asked, still
            // answered alike) after the finish.
            for _ in 0..4 {
                let from = instants[rng.index(instants.len())];
                assert_eq!(
                    plan.crash_started_within(server, from, now),
                    scan.crash_started_within(server, from, now),
                    "crash_started_within from {from:?}: {ctx}"
                );
                assert_eq!(
                    plan.at_finish(server, from, now),
                    scan.at_finish(server, from, now),
                    "at_finish from {from:?}: {ctx}"
                );
            }
        }
    }
}

#[test]
fn indexed_answers_match_the_linear_scans() {
    let mut rng = SimRng::seed(0x5EED_FA17);
    for round in 0..32 {
        let servers = 1 + round % 4;
        let plan = random_plan(&mut rng, servers);
        // Server 0: indexed, no episodes. Past `servers`: beyond the index.
        let probed: Vec<u32> = (0..=servers + 1).chain([u32::MAX]).collect();
        assert_agrees(&plan, &probed, &mut rng);
        assert_agrees(&plan.compressed(25.0), &probed, &mut rng);
    }
}

#[test]
fn empty_plan_answers_like_a_healthy_cluster() {
    assert_agrees(&FaultPlan::new(), &[0, 1, u32::MAX], &mut SimRng::seed(1));
}
