//! The load-free draws of a plain run.
//!
//! A max-load search runs one scenario at many loads from one seed. Only
//! the arrival instants depend on the load. Each query's unit arrival draw
//! ([`tailguard_workload::ArrivalProcess::unit_draw`]), class and fanout,
//! each task's server and nominal service time, and the number of queries
//! of each type are the same at every load. [`Draws`] holds them, drawn
//! once, in flat arrays: 8 bytes per query for the unit draws, 8 for the
//! class and fanout, and 12 per task. A probe turns the unit draws into
//! its arrival instants ([`Scenario::clock`]) and runs on the rest.

use crate::cluster::{draw_service, place};
use crate::plain::PlainRun;
use crate::spec::{QuerySpec, Scenario, SimInput};
use std::collections::BTreeMap;
use tailguard_sched::{units, ClusterSpec, QueryTypeKey};
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tailguard_workload::DriftPlan;

/// One request's query: its class and fanout, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryDraw {
    /// The query's fanout: how many tasks of [`Draws`] it owns.
    pub(crate) fanout: u32,
    /// Its class.
    pub(crate) class: u8,
    /// False for a request without a query.
    pub(crate) issued: bool,
}

/// Budgets a hand-built query sets itself (see [`QuerySpec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Budgets {
    /// [`QuerySpec::budget_override`].
    pub(crate) query: Option<SimDuration>,
    /// [`QuerySpec::task_budgets`].
    pub(crate) tasks: Option<Vec<SimDuration>>,
}

/// A plain run's input without its arrival instants: every draw a load
/// does not change.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Draws {
    /// Per request, in arrival order.
    pub(crate) queries: Vec<QueryDraw>,
    /// Per task, in issue order: the server it goes to. A query's tasks
    /// follow those of the queries before it.
    pub(crate) servers: Vec<u32>,
    /// Per task: its nominal service time.
    pub(crate) services: Vec<SimDuration>,
    /// By request index, the budgets hand-built queries set; empty for a
    /// scenario's draws.
    pub(crate) budgets: BTreeMap<usize, Budgets>,
    /// The number of queries of each type.
    pub(crate) types: BTreeMap<QueryTypeKey, usize>,
}

impl Draws {
    /// `queries` requests of `scenario` as [`Scenario::input`] draws them,
    /// placed and given service times from `run`'s seed as the run would:
    /// the unit arrival draws, and the draws.
    ///
    /// # Panics
    ///
    /// Panics when the scenario's drift shifts the mix, and where placing
    /// a query does (a fanout over the cluster size).
    pub(crate) fn of_scenario(
        scenario: &Scenario,
        run: &PlainRun<'_>,
        queries: usize,
    ) -> (Vec<f64>, Draws) {
        assert!(
            !scenario.drift.as_ref().is_some_and(DriftPlan::shifts_mix),
            "the max-load harness draws a scenario's query mix once for every load, \
             so it cannot run a mix shift, whose mix depends on arrival time"
        );
        let [mut arrival_rng, mut mix_rng, mut place_rng] = scenario.workload_rngs();
        let mut drawing = Drawing::new(run, queries);
        let mut unit_draws = Vec::with_capacity(queries);
        for i in 0..queries {
            unit_draws.push(scenario.arrival.unit_draw(&mut arrival_rng));
            // Without a mix shift the mix is drawn alike at every instant.
            let spec = scenario.draw_query(SimTime::ZERO, &mut mix_rng, &mut place_rng);
            drawing.push(Some(&spec), i);
        }
        (unit_draws, drawing.draws)
    }

    /// A hand-built `input` under `run`: its arrival instants, and the
    /// draws.
    ///
    /// # Panics
    ///
    /// Panics on a request with more than one query, a task budget count
    /// other than the fanout, and where placing a query does.
    pub(crate) fn of_input(run: &PlainRun<'_>, input: &SimInput) -> (Vec<SimTime>, Draws) {
        let mut drawing = Drawing::new(run, input.requests.len());
        for (i, request) in input.requests.iter().enumerate() {
            assert!(
                request.queries.len() <= 1,
                "a plain run issues one query per request"
            );
            drawing.push(request.queries.first(), i);
        }
        let arrivals = input.requests.iter().map(|r| r.arrival).collect();
        (arrivals, drawing.draws)
    }
}

/// [`Draws`] being drawn from the placement and service streams of one
/// run's seed, split as [`crate::run_simulation`] splits them.
struct Drawing<'a> {
    cluster: &'a ClusterSpec,
    placement_rng: SimRng,
    service_rng: SimRng,
    targets: Vec<u32>,
    draws: Draws,
}

impl<'a> Drawing<'a> {
    fn new(run: &PlainRun<'a>, requests: usize) -> Self {
        let mut master = SimRng::seed(run.seed);
        Drawing {
            cluster: run.cluster,
            placement_rng: master.split(),
            service_rng: master.split(),
            targets: Vec::new(),
            draws: Draws {
                queries: Vec::with_capacity(requests),
                ..Draws::default()
            },
        }
    }

    /// Draws request `index`, which issues `spec` or nothing.
    fn push(&mut self, spec: Option<&QuerySpec>, index: usize) {
        let Some(spec) = spec else {
            self.draws.queries.push(QueryDraw {
                fanout: 0,
                class: 0,
                issued: false,
            });
            return;
        };
        place(
            self.cluster.servers(),
            spec,
            &mut self.placement_rng,
            &mut self.targets,
        );
        let (cluster, rng) = (self.cluster, &mut self.service_rng);
        let draws = &mut self.draws;
        draws.servers.extend_from_slice(&self.targets);
        draws
            .services
            .extend(self.targets.iter().map(|&s| draw_service(cluster, rng, s)));
        let tasks = spec.task_budgets();
        if let Some(tb) = tasks {
            assert_eq!(
                tb.len(),
                self.targets.len(),
                "task budget count must equal fanout"
            );
        }
        if spec.budget_override().is_some() || tasks.is_some() {
            let budgets = Budgets {
                query: spec.budget_override(),
                tasks: tasks.map(<[SimDuration]>::to_vec),
            };
            draws.budgets.insert(index, budgets);
        }
        let fanout = units::sat_usize_to_u32(self.targets.len());
        draws.queries.push(QueryDraw {
            fanout,
            class: spec.class,
            issued: true,
        });
        let key = QueryTypeKey {
            class: spec.class,
            fanout,
        };
        *draws.types.entry(key).or_default() += 1;
    }
}
