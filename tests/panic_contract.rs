//! The panics `run_simulation`, `run_simulation_traced` and
//! `run_simulation_observed` document: a query that asks for no task, or
//! for more than the cluster or its own fanout allows, stops the run,
//! whichever of the three runs it.

use tailguard_repro::dist::Deterministic;
use tailguard_repro::policy::Policy;
use tailguard_repro::sched::NullSink;
use tailguard_repro::simcore::{SimDuration, SimTime};
use tailguard_repro::tailguard::{
    run_simulation, run_simulation_observed, run_simulation_traced, ClassSpec, ClusterSpec,
    ObsOptions, QuerySpec, RequestInput, SimConfig, SimInput,
};

/// Two servers of 1 ms each, one class.
fn config() -> SimConfig {
    SimConfig::new(
        ClusterSpec::homogeneous(2, Deterministic::new(1.0)),
        vec![ClassSpec::p99(SimDuration::from_millis(10))],
        Policy::TfEdf,
    )
}

/// A plain query first, then `query`.
fn input(query: QuerySpec) -> SimInput {
    let request = |at, query: QuerySpec| RequestInput {
        arrival: SimTime::from_millis(at),
        queries: query.into(),
    };
    SimInput {
        requests: vec![request(0, QuerySpec::new(0, 1)), request(1, query)],
    }
}

#[test]
#[should_panic(expected = "query class 1 out of range")]
fn a_class_outside_the_config_panics() {
    run_simulation(&config(), &input(QuerySpec::new(1, 1)));
}

#[test]
#[should_panic(expected = "fanout must be at least 1")]
fn a_fanout_of_zero_panics_under_any_policy() {
    let config = config().with_policy(Policy::Fifo);
    run_simulation(&config, &input(QuerySpec::new(0, 0)));
}

#[test]
#[should_panic(expected = "fanout 3 exceeds cluster size 2")]
fn a_fanout_over_the_cluster_size_panics() {
    run_simulation(&config(), &input(QuerySpec::new(0, 3)));
}

#[test]
#[should_panic(expected = "explicit placement length must equal fanout")]
fn an_explicit_placement_of_another_length_than_the_fanout_panics() {
    let query = QuerySpec::new(0, 2).with_servers(vec![1]);
    run_simulation_traced(&config(), &input(query), Box::new(NullSink));
}

#[test]
#[should_panic(expected = "placement server index out of range")]
fn an_explicit_placement_outside_the_cluster_panics() {
    let query = QuerySpec::new(0, 2).with_servers(vec![0, 2]);
    run_simulation_observed(&config(), &input(query), &ObsOptions::default());
}

#[test]
#[should_panic(expected = "task budget count must equal fanout")]
fn a_task_budget_count_other_than_the_fanout_panics() {
    let query = QuerySpec::new(0, 2).with_task_budgets(vec![SimDuration::from_millis(1)]);
    run_simulation(&config(), &input(query));
}
