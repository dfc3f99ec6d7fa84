//! Web search (OLDI) scenario — §IV.C of the paper.
//!
//! Every query touches all 100 servers (fanout = N, as in large online
//! search products), with two service classes: interactive searches
//! (x99 ≤ 10 ms) and lower-priority searches (x99 ≤ 15 ms), on the Xapian
//! workload. Reproduces the Fig. 6(e)(f) comparison: FIFO is limited by the
//! tight class, PRIQ starves the loose class, and TailGuard balances both.
//!
//! Run with: `cargo run --release --example web_search`

// Printing is this example's interface.
#![allow(clippy::print_stdout)]
use tailguard::{default_jobs, scenarios, sweep_loads, MaxLoadOptions};
use tailguard_policy::Policy;
use tailguard_workload::TailbenchWorkload;

fn main() {
    let scenario = scenarios::oldi_two_class(TailbenchWorkload::Xapian, 10.0, 15.0);
    let opts = MaxLoadOptions {
        queries: 30_000,
        ..MaxLoadOptions::default()
    };
    let loads: Vec<f64> = (4..=12).map(|i| i as f64 * 0.05).collect();

    println!("Web search (OLDI): Xapian, fanout 100, SLOs 10/15 ms");
    println!("{:-<76}", "");
    for policy in [Policy::Fifo, Policy::Priq, Policy::TfEdf] {
        let pts = sweep_loads(&scenario, policy, &loads, &opts, default_jobs());
        println!("\n{policy}:");
        println!(
            "  {:>8} {:>16} {:>16} {:>8}",
            "load", "class I p99 (ms)", "class II p99 (ms)", "SLOs ok"
        );
        for p in &pts {
            println!(
                "  {:>7.0}% {:>16.2} {:>17.2} {:>8}",
                p.load * 100.0,
                p.tails_by_class[&0].as_millis_f64(),
                p.tails_by_class[&1].as_millis_f64(),
                if p.meets { "yes" } else { "NO" }
            );
        }
        let max_ok = pts
            .iter()
            .filter(|p| p.meets)
            .map(|p| p.load)
            .fold(0.0_f64, f64::max);
        println!("  -> max load meeting both SLOs: {:.0}%", max_ok * 100.0);
    }
    println!("\nExpected shape (paper Fig. 6e/f): FIFO ~49%, PRIQ ~45%, TailGuard ~58%.");
}
