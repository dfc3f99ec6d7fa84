//! Fig. 6: 99th-percentile latency vs load for the OLDI case (every query
//! fans out to all 100 servers), two classes, three workloads, three
//! policies (T-EDFQ equals TailGuard here because the fanout is constant).
//!
//! Paper reference max loads meeting both SLOs:
//! FIFO 45/36/49 %, PRIQ 48/45/45 %, TailGuard 54/51/58 % for
//! Masstree/Shore/Xapian; TailGuard's two classes saturate within ~5 % of
//! each other (balanced allocation).

use tailguard::{scenarios, sweep_loads};
use tailguard_bench::{header, jobs, maxload_opts, FigureCsv};
use tailguard_policy::Policy;
use tailguard_workload::TailbenchWorkload;

fn main() {
    header(
        "fig6_oldi_load_sweep",
        "Fig. 6 (a)-(f)",
        "p99 vs load per class; OLDI fanout 100; FIFO vs PRIQ vs TailGuard",
    );
    let opts = maxload_opts(40_000);
    let jobs = jobs();
    let loads: Vec<f64> = (4..=12).map(|i| i as f64 * 0.05).collect(); // 20%..60%
    let mut csv = FigureCsv::create(
        "fig6_oldi_load_sweep",
        &["series", "load", "class1_p99_ms", "class2_p99_ms"],
    );

    for w in TailbenchWorkload::ALL {
        let (hi, lo) = scenarios::fig6_slos(w);
        let scenario = scenarios::oldi_two_class(w, hi, lo);
        println!("\n--- {w}: SLOs {hi}/{lo} ms (class I/II) ---");
        for policy in [Policy::TfEdf, Policy::Fifo, Policy::Priq] {
            let pts = sweep_loads(&scenario, policy, &loads, &opts, jobs);
            for p in &pts {
                csv.labeled_row(
                    &format!("{w}/{}", policy.name()),
                    &[
                        p.load,
                        p.tails_by_class[&0].as_millis_f64(),
                        p.tails_by_class[&1].as_millis_f64(),
                    ],
                );
            }
            print!("{:<10} class I  p99(ms):", policy.name());
            for p in &pts {
                print!(" {:>6.2}", p.tails_by_class[&0].as_millis_f64());
            }
            println!();
            print!("{:<10} class II p99(ms):", "");
            for p in &pts {
                print!(" {:>6.2}", p.tails_by_class[&1].as_millis_f64());
            }
            println!();
            // The "arrow" of the paper's figure: the last load meeting both.
            let max_ok = pts
                .iter()
                .filter(|p| p.meets)
                .map(|p| p.load)
                .fold(0.0_f64, f64::max);
            println!(
                "{:<10} -> max load meeting both SLOs: {:.0}%",
                "",
                max_ok * 100.0
            );
        }
        print!("{:<10} loads (%):          ", "");
        for l in &loads {
            print!(" {:>6.0}", l * 100.0);
        }
        println!();
    }
    println!("\ncsv: {}", csv.finish());
    println!("\nShape check vs paper: FIFO limited by class I; PRIQ starves class II;");
    println!("TailGuard's two classes hit their SLOs at nearly the same (highest) load.");
}
