//! Trace diagnostics end to end: workload statistics, schedule analysis,
//! and a text Gantt timeline of the fabric.
//!
//! Run with: `cargo run --release --example trace_analysis`

use coflow::analysis::{analyze, serialization_overhead};
use coflow::grouping::group_by_doubling;
use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::{run_with_order, ExecOptions};
use coflow::verify_outcome;
use coflow_netsim::render_timeline;
use coflow_workloads::{assign_weights, generate_trace, stats, TraceConfig, WeightScheme};

fn main() {
    let cfg = TraceConfig {
        ports: 12,
        num_coflows: 10,
        seed: 4,
        max_flow_size: 32,
        ..TraceConfig::default()
    };
    let instance = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed: 4 },
    );

    // 1. Workload statistics: is this trace shaped like the paper's?
    let s = stats::trace_stats(&instance);
    println!("{}", stats::render_stats(&s));

    // 2. Schedule it with Algorithm 2 + backfilling.
    let order = compute_order(&instance, OrderRule::LpBased);
    let groups = group_by_doubling(&instance, &order);
    let outcome = run_with_order(&instance, order.clone(), true, ExecOptions::paper(true));
    verify_outcome(&instance, &outcome).expect("valid schedule");

    println!(
        "H_LP order: {:?}\n{} groups; serialization overhead {:.2} (<= 2 for doubling grids)",
        order,
        groups.groups.len(),
        serialization_overhead(&instance, &groups)
    );

    // 3. Post-hoc analysis.
    let a = analyze(&instance, &outcome);
    println!(
        "objective {:.0}, makespan {}, utilization {:.2}",
        outcome.objective, a.makespan, a.fabric_utilization
    );
    println!(
        "slowdowns: mean {:.2}, weighted {:.2}, worst {:.2} (coflow {})",
        a.mean_slowdown, a.weighted_mean_slowdown, a.max_slowdown.0, a.max_slowdown.1
    );

    // 4. The fabric timeline (one row per ingress port).
    println!("\n{}", render_timeline(&outcome.trace, 100));
}
