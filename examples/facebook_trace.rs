//! Trace-driven evaluation: generate the synthetic Facebook-like trace,
//! filter it by coflow width (the paper's `M0` filters), and compare the
//! scheduling algorithms, reporting the same normalized quantities as the
//! paper's Table 1.
//!
//! Run with: `cargo run --release --example facebook_trace`

use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::{run_with_order, ExecOptions};
use coflow::verify_outcome;
use coflow_workloads::{
    assign_weights, filter_by_width, generate_trace, TraceConfig, WeightScheme,
};

fn main() {
    // A 40-port slice of the cluster keeps the LP solve fast in an example.
    let cfg = TraceConfig {
        ports: 40,
        num_coflows: 60,
        seed: 42,
        max_flow_size: 128,
        ..TraceConfig::default()
    };
    let trace = generate_trace(&cfg);
    println!(
        "generated {} coflows on a {}x{} fabric",
        trace.len(),
        cfg.ports,
        cfg.ports
    );

    // Width histogram, echoing the paper's filtering discussion.
    let mut widths: Vec<usize> = trace.coflows().iter().map(|c| c.width()).collect();
    widths.sort_unstable();
    println!(
        "coflow widths: min {}, median {}, max {}",
        widths[0],
        widths[widths.len() / 2],
        widths[widths.len() - 1]
    );

    let filter = 8; // scaled analogue of the paper's M0 >= 30..50 filters
    let filtered = filter_by_width(&trace, filter);
    let weighted = assign_weights(&filtered, WeightScheme::RandomPermutation { seed: 7 });
    println!(
        "after the M0 >= {} filter: {} coflows\n",
        filter,
        weighted.len()
    );

    println!("{:<8} {:>12} {:>12}", "order", "case (a)", "case (d)");
    let mut denominator = f64::NAN;
    for rule in [
        OrderRule::Arrival,
        OrderRule::LoadOverWeight,
        OrderRule::LpBased,
    ] {
        let order = compute_order(&weighted, rule);
        let base = run_with_order(&weighted, order.clone(), false, ExecOptions::paper(false));
        let best = run_with_order(&weighted, order, true, ExecOptions::paper(true));
        verify_outcome(&weighted, &base).expect("valid");
        verify_outcome(&weighted, &best).expect("valid");
        if rule == OrderRule::LpBased {
            denominator = best.objective;
        }
        println!(
            "{:<8} {:>12.0} {:>12.0}",
            rule.name(),
            base.objective,
            best.objective
        );
    }
    println!(
        "\n(the paper normalizes Table 1 by the H_LP case-(d) cost: {:.0})",
        denominator
    );
}
