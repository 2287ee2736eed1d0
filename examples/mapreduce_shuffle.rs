//! A multi-job MapReduce scenario: several shuffle stages with different
//! priorities compete for the fabric, and the scheduler grid shows how
//! ordering, grouping, and backfilling interact.
//!
//! Three jobs on an 8×8 fabric:
//!   * an interactive analytics query (small, high weight),
//!   * a periodic ETL pipeline (medium),
//!   * a nightly batch job (huge, low weight).
//!
//! Run with: `cargo run --example mapreduce_shuffle`

use coflow::ordering::OrderRule;
use coflow::sched::{run, AlgorithmSpec};
use coflow::{verify_outcome, Coflow, Instance};
use coflow_matching::IntMatrix;

/// Builds a shuffle coflow: `mappers × reducers` block of `size`-MB flows.
fn shuffle(id: usize, m: usize, mappers: &[usize], reducers: &[usize], size: u64) -> Coflow {
    let mut d = IntMatrix::zeros(m);
    for &i in mappers {
        for &j in reducers {
            d[(i, j)] = size;
        }
    }
    Coflow::new(id, d)
}

fn main() {
    // Arrival order (ids) is the nightly batch first — the worst possible
    // naive order — so H_A and the weight-aware rules genuinely differ.
    let m = 8;
    let nightly = shuffle(0, m, &[0, 1, 2, 3, 4, 5], &[2, 3, 4, 5, 6, 7], 40).with_weight(1.0);
    let etl = shuffle(1, m, &[2, 3, 4], &[5, 6, 7], 8).with_weight(10.0);
    let interactive = shuffle(2, m, &[0, 1], &[6, 7], 2).with_weight(100.0);
    let instance = Instance::new(m, vec![nightly, etl, interactive]);

    println!(
        "{:<8} {:>5} {:>6} {:>7}   completion slots",
        "order", "group", "bkfill", "obj"
    );
    for rule in [
        OrderRule::Arrival,
        OrderRule::LoadOverWeight,
        OrderRule::LpBased,
    ] {
        for (grouping, backfill) in [(false, false), (false, true), (true, false), (true, true)] {
            let spec = AlgorithmSpec {
                order: rule,
                grouping,
                backfill,
            };
            let out = run(&instance, &spec);
            verify_outcome(&instance, &out).expect("valid schedule");
            println!(
                "{:<8} {:>5} {:>6} {:>7.0}   nightly={} etl={} interactive={}",
                rule.name(),
                grouping,
                backfill,
                out.objective,
                out.completions[0],
                out.completions[1],
                out.completions[2]
            );
        }
    }

    // The headline behaviour: weight-aware orders finish the interactive
    // job long before the nightly batch.
    let smart = run(&instance, &AlgorithmSpec::algorithm2());
    assert!(
        smart.completions[2] < smart.completions[0],
        "the high-priority job must finish first under H_LP"
    );
    println!(
        "\nAlgorithm 2 finishes the interactive job at slot {} and the \
         nightly batch at slot {}.",
        smart.completions[2], smart.completions[0]
    );
}
