//! Quickstart: schedule the paper's Figure 1 MapReduce shuffle.
//!
//! A 2-mapper / 2-reducer shuffle on a 2×2 switch is one coflow with demand
//! matrix [[1, 2], [2, 1]]. Its load ρ(D) = 3 is a hard lower bound on the
//! completion time, and Algorithm 2 achieves exactly that.
//!
//! Run with: `cargo run --example quickstart`

use coflow::sched::{run, AlgorithmSpec};
use coflow::{verify_outcome, Coflow, Instance};
use coflow_matching::{bvn_decompose, IntMatrix};

fn main() {
    // The Figure 1 coflow: d[i][j] = data units from mapper i to reducer j.
    let shuffle = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
    println!("coflow demand:\n{:?}", shuffle);
    println!(
        "load rho(D) = {} (lower bound on completion)",
        shuffle.load()
    );

    // Algorithm 1: decompose into matchings.
    let dec = bvn_decompose(shuffle.dim(), shuffle.nonzero_entries());
    println!("\nBirkhoff-von Neumann decomposition:");
    for s in 0..dec.len() {
        let map: Vec<usize> = dec.slot_pairs(s).map(|(_, j)| j).collect();
        println!("  run matching {:?} for {} slot(s)", map, dec.count(s));
    }
    assert_eq!(dec.total_slots(), 3);

    // The full pipeline: LP ordering + grouping (Algorithm 2).
    let instance = Instance::new(2, vec![Coflow::new(0, shuffle)]);
    let outcome = run(&instance, &AlgorithmSpec::algorithm2());
    verify_outcome(&instance, &outcome).expect("schedule must satisfy problem (O)");

    println!(
        "\ncompletion time: {} slots (optimal)",
        outcome.completions[0]
    );
    println!("total weighted completion time: {}", outcome.objective);
    assert_eq!(outcome.completions, vec![3]);
}
