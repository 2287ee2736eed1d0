//! The Appendix A connection: concurrent open shop as diagonal coflows.
//!
//! Builds an open-shop instance, embeds it as a coflow instance, and checks
//! that (i) the brute-force best permutation schedule matches the coflow
//! exact optimum, and (ii) the coflow approximation algorithms land close.
//!
//! Run with: `cargo run --example open_shop`

use coflow::sched::optimal::optimal_objective;
use coflow::sched::{run, AlgorithmSpec};
use coflow::verify_outcome;
use coflow_openshop::{
    best_permutation_objective, open_shop_to_coflow, order_by_wspt_bottleneck,
    permutation_schedule, Job, OpenShopInstance,
};

fn main() {
    // Three customer orders on two machines (e.g. two component fabs).
    let shop = OpenShopInstance::new(
        2,
        vec![
            Job::new(0, vec![2, 1]).with_weight(3.0),
            Job::new(1, vec![1, 3]).with_weight(1.0),
            Job::new(2, vec![2, 2]).with_weight(2.0),
        ],
    );

    // Heuristic: WSPT on the bottleneck machine (the open-shop analogue of
    // the paper's H_rho ordering).
    let order = order_by_wspt_bottleneck(&shop);
    let sched = permutation_schedule(&shop, &order);
    println!("WSPT-bottleneck order {:?}", sched.order);
    println!(
        "completions {:?}, objective {}",
        sched.completions, sched.objective
    );

    // Exact optimum over all permutations (optimal for concurrent open shop).
    let best = best_permutation_objective(&shop);
    println!("best permutation objective: {}", best);

    // Appendix A: embed as diagonal coflows; the coflow exact optimum
    // agrees with the open-shop optimum.
    let coflow_inst = open_shop_to_coflow(&shop);
    let exact = optimal_objective(&coflow_inst);
    println!("coflow exact optimum on the diagonal embedding: {}", exact);
    assert_eq!(best, exact, "Appendix A equivalence");

    // And the coflow approximation algorithm is within its proven ratio.
    let approx = run(&coflow_inst, &AlgorithmSpec::algorithm2());
    verify_outcome(&coflow_inst, &approx).expect("valid schedule");
    println!(
        "Algorithm 2 objective: {} (ratio {:.3}, guarantee {:.2})",
        approx.objective,
        approx.objective / exact,
        coflow::DETERMINISTIC_RATIO_NO_RELEASE
    );
    assert!(approx.objective / exact <= coflow::DETERMINISTIC_RATIO_NO_RELEASE);
}
