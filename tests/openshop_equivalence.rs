//! Cross-validation through the Appendix A reduction: concurrent open shop
//! and diagonal-coflow scheduling must agree.

use coflow::ordering::OrderRule;
use coflow::sched::optimal::optimal_objective;
use coflow::sched::{run, AlgorithmSpec};
use coflow::verify_outcome;
use coflow_openshop::{
    best_permutation_objective, coflow_to_open_shop, open_shop_to_coflow, order_by_wspt_bottleneck,
    permutation_schedule, Job, OpenShopInstance,
};
use coflow_workloads::random_diagonal_instance;

#[test]
fn reduction_round_trips_random_instances() {
    for seed in 0..10 {
        let inst = random_diagonal_instance(3, 4, 0.6, 5, seed);
        let shop = coflow_to_open_shop(&inst);
        let back = open_shop_to_coflow(&shop);
        for (a, b) in inst.coflows().iter().zip(back.coflows()) {
            assert_eq!(a.demand, b.demand);
            assert_eq!(a.weight, b.weight);
        }
    }
}

#[test]
fn open_shop_optimum_equals_coflow_optimum_on_diagonals() {
    // Permutation schedules are optimal for concurrent open shop, and the
    // diagonal embedding preserves the problem exactly.
    for seed in 0..8 {
        let inst = random_diagonal_instance(2, 3, 0.8, 3, seed);
        let shop = coflow_to_open_shop(&inst);
        let best_perm = best_permutation_objective(&shop);
        let exact = optimal_objective(&inst);
        assert_eq!(
            best_perm, exact,
            "seed {}: permutation optimum {} != coflow optimum {}",
            seed, best_perm, exact
        );
    }
}

#[test]
fn wspt_heuristic_is_near_optimal_on_diagonals() {
    for seed in 0..8 {
        let inst = random_diagonal_instance(2, 4, 0.8, 4, seed);
        let shop = coflow_to_open_shop(&inst);
        let order = order_by_wspt_bottleneck(&shop);
        let sched = permutation_schedule(&shop, &order);
        let best = best_permutation_objective(&shop);
        assert!(
            sched.objective <= 2.0 * best,
            "seed {}: WSPT at {} vs optimum {}",
            seed,
            sched.objective,
            best
        );
    }
}

#[test]
fn coflow_approximation_stays_within_ratio_on_open_shop_instances() {
    for seed in 0..6 {
        let inst = random_diagonal_instance(2, 3, 0.8, 3, seed);
        let exact = optimal_objective(&inst);
        let approx = run(&inst, &AlgorithmSpec::algorithm2());
        verify_outcome(&inst, &approx).expect("valid");
        assert!(
            approx.objective <= coflow::DETERMINISTIC_RATIO_NO_RELEASE * exact,
            "seed {}: ratio {}",
            seed,
            approx.objective / exact
        );
    }
}

#[test]
fn single_machine_case_matches_wspt_theory() {
    // m = 1: coflow scheduling degenerates to 1|pmtn|Σ wC, where WSPT is
    // exactly optimal.
    let shop = OpenShopInstance::new(
        1,
        vec![
            Job::new(0, vec![3]).with_weight(1.0),
            Job::new(1, vec![1]).with_weight(4.0),
            Job::new(2, vec![2]).with_weight(2.0),
        ],
    );
    let inst = open_shop_to_coflow(&shop);
    let exact = optimal_objective(&inst);
    // WSPT order: job1 (0.25), job2 (1.0), job0 (3.0):
    // C1 = 1 (w4), C2 = 3 (w2), C0 = 6 (w1) -> 4 + 6 + 6 = 16.
    assert_eq!(exact, 16.0);
    let out = run(
        &inst,
        &AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: false,
            backfill: true,
        },
    );
    verify_outcome(&inst, &out).expect("valid");
    assert_eq!(
        out.objective, 16.0,
        "H_rho sequential = WSPT on one machine"
    );
}
