//! Property-based tests for concurrent open shop scheduling.

use coflow_openshop::{
    best_permutation_objective, order_by_wspt_bottleneck, order_by_wspt_total,
    permutation_schedule, primal_dual_order, primal_dual_schedule, Job, OpenShopInstance,
};
use proptest::prelude::*;

fn shop_strategy() -> impl Strategy<Value = OpenShopInstance> {
    (1usize..4, 1usize..6).prop_flat_map(|(m, n)| {
        proptest::collection::vec((proptest::collection::vec(0u64..6, m), 1u64..5), n..=n).prop_map(
            move |jobs| {
                let jobs = jobs
                    .into_iter()
                    .enumerate()
                    .map(|(id, (mut p, w))| {
                        if p.iter().all(|&x| x == 0) {
                            p[0] = 1;
                        }
                        Job::new(id, p).with_weight(w as f64)
                    })
                    .collect();
                OpenShopInstance::new(m, jobs)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The primal–dual algorithm is a 2-approximation (its proven bound).
    #[test]
    fn primal_dual_within_factor_two(shop in shop_strategy()) {
        let pd = primal_dual_schedule(&shop);
        let opt = best_permutation_objective(&shop);
        prop_assert!(pd.objective <= 2.0 * opt + 1e-9,
            "{} > 2 * {}", pd.objective, opt);
        prop_assert!(pd.objective >= opt - 1e-9);
    }

    /// Permutation evaluation is consistent: completions dominate per-job
    /// lower bounds and the objective matches the completions.
    #[test]
    fn permutation_schedule_invariants(shop in shop_strategy()) {
        for order in [
            order_by_wspt_bottleneck(&shop),
            order_by_wspt_total(&shop),
            primal_dual_order(&shop),
        ] {
            let sched = permutation_schedule(&shop, &order);
            for (job, &c) in shop.jobs().iter().zip(&sched.completions) {
                prop_assert!(c >= job.release + job.bottleneck(),
                    "completion below release + bottleneck");
            }
            let recomputed = shop.objective(&sched.completions);
            prop_assert!((recomputed - sched.objective).abs() < 1e-9);
            // Machine-wise feasibility: total completion of the last job on
            // the busiest machine is at least the machine load.
            for i in 0..shop.machines() {
                let load: u64 = shop.jobs().iter().map(|j| j.processing[i]).sum();
                let max_c = *sched.completions.iter().max().unwrap();
                prop_assert!(max_c >= load);
            }
        }
    }

    /// Orders are permutations.
    #[test]
    fn orders_are_permutations(shop in shop_strategy()) {
        for mut order in [
            order_by_wspt_bottleneck(&shop),
            order_by_wspt_total(&shop),
            primal_dual_order(&shop),
        ] {
            order.sort_unstable();
            let expected: Vec<usize> = (0..shop.len()).collect();
            prop_assert_eq!(order, expected);
        }
    }
}
