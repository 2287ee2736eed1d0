//! The combinatorial primal–dual 2-approximation for concurrent open shop
//! (Mastrolilli, Queyranne, Schulz, Svensson & Uhan, 2010), cited by the
//! paper as the strongest known result for the uncoupled special case.
//!
//! The algorithm builds the permutation from the back. While jobs remain:
//! pick the machine `μ` with the largest remaining load, schedule *last*
//! the job minimizing the residual-weight-to-processing ratio
//! `w'_j / p_{μ j}`, and reduce every remaining job's residual weight by
//! `θ · p_{μ j}` where `θ` is that minimum ratio (the dual variable raised
//! on machine `μ`). With all release dates zero this is a 2-approximation;
//! it generalizes Smith's WSPT rule, which it reproduces exactly when
//! `m = 1`.

use crate::schedule::{permutation_schedule, PermutationSchedule};
use crate::OpenShopInstance;

/// Computes the primal–dual order (back to front) and evaluates it.
pub fn primal_dual_schedule(shop: &OpenShopInstance) -> PermutationSchedule {
    let order = primal_dual_order(shop);
    permutation_schedule(shop, &order)
}

/// The primal–dual permutation (front to back).
pub fn primal_dual_order(shop: &OpenShopInstance) -> Vec<usize> {
    let n = shop.len();
    let m = shop.machines();
    let mut residual_weight: Vec<f64> = shop.jobs().iter().map(|j| j.weight).collect();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut machine_load: Vec<u64> = (0..m)
        .map(|i| shop.jobs().iter().map(|j| j.processing[i]).sum())
        .collect();
    let mut order_rev = Vec::with_capacity(n);

    for _ in 0..n {
        // Machine with maximum remaining load.
        let (mu, &load) = machine_load
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .unwrap_or_else(|| unreachable!("at least one machine"));
        let j_star = if load == 0 {
            // All remaining jobs are empty: order arbitrarily (by index).
            (0..n)
                .find(|&j| remaining[j])
                .unwrap_or_else(|| unreachable!("a job remains"))
        } else {
            // Job minimizing w'_j / p_{mu j} among jobs with p > 0.
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if !remaining[j] {
                    continue;
                }
                let p = shop.jobs()[j].processing[mu];
                if p == 0 {
                    continue;
                }
                let ratio = residual_weight[j] / p as f64;
                match best {
                    None => best = Some((j, ratio)),
                    Some((_, r)) if ratio < r => best = Some((j, ratio)),
                    _ => {}
                }
            }
            let (j_star, theta) =
                best.unwrap_or_else(|| unreachable!("max-load machine has a nonzero job"));
            // Dual update: pay theta per unit of mu-processing.
            for j in 0..n {
                if remaining[j] && j != j_star {
                    residual_weight[j] -= theta * shop.jobs()[j].processing[mu] as f64;
                    debug_assert!(residual_weight[j] >= -1e-9);
                }
            }
            j_star
        };
        remaining[j_star] = false;
        for (i, l) in machine_load.iter_mut().enumerate() {
            *l -= shop.jobs()[j_star].processing[i];
        }
        order_rev.push(j_star);
    }
    order_rev.reverse();
    order_rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::best_permutation_objective;
    use crate::Job;

    #[test]
    fn reduces_to_wspt_on_one_machine() {
        let shop = OpenShopInstance::new(
            1,
            vec![
                Job::new(0, vec![2]).with_weight(1.0),
                Job::new(1, vec![1]).with_weight(3.0),
                Job::new(2, vec![3]).with_weight(2.0),
            ],
        );
        let order = primal_dual_order(&shop);
        // WSPT: ratios 2, 1/3, 3/2 -> order [1, 2, 0].
        assert_eq!(order, vec![1, 2, 0]);
        let sched = permutation_schedule(&shop, &order);
        assert_eq!(sched.objective, best_permutation_objective(&shop));
    }

    #[test]
    fn two_approximation_on_small_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1..4);
            let n = rng.gen_range(2..7);
            let jobs: Vec<Job> = (0..n)
                .map(|id| {
                    let p: Vec<u64> = (0..m).map(|_| rng.gen_range(0..5)).collect();
                    let mut p = p;
                    if p.iter().all(|&x| x == 0) {
                        p[0] = 1;
                    }
                    Job::new(id, p).with_weight(rng.gen_range(1..5) as f64)
                })
                .collect();
            let shop = OpenShopInstance::new(m, jobs);
            let pd = primal_dual_schedule(&shop);
            let opt = best_permutation_objective(&shop);
            assert!(
                pd.objective <= 2.0 * opt + 1e-9,
                "seed {}: {} > 2 * {}",
                seed,
                pd.objective,
                opt
            );
            assert!(pd.objective >= opt - 1e-9, "heuristic below optimum?");
        }
    }

    #[test]
    fn handles_empty_jobs_gracefully() {
        let shop = OpenShopInstance::new(2, vec![Job::new(0, vec![0, 0]), Job::new(1, vec![3, 1])]);
        let order = primal_dual_order(&shop);
        assert_eq!(order.len(), 2);
        let sched = permutation_schedule(&shop, &order);
        assert_eq!(sched.completions[0], 0);
        assert_eq!(sched.completions[1], 3);
    }

    #[test]
    fn dual_weights_stay_nonnegative_under_stress() {
        // A denser instance exercising many dual updates.
        let jobs: Vec<Job> = (0..8)
            .map(|id| Job::new(id, vec![(id as u64 % 4) + 1, 4 - (id as u64 % 4)]))
            .collect();
        let shop = OpenShopInstance::new(2, jobs);
        let sched = primal_dual_schedule(&shop);
        assert!(sched.objective > 0.0);
    }
}
