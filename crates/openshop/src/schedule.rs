//! Permutation schedules for concurrent open shop.
//!
//! Ahmadi et al. showed an optimal *permutation* schedule always exists for
//! concurrent open shop (without the coupling that makes coflows harder):
//! process jobs in the same order on every machine. Given an order, the
//! schedule is determined; this module evaluates orders, implements the
//! WSPT-style heuristics, and brute-forces the best permutation on small
//! instances (a tight optimum thanks to the permutation-optimality theorem,
//! used to cross-check the coflow solvers through the Appendix A reduction).

use crate::OpenShopInstance;

/// A fully evaluated permutation schedule.
#[derive(Clone, Debug)]
pub struct PermutationSchedule {
    /// The job order used on every machine.
    pub order: Vec<usize>,
    /// Completion time per job (instance indexing).
    pub completions: Vec<u64>,
    /// Total weighted completion time.
    pub objective: f64,
}

/// Evaluates the permutation schedule for `order`: each machine processes
/// jobs in that order, waiting for releases, and a job completes when its
/// last machine finishes it.
pub fn permutation_schedule(shop: &OpenShopInstance, order: &[usize]) -> PermutationSchedule {
    let _span = obs::span("openshop.schedule");
    let m = shop.machines();
    let mut machine_clock = vec![0u64; m];
    let mut completions = vec![0u64; shop.len()];
    for &k in order {
        let job = &shop.jobs()[k];
        let mut job_done = job.release;
        for (i, clock) in machine_clock.iter_mut().enumerate() {
            let p = job.processing[i];
            if p == 0 {
                continue;
            }
            // The machine may not start this job before its release.
            let start = (*clock).max(job.release);
            *clock = start + p;
            job_done = job_done.max(*clock);
        }
        completions[k] = job_done;
    }
    let objective = shop.objective(&completions);
    PermutationSchedule {
        order: order.to_vec(),
        completions,
        objective,
    }
}

/// WSPT on the bottleneck machine load: nondecreasing `max_i p_i / w` —
/// the open-shop analogue of the paper's `H_ρ`.
pub fn order_by_wspt_bottleneck(shop: &OpenShopInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shop.len()).collect();
    order.sort_by(|&a, &b| {
        let ja = &shop.jobs()[a];
        let jb = &shop.jobs()[b];
        let ka = ja.bottleneck() as f64 / ja.weight;
        let kb = jb.bottleneck() as f64 / jb.weight;
        ka.total_cmp(&kb).then(a.cmp(&b))
    });
    order
}

/// WSPT on total processing: nondecreasing `Σ_i p_i / w`.
pub fn order_by_wspt_total(shop: &OpenShopInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shop.len()).collect();
    order.sort_by(|&a, &b| {
        let ja = &shop.jobs()[a];
        let jb = &shop.jobs()[b];
        let ka = ja.total() as f64 / ja.weight;
        let kb = jb.total() as f64 / jb.weight;
        ka.total_cmp(&kb).then(a.cmp(&b))
    });
    order
}

/// Wang–Cheng-style LP ordering: solve the interval-indexed relaxation of
/// the diagonal-coflow embedding and order jobs by fractional completion
/// time. This is exactly the relaxation the paper builds on (§2.1 cites
/// Wang & Cheng's 16/3-approximation for concurrent open shop).
pub fn order_by_interval_lp(shop: &OpenShopInstance) -> Vec<usize> {
    let inst = crate::reduction::open_shop_to_coflow(shop);
    coflow::relax::solve_interval_lp(&inst).order
}

/// Exhaustively evaluates every permutation (for `n ≤ 10`) and returns the
/// best objective. With zero release dates this equals the true optimum by
/// the permutation-optimality theorem.
pub fn best_permutation_objective(shop: &OpenShopInstance) -> f64 {
    let n = shop.len();
    assert!(n <= 10, "factorial search capped at n = 10");
    let mut order: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut |perm| {
        let sched = permutation_schedule(shop, perm);
        if sched.objective < best {
            best = sched.objective;
        }
    });
    best
}

fn permute(order: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == order.len() {
        visit(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute(order, k + 1, visit);
        order.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;

    #[test]
    fn single_machine_wspt_is_optimal() {
        // Classic 1 | | sum wC: WSPT order is optimal.
        let shop = OpenShopInstance::new(
            1,
            vec![
                Job::new(0, vec![2]).with_weight(1.0),
                Job::new(1, vec![1]).with_weight(3.0),
                Job::new(2, vec![3]).with_weight(2.0),
            ],
        );
        let order = order_by_wspt_total(&shop);
        let sched = permutation_schedule(&shop, &order);
        assert_eq!(sched.objective, best_permutation_objective(&shop));
        assert_eq!(sched.objective, 17.0); // C1=1*3 + C2=4*2 + C0=6*1
    }

    #[test]
    fn job_completes_on_last_machine() {
        let shop = OpenShopInstance::new(2, vec![Job::new(0, vec![3, 5])]);
        let sched = permutation_schedule(&shop, &[0]);
        assert_eq!(sched.completions, vec![5]);
    }

    #[test]
    fn releases_stall_machines() {
        let shop = OpenShopInstance::new(
            1,
            vec![Job::new(0, vec![1]), Job::new(1, vec![1]).with_release(10)],
        );
        let sched = permutation_schedule(&shop, &[0, 1]);
        assert_eq!(sched.completions, vec![1, 11]);
    }

    #[test]
    fn zero_processing_machines_are_skipped() {
        // Machine 1 has p = 0 for job 0, so job 0 must not wait on it.
        let shop = OpenShopInstance::new(2, vec![Job::new(0, vec![2, 0]), Job::new(1, vec![0, 3])]);
        let sched = permutation_schedule(&shop, &[1, 0]);
        // They use disjoint machines: completions independent of order.
        assert_eq!(sched.completions, vec![2, 3]);
    }

    #[test]
    fn bottleneck_and_total_orders_differ() {
        let shop = OpenShopInstance::new(
            2,
            vec![
                Job::new(0, vec![4, 0]), // bottleneck 4, total 4
                Job::new(1, vec![3, 3]), // bottleneck 3, total 6
            ],
        );
        assert_eq!(order_by_wspt_bottleneck(&shop), vec![1, 0]);
        assert_eq!(order_by_wspt_total(&shop), vec![0, 1]);
    }

    #[test]
    fn interval_lp_order_is_near_optimal_on_small_shops() {
        let shop = OpenShopInstance::new(
            2,
            vec![
                Job::new(0, vec![4, 1]).with_weight(1.0),
                Job::new(1, vec![1, 1]).with_weight(2.0),
                Job::new(2, vec![2, 3]).with_weight(1.5),
            ],
        );
        let order = order_by_interval_lp(&shop);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        let sched = permutation_schedule(&shop, &order);
        let best = best_permutation_objective(&shop);
        // Wang–Cheng guarantee is 16/3; in practice it should be very close.
        assert!(
            sched.objective <= 16.0 / 3.0 * best,
            "LP order at {} vs optimum {}",
            sched.objective,
            best
        );
    }

    #[test]
    fn best_permutation_matches_coflow_exact_optimum() {
        // The Appendix A reduction: open shop optimum == coflow optimum on
        // the diagonal embedding (permutation schedules are optimal for
        // concurrent open shop).
        let shop = OpenShopInstance::new(
            2,
            vec![
                Job::new(0, vec![2, 1]).with_weight(1.0),
                Job::new(1, vec![1, 2]).with_weight(2.0),
            ],
        );
        let best = best_permutation_objective(&shop);
        let coflow_inst = crate::reduction::open_shop_to_coflow(&shop);
        let exact = coflow::sched::optimal::optimal_objective(&coflow_inst);
        assert_eq!(best, exact);
    }
}
