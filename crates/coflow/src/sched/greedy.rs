//! Priority-greedy slot-by-slot baseline (extension).
//!
//! A work-conserving heuristic in the spirit of Varys: every slot, scan
//! coflows in priority order and greedily match any free (ingress, egress)
//! pair with remaining demand. Unlike the BvN-based schedulers it never
//! plans ahead, so it wastes no capacity on augmentation but offers no
//! worst-case guarantee. Used as an additional comparison point in the
//! experiment harness.
//!
//! The implementation is [`GreedyPolicy`](super::ordered::GreedyPolicy);
//! the registry's `greedy` entry builds it over the `H_ρ` order. Run it
//! with [`run_policy`](super::engine::run_policy), or under fault
//! injection with
//! [`run_policy_with_faults`](super::engine::run_policy_with_faults): the
//! per-slot rescan replans from live (post-fault) remaining demand, so
//! stranded units are re-served when a path reopens and cancellations
//! simply leave the scan. This module holds the baseline's tests.

#[cfg(test)]
mod tests {
    use crate::coflow::Coflow;
    use crate::instance::Instance;
    use crate::ordering::{compute_order, OrderRule};
    use crate::sched::engine::run_policy;
    use crate::sched::ordered::GreedyPolicy;
    use crate::sched::ScheduleOutcome;
    use crate::verify::verify_outcome;
    use coflow_matching::IntMatrix;

    fn greedy(inst: &Instance, order: Vec<usize>) -> ScheduleOutcome {
        run_policy(inst, &mut GreedyPolicy::new(inst, order)).unwrap()
    }

    #[test]
    fn greedy_clears_fig1_in_three_slots() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        );
        let out = greedy(&inst, vec![0]);
        assert_eq!(out.completions, vec![3]);
        verify_outcome(&inst, &out).unwrap();
    }

    #[test]
    fn greedy_is_work_conserving_across_coflows() {
        // c0 on pair (0,0), c1 on pair (1,1): both served in slot 1.
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 0], [0, 1]]));
        let inst = Instance::new(2, vec![c0, c1]);
        let out = greedy(&inst, vec![0, 1]);
        assert_eq!(out.completions, vec![1, 1]);
    }

    #[test]
    fn greedy_respects_releases_and_skips_idle_gaps() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(100);
        let inst = Instance::new(2, vec![c0, c1]);
        let out = greedy(&inst, vec![0, 1]);
        assert_eq!(out.completions, vec![1, 101]);
        verify_outcome(&inst, &out).unwrap();
    }

    #[test]
    fn greedy_validates_on_dense_instance() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]])).with_weight(2.0);
        let inst = Instance::new(2, vec![c0, c1]);
        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        let out = greedy(&inst, order);
        verify_outcome(&inst, &out).unwrap();
    }
}
