//! An online scheduler (extension).
//!
//! The paper's algorithms are offline: they solve an LP over the complete
//! instance before the first slot. Its conclusion highlights online
//! operation as the key open direction. This module implements the natural
//! online heuristic the paper's framework suggests: maintain a priority
//! order over *released, unfinished* coflows by the Smith-style ratio
//! `ρ(remaining demand) / weight` — the online analogue of `H_ρ` — and
//! re-sort whenever the order can change; serve a greedy matching in
//! priority order (work conserving, like the backfilled schedules), held
//! until the next event that can change it.
//!
//! The scheduler never looks at coflows before their release dates, so its
//! decisions are legitimately online. The implementation is
//! [`OnlineRhoPolicy`](super::engine::OnlineRhoPolicy), which the
//! registry's `online` entry builds; it re-sorts its priorities when a
//! coflow arrives and when one completes. Run it with
//! [`run_policy`](super::engine::run_policy), or under fault injection
//! with [`run_policy_with_faults`](super::engine::run_policy_with_faults):
//! the policy replans from live (post-fault) remaining demand at every
//! decision, so blocked units strand and are re-served when a path
//! reopens, and cancellations drop out of the active set. This module
//! holds the scheduler's tests.

#[cfg(test)]
mod tests {
    use crate::coflow::Coflow;
    use crate::instance::Instance;
    use crate::sched::engine::{run_policy, OnlineRhoPolicy};
    use crate::sched::ScheduleOutcome;
    use crate::verify::verify_outcome;
    use coflow_matching::IntMatrix;

    fn online(inst: &Instance) -> ScheduleOutcome {
        run_policy(inst, &mut OnlineRhoPolicy::new(inst)).unwrap()
    }

    fn validate(inst: &Instance, out: &ScheduleOutcome) {
        verify_outcome(inst, out).unwrap();
    }

    #[test]
    fn online_clears_a_single_coflow_optimally() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        );
        let out = online(&inst);
        assert_eq!(out.completions, vec![3]);
        validate(&inst, &out);
    }

    #[test]
    fn online_prioritizes_heavy_small_coflows() {
        let big = Coflow::new(0, IntMatrix::from_nested(&[[6, 0], [0, 0]]));
        let small = Coflow::new(1, IntMatrix::from_nested(&[[2, 0], [0, 0]])).with_weight(10.0);
        let inst = Instance::new(2, vec![big, small]);
        let out = online(&inst);
        validate(&inst, &out);
        assert!(out.completions[1] < out.completions[0]);
        assert_eq!(out.completions[1], 2);
    }

    #[test]
    fn online_reacts_to_late_arrivals() {
        // A big coflow starts alone; a tiny urgent one arrives at t = 2 and
        // preempts it on the shared pair.
        let big = Coflow::new(0, IntMatrix::from_nested(&[[10, 0], [0, 0]]));
        let urgent = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]]))
            .with_weight(100.0)
            .with_release(2);
        let inst = Instance::new(2, vec![big, urgent]);
        let out = online(&inst);
        validate(&inst, &out);
        assert_eq!(
            out.completions[1], 3,
            "urgent coflow served right after arrival"
        );
        assert_eq!(out.completions[0], 11);
    }

    #[test]
    fn online_never_schedules_before_release() {
        let c = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(5);
        let inst = Instance::new(2, vec![c]);
        let out = online(&inst);
        validate(&inst, &out);
        assert_eq!(out.completions, vec![6]);
    }

    #[test]
    fn completion_resort_fixes_stale_priorities() {
        // X hogs pair (0,0) for 8 slots (ratio 1, always head). U (ratio 2)
        // wants only (0,0): fully blocked behind X. S (initial ratio 6)
        // drains its bottleneck (1,1) in slots 1-6, leaving one unit on
        // (0,0) and a *remaining* ratio of 1, though no coflow arrives to
        // re-rank it. When X completes at slot 8, the completion re-sort
        // hands (0,0) to S, whose remaining ratio 1 now beats U's 2. A
        // scheduler that re-sorted on arrivals only would keep the stale
        // order U < S and finish at [8, 11, 12], objective 92.5.
        let x = Coflow::new(0, IntMatrix::from_nested(&[[8, 0], [0, 0]])).with_weight(8.0);
        let u = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 0]])).with_weight(1.5);
        let s = Coflow::new(2, IntMatrix::from_nested(&[[1, 0], [0, 6]]));
        let inst = Instance::new(2, vec![x, u, s]);
        let out = online(&inst);
        validate(&inst, &out);
        // S's single remaining unit goes first (ratio 1 < 2), then U.
        assert_eq!(out.completions, vec![8, 12, 9]);
        assert_eq!(out.objective, 91.0);
    }
}
