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
//! [`OnlineRhoPolicy`](super::engine::OnlineRhoPolicy); the registry's
//! `online` entry builds it with the default
//! [`OnlineOptions`](super::engine::OnlineOptions) (priorities re-sorted
//! at completion epochs as well as arrivals) and `online-stale` with
//! `OnlineOptions::legacy()` (arrival-only re-sort). Run it with
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
    use crate::sched::engine::{run_policy, OnlineOptions, OnlineRhoPolicy};
    use crate::sched::ScheduleOutcome;
    use coflow_matching::IntMatrix;
    use coflow_netsim::validate_trace;

    fn online_with(inst: &Instance, opts: OnlineOptions) -> ScheduleOutcome {
        run_policy(inst, &mut OnlineRhoPolicy::new(inst, opts)).unwrap()
    }

    fn online(inst: &Instance) -> ScheduleOutcome {
        online_with(inst, OnlineOptions::default())
    }

    fn validate(inst: &Instance, out: &ScheduleOutcome) {
        let times = validate_trace(inst.demands(), &inst.releases(), &out.trace).unwrap();
        assert_eq!(times, out.completions);
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
        // (0,0) and a *remaining* ratio of 1 — but the legacy scheduler
        // never re-ranks it because no coflow arrives. When X completes at
        // slot 8, legacy hands (0,0) to U (stale order U < S) while the
        // completion re-sort correctly hands it to S, whose remaining
        // ratio 1 now beats U's 2.
        let x = Coflow::new(0, IntMatrix::from_nested(&[[8, 0], [0, 0]])).with_weight(8.0);
        let u = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 0]])).with_weight(1.5);
        let s = Coflow::new(2, IntMatrix::from_nested(&[[1, 0], [0, 6]]));
        let inst = Instance::new(2, vec![x, u, s]);
        let legacy = online_with(&inst, OnlineOptions::legacy());
        let fixed = online_with(&inst, OnlineOptions::default());
        validate(&inst, &legacy);
        validate(&inst, &fixed);
        // Legacy: U gets slots 9-11, S's last unit waits until 12.
        assert_eq!(legacy.completions, vec![8, 11, 12]);
        // Fixed: S's single remaining unit goes first (ratio 1 < 2), then U.
        assert_eq!(fixed.completions, vec![8, 12, 9]);
        assert!(
            fixed.objective < legacy.objective,
            "completion re-sort must win on this instance: {} vs {}",
            fixed.objective,
            legacy.objective
        );
    }
}
