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
//! decisions are legitimately online. The implementation lives in
//! [`engine::OnlineRhoPolicy`]; these entry points are shims over the
//! engine, which also makes the online scheduler composable with fault
//! injection ([`run_online_with_faults`]).

use crate::instance::Instance;
use crate::sched::engine::{
    run_policy, run_policy_with_faults, OnlineOptions, OnlineRhoPolicy,
};
use crate::sched::recovery::FaultyOutcome;
use crate::sched::ScheduleOutcome;
use coflow_netsim::{FaultPlan, SimError};

/// Runs the online ρ/w-priority scheduler with default options
/// (priorities re-sorted at completion epochs as well as arrivals; use
/// [`OnlineOptions::legacy`] via [`run_online_opts`] for the historical
/// arrival-only behavior).
pub fn run_online(instance: &Instance) -> ScheduleOutcome {
    run_online_opts(instance, OnlineOptions::default())
}

/// Runs the online ρ/w-priority scheduler with explicit options.
pub fn run_online_opts(instance: &Instance, opts: OnlineOptions) -> ScheduleOutcome {
    let mut policy = OnlineRhoPolicy::new(instance, opts);
    match run_policy(instance, &mut policy) {
        Ok(out) => out,
        Err(e) => unreachable!("online policy is infallible: {}", e),
    }
}

/// Runs the online scheduler under fault injection: the policy replans
/// from live (post-fault) remaining demand at every decision, so no separate
/// recovery logic is needed — blocked units strand and are re-served when
/// a path reopens, and cancellations drop out of the active set.
pub fn run_online_with_faults(
    instance: &Instance,
    opts: OnlineOptions,
    plan: &FaultPlan,
) -> Result<FaultyOutcome, SimError> {
    let mut policy = OnlineRhoPolicy::new(instance, opts);
    run_policy_with_faults(instance, &mut policy, plan).map_err(|e| e.into_sim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_matching::IntMatrix;
    use coflow_netsim::validate_trace;

    fn validate(inst: &Instance, out: &ScheduleOutcome) {
        let times =
            validate_trace(inst.demands(), &inst.releases(), &out.trace).unwrap();
        assert_eq!(times, out.completions);
    }

    #[test]
    fn online_clears_a_single_coflow_optimally() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        );
        let out = run_online(&inst);
        assert_eq!(out.completions, vec![3]);
        validate(&inst, &out);
    }

    #[test]
    fn online_prioritizes_heavy_small_coflows() {
        let big = Coflow::new(0, IntMatrix::from_nested(&[[6, 0], [0, 0]]));
        let small = Coflow::new(1, IntMatrix::from_nested(&[[2, 0], [0, 0]])).with_weight(10.0);
        let inst = Instance::new(2, vec![big, small]);
        let out = run_online(&inst);
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
        let out = run_online(&inst);
        validate(&inst, &out);
        assert_eq!(out.completions[1], 3, "urgent coflow served right after arrival");
        assert_eq!(out.completions[0], 11);
    }

    #[test]
    fn online_never_schedules_before_release() {
        let c = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(5);
        let inst = Instance::new(2, vec![c]);
        let out = run_online(&inst);
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
        let legacy = run_online_opts(&inst, OnlineOptions::legacy());
        let fixed = run_online_opts(&inst, OnlineOptions::default());
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
