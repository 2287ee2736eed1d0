//! Fixed-order schedulers: a committed coflow permutation served by one
//! shared work-conserving dispatcher.
//!
//! Three policies factor as *permutation + work-conserving service*:
//!
//! * [`GreedyPolicy`] — the priority-greedy baseline (in the spirit of
//!   Varys) over a caller-supplied order.
//! * [`ShafieeGhaderiPolicy`] — the LP-free combinatorial algorithm of
//!   Shafiee & Ghaderi (arXiv:1704.08357, 5-approximation): a primal-dual
//!   sweep over the 2m port loads builds the coflow permutation from the
//!   back (most-loaded port first, cheapest coflow last), with no LP
//!   solve anywhere. The permutation is exactly
//!   [`OrderRule::PortPrimalDual`] (`H_pd`).
//! * [`ImPurohitPolicy`] — the tight 4-approximation of Im & Purohit
//!   (arXiv:1707.04331): coflows are ordered by their fractional
//!   completion times in the interval-indexed LP relaxation (the same
//!   relaxation the paper's Algorithm 2 rounds), then served in that
//!   fixed priority order. The permutation is [`OrderRule::LpBased`]
//!   (`H_LP`).
//!
//! Service is the shared `OrderedDispatch`: released unfinished coflows
//! are scanned in the committed permutation and free (ingress, egress)
//! pairs matched greedily — the engine's priority-greedy discipline,
//! which is work-conserving and preemptive at slot granularity, as both
//! successor papers assume. Each matching is held until the next event
//! that can change it (`hold`), which schedules exactly what
//! re-matching every slot would. The permutations are the papers'
//! contributions; the approximation bounds (5 and 4, vs the interval-LP
//! lower bound) are asserted empirically by the bench crate's tournament
//! tests.
//!
//! All three reread remaining demand live from [`EpochState`], so they
//! react to faults (stranded units are rescanned, cancellations leave the
//! scan) and run unchanged under
//! [`run_policy_with_faults`](super::engine::run_policy_with_faults). The
//! registry builds each by name (`greedy`, `shafiee-ghaderi`,
//! `im-purohit`); there is no per-policy entry point beside the engine's.
//! Planning state is just the committed permutation, captured in
//! [`PolicyState::Greedy`] / [`PolicyState::ShafieeGhaderi`] /
//! [`PolicyState::ImPurohit`], so the checkpoint/watchdog machinery
//! applies verbatim.

use crate::error::SchedError;
use crate::instance::Instance;
use crate::ordering::{compute_order, OrderRule};
use crate::sched::engine::{hold, Decision, EpochState, FlowMatcher, Policy};
use crate::sched::snapshot::PolicyState;

/// The shared fixed-order dispatcher: a committed coflow permutation
/// served work-conservingly. Each decision greedily matches the released
/// unfinished coflows in permutation order and holds the matching until
/// the next event that can change it; the owning policy supplies the
/// permutation and the snapshot identity.
struct OrderedDispatch {
    order: Vec<usize>,
    /// `order` without the coflows already settled (drained or
    /// cancelled), compacted as they settle. Derived state: a restored
    /// dispatcher starts again from `order`.
    live: Vec<usize>,
    /// `(release, coflow)` in time order; `next_release` indexes the first
    /// one after the current time.
    releases: Vec<(u64, usize)>,
    next_release: usize,
    matcher: FlowMatcher,
}

impl OrderedDispatch {
    fn new(instance: &Instance, order: Vec<usize>) -> Self {
        let mut releases: Vec<(u64, usize)> = instance.releases().into_iter().zip(0..).collect();
        releases.sort_unstable();
        OrderedDispatch {
            live: order.clone(),
            order,
            releases,
            next_release: 0,
            matcher: FlowMatcher::new(instance),
        }
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Decision {
        let now = state.now;
        self.matcher.retain_unsettled(&mut self.live, state);
        while self
            .releases
            .get(self.next_release)
            .is_some_and(|&(r, _)| r <= now)
        {
            self.next_release += 1;
        }
        // The next release of a coflow with demand: the next event that
        // can add a candidate.
        let next_release = self.releases[self.next_release..]
            .iter()
            .find(|&&(_, k)| state.remaining_total(k) > 0)
            .map(|&(r, _)| r);
        let instance = state.instance;
        let (pairs, min_remaining) = self.matcher.matching(
            state,
            self.live
                .iter()
                .copied()
                .filter(|&k| instance.coflow(k).release <= now),
        );
        if pairs.is_empty() {
            self.matcher.recycle(pairs);
            // Nothing servable now: all remaining demand is strictly
            // future (a released coflow would have matched on the free
            // fabric), so jump to the next release instead of spinning.
            let next_release = next_release
                .unwrap_or_else(|| unreachable!("unfinished demand must have a future release"));
            return Decision::Advance(next_release);
        }
        Decision::Run {
            pairs,
            duration: hold(state, min_remaining, next_release.unwrap_or(u64::MAX)),
        }
    }
}

// ---------------------------------------------------------------------------
// Greedy: the priority-greedy baseline over a caller-supplied order.
// ---------------------------------------------------------------------------

/// The work-conserving greedy baseline (in the spirit of Varys): the
/// shared dispatcher over the committed order it is given. Never plans
/// ahead, so it wastes no capacity on augmentation but offers no
/// worst-case guarantee.
pub struct GreedyPolicy {
    core: OrderedDispatch,
}

impl GreedyPolicy {
    /// Builds the policy with the given committed coflow order.
    pub fn new(instance: &Instance, order: Vec<usize>) -> Self {
        GreedyPolicy {
            core: OrderedDispatch::new(instance, order),
        }
    }
}

impl Policy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        Ok(self.core.decide(state))
    }

    fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
        self.core.order.clone()
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.core.matcher.recycle(pairs);
    }

    fn capture_state(&self) -> Option<PolicyState> {
        Some(PolicyState::Greedy {
            order: self.core.order.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Shafiee–Ghaderi: LP-free primal-dual permutation (5-approx).
// ---------------------------------------------------------------------------

/// The Shafiee–Ghaderi combinatorial scheduler: `H_pd` primal-dual
/// permutation over port loads, served work-conservingly. No LP solve —
/// ordering is `O(n·m + n²)` over the port-load table.
pub struct ShafieeGhaderiPolicy {
    core: OrderedDispatch,
}

impl ShafieeGhaderiPolicy {
    /// Builds the policy, computing the primal-dual permutation.
    pub fn new(instance: &Instance) -> Self {
        Self::with_order(instance, compute_order(instance, OrderRule::PortPrimalDual))
    }

    /// Builds the policy around an externally supplied (e.g. checkpointed)
    /// permutation, skipping the primal-dual sweep.
    pub fn with_order(instance: &Instance, order: Vec<usize>) -> Self {
        ShafieeGhaderiPolicy {
            core: OrderedDispatch::new(instance, order),
        }
    }
}

impl Policy for ShafieeGhaderiPolicy {
    fn name(&self) -> &'static str {
        "shafiee-ghaderi"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        Ok(self.core.decide(state))
    }

    fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
        self.core.order.clone()
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.core.matcher.recycle(pairs);
    }

    fn capture_state(&self) -> Option<PolicyState> {
        Some(PolicyState::ShafieeGhaderi {
            order: self.core.order.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Im–Purohit: LP-completion-time permutation (4-approx).
// ---------------------------------------------------------------------------

/// The Im–Purohit scheduler: coflows ordered by fractional completion
/// times of the interval-indexed LP relaxation, served work-conservingly
/// in that fixed priority order.
pub struct ImPurohitPolicy {
    core: OrderedDispatch,
}

impl ImPurohitPolicy {
    /// Builds the policy, solving the interval-indexed LP for the order.
    pub fn new(instance: &Instance) -> Self {
        Self::with_order(instance, compute_order(instance, OrderRule::LpBased))
    }

    /// Builds the policy around an externally supplied (e.g. checkpointed
    /// or pre-solved) permutation, skipping the LP solve.
    pub fn with_order(instance: &Instance, order: Vec<usize>) -> Self {
        ImPurohitPolicy {
            core: OrderedDispatch::new(instance, order),
        }
    }
}

impl Policy for ImPurohitPolicy {
    fn name(&self) -> &'static str {
        "im-purohit"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        Ok(self.core.decide(state))
    }

    fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
        self.core.order.clone()
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.core.matcher.recycle(pairs);
    }

    fn capture_state(&self) -> Option<PolicyState> {
        Some(PolicyState::ImPurohit {
            order: self.core.order.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::sched::engine::{run_policy, run_policy_with_faults};
    use crate::sched::ScheduleOutcome;
    use crate::verify::verify_outcome;
    use coflow_matching::IntMatrix;
    use coflow_netsim::FaultPlan;

    fn shafiee_ghaderi(inst: &Instance) -> ScheduleOutcome {
        run_policy(inst, &mut ShafieeGhaderiPolicy::new(inst)).unwrap()
    }

    fn im_purohit(inst: &Instance) -> ScheduleOutcome {
        run_policy(inst, &mut ImPurohitPolicy::new(inst)).unwrap()
    }

    fn validate(inst: &Instance, out: &ScheduleOutcome) {
        verify_outcome(inst, out).unwrap();
    }

    fn dense_instance() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_release(3);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn shafiee_ghaderi_validates_and_is_work_conserving() {
        let inst = dense_instance();
        let out = shafiee_ghaderi(&inst);
        validate(&inst, &out);
        // The committed order is the primal-dual permutation.
        assert_eq!(out.order, compute_order(&inst, OrderRule::PortPrimalDual));
    }

    #[test]
    fn im_purohit_validates_and_uses_the_lp_order() {
        let inst = dense_instance();
        let out = im_purohit(&inst);
        validate(&inst, &out);
        assert_eq!(out.order, compute_order(&inst, OrderRule::LpBased));
    }

    #[test]
    fn lone_coflow_completes_at_its_load_under_both() {
        // Lemma-4 analog: a lone coflow finishes in exactly rho slots.
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        );
        assert_eq!(shafiee_ghaderi(&inst).completions, vec![3]);
        assert_eq!(im_purohit(&inst).completions, vec![3]);
    }

    #[test]
    fn both_policies_survive_fault_injection() {
        use crate::sched::recovery::verify_faulty_outcome;
        let inst = dense_instance();
        let horizon = shafiee_ghaderi(&inst).makespan().max(8);
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, 0.4, 13);
        let sg = run_policy_with_faults(&inst, &mut ShafieeGhaderiPolicy::new(&inst), &plan);
        verify_faulty_outcome(&inst, &plan, &sg.unwrap()).unwrap();
        let ip = run_policy_with_faults(&inst, &mut ImPurohitPolicy::new(&inst), &plan);
        verify_faulty_outcome(&inst, &plan, &ip.unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_state_round_trips_through_rebuild() {
        let inst = dense_instance();
        let policy = ShafieeGhaderiPolicy::new(&inst);
        let state = policy.capture_state().unwrap();
        let rebuilt = state.rebuild(&inst).unwrap();
        assert_eq!(rebuilt.name(), "shafiee-ghaderi");
        let policy = ImPurohitPolicy::new(&inst);
        let state = policy.capture_state().unwrap();
        let rebuilt = state.rebuild(&inst).unwrap();
        assert_eq!(rebuilt.name(), "im-purohit");
    }
}
