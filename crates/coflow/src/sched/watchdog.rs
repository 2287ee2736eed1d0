//! The *Finished rescue*: a batch plan that hands over when faults leave
//! it short.
//!
//! [`WatchdogPolicy`] wraps a [`BvnBatchPolicy`], which executes a
//! committed plan and never replans. Under faults its plan can run out
//! while units it planned were blocked: it then declares
//! [`Decision::Finished`] with non-cancelled demand left. The watchdog
//! catches that declaration and hands over, for the rest of the run, to an
//! [`OnlineRhoPolicy`] built from the live remaining demand, which decides
//! in the same epoch. The online policy never finishes while demand is
//! left, so the rescue fires at most once.
//!
//! Until the rescue the wrapper is transparent: every decision and tier is
//! the batch policy's. After it, the tier is `LADDER_TIER_BASE + 1`,
//! disjoint from the 0/1/2 planning-chain tiers of
//! [`ResilientPolicy`](super::engine::ResilientPolicy). The change of tier
//! opens a planning epoch, so the outcome's tier stream records the rescue
//! even after the last fault window, and every epoch charged from then on
//! carries the new tier. The rescue is also marked by the obs counter
//! `coflow.watchdog.degradations` and a `coflow.watchdog.degrade` instant.

use super::engine::{BvnBatchPolicy, Decision, EpochState, OnlineRhoPolicy, Policy};
use super::snapshot::PolicyState;
use crate::error::SchedError;

/// Tier values `>= LADDER_TIER_BASE` in [`FaultyOutcome::tiers`] mark the
/// watchdog's rescue (`LADDER_TIER_BASE + 1` from then on), disjoint from
/// the 0/1/2 planning-chain tiers of
/// [`ResilientPolicy`](super::engine::ResilientPolicy).
///
/// [`FaultyOutcome::tiers`]: super::recovery::FaultyOutcome::tiers
pub const LADDER_TIER_BASE: usize = 10;

/// A [`Policy`] adapter that rescues a [`BvnBatchPolicy`] whose plan
/// finishes with demand left (module docs).
pub struct WatchdogPolicy {
    /// The deciding policy: the batch plan until the rescue, the online
    /// policy after it.
    inner: Box<dyn Policy>,
    rescued: bool,
}

impl WatchdogPolicy {
    /// Wraps the batch policy.
    pub fn over_bvn(inner: BvnBatchPolicy) -> Self {
        WatchdogPolicy {
            inner: Box::new(inner),
            rescued: false,
        }
    }

    /// A checkpointed watchdog around its rebuilt deciding policy: the
    /// batch plan, or the online policy once `rescued`.
    pub(crate) fn restored(inner: Box<dyn Policy>, rescued: bool) -> Self {
        WatchdogPolicy { inner, rescued }
    }
}

/// True when some non-cancelled coflow still has demand to deliver.
fn demand_survives(state: &EpochState<'_>) -> bool {
    (0..state.instance.len()).any(|k| !state.is_cancelled(k) && state.remaining_total(k) > 0)
}

impl Policy for WatchdogPolicy {
    fn name(&self) -> &'static str {
        "watchdog"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let decision = self.inner.decide(state)?;
        if self.rescued || !matches!(decision, Decision::Finished) || !demand_survives(state) {
            return Ok(decision);
        }
        // The plan ran out with demand left (units it planned were blocked
        // by faults it cannot see): the online policy takes over from live
        // state and decides this same epoch.
        let online = OnlineRhoPolicy::new(state.instance);
        self.inner.finish();
        self.inner = Box::new(online);
        self.rescued = true;
        obs::counter_add("coflow.watchdog.degradations", 1);
        obs::instant("coflow.watchdog.degrade");
        self.inner.decide(state)
    }

    fn tier(&self) -> usize {
        if self.rescued {
            LADDER_TIER_BASE + 1
        } else {
            self.inner.tier()
        }
    }

    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        self.inner.final_order(completions)
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.inner.recycle(pairs);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn capture_state(&self) -> Option<PolicyState> {
        Some(PolicyState::Watchdog {
            degradations: u64::from(self.rescued),
            inner: Box::new(self.inner.capture_state()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::engine::run_policy_with_faults;
    use super::super::ExecOptions;
    use super::*;
    use crate::coflow::Coflow;
    use crate::grouping::group_by_doubling;
    use crate::instance::Instance;
    use crate::ordering::{compute_order, OrderRule};
    use coflow_matching::IntMatrix;
    use coflow_netsim::{FaultEvent, FaultPlan};

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]]))
            .with_weight(0.5)
            .with_release(3);
        Instance::new(2, vec![c0, c1, c2])
    }

    fn bvn_policy(instance: &Instance) -> BvnBatchPolicy {
        let order = compute_order(instance, OrderRule::LoadOverWeight);
        let batches = group_by_doubling(instance, &order).groups;
        BvnBatchPolicy::new(instance, order, batches, ExecOptions::default())
    }

    #[test]
    fn watchdog_without_a_rescue_is_transparent() {
        // An outage that opens after the last planned slot blocks nothing,
        // so the plan never finishes with demand left.
        let instance = inst();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 40,
            end: 44,
        }]);
        let mut bare = bvn_policy(&instance);
        let bare_out = run_policy_with_faults(&instance, &mut bare, &plan).unwrap();
        let mut wrapped = WatchdogPolicy::over_bvn(bvn_policy(&instance));
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        assert_eq!(out.objective.to_bits(), bare_out.objective.to_bits());
        assert_eq!(out.executed, bare_out.executed);
        assert_eq!(out.replans, bare_out.replans);
        assert_eq!(out.tiers, bare_out.tiers);
        assert!(out.tiers.iter().all(|&t| t < LADDER_TIER_BASE));
    }

    #[test]
    fn finished_rescue_saves_bvn_under_cancellation_faults() {
        // A mid-run outage stalls the committed BvN plan; the bare policy
        // would declare Finished with surviving demand (an engine panic in
        // debug). The watchdog rescues by handing over to online.
        let instance = inst();
        let plan = FaultPlan::new(vec![
            FaultEvent::IngressOutage {
                port: 1,
                start: 1,
                end: 6,
            },
            FaultEvent::EgressOutage {
                port: 0,
                start: 2,
                end: 5,
            },
        ]);
        let mut wrapped = WatchdogPolicy::over_bvn(bvn_policy(&instance));
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        assert!(out.completions.iter().all(|c| c.is_some()));
        assert_eq!(out.tiers.last(), Some(&(LADDER_TIER_BASE + 1)));
    }

    #[test]
    fn a_rescue_after_the_last_fault_window_is_a_planning_epoch() {
        // Ingress 0 is down in slot 1 only: the unit the plan holds there
        // is blocked, and the fault state never changes after slot 2, long
        // before the plan runs out and the rescue fires.
        let instance = inst();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 1,
            end: 1,
        }]);
        let mut wrapped = WatchdogPolicy::over_bvn(bvn_policy(&instance));
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        assert_eq!(wrapped.tier(), LADDER_TIER_BASE + 1, "the rescue fired");
        assert!(out.executed.makespan() > 2);
        assert_eq!(out.tiers.len(), out.replans);
        let rescued = out.tiers.iter().filter(|&&t| t == LADDER_TIER_BASE + 1);
        assert_eq!(rescued.count(), 1, "{:?}", out.tiers);
        assert_eq!(out.tiers.last(), Some(&(LADDER_TIER_BASE + 1)));
    }

    #[test]
    fn checkpoint_state_round_trips() {
        let instance = inst();
        for rescued in [false, true] {
            let wrapped = if rescued {
                WatchdogPolicy::restored(Box::new(OnlineRhoPolicy::new(&instance)), true)
            } else {
                WatchdogPolicy::over_bvn(bvn_policy(&instance))
            };
            let state = wrapped.capture_state().unwrap();
            let rebuilt = state.rebuild(&instance).unwrap();
            assert_eq!(rebuilt.name(), "watchdog");
            assert_eq!(rebuilt.tier(), wrapped.tier());
            let PolicyState::Watchdog {
                degradations,
                inner,
            } = state
            else {
                panic!("wrong state kind");
            };
            assert_eq!(degradations, u64::from(rescued));
            assert_eq!(
                matches!(*inner, PolicyState::OnlineRho { .. }),
                rescued,
                "the inner state is the deciding rung's"
            );
        }
    }
}
