//! Decision-deadline watchdog with mid-run degradation.
//!
//! [`WatchdogPolicy`] wraps any of the four built-in policies (a *rung*)
//! and puts a wall-clock deadline on every [`Policy::decide`] call. A
//! breach triggers, in order:
//!
//! 1. **retry with backoff** — only on the [`ResilientPolicy`] rung, whose
//!    planning is stateless: the slow decision is discarded and re-solved
//!    with [`SimplexOptions::with_scaled_budgets`]-shrunk budgets (each
//!    retry multiplies by [`WatchdogConfig::backoff`]); stateful rungs keep
//!    their already-computed decision, which is still valid — only the
//!    breach is counted;
//! 2. **degradation** — after [`WatchdogConfig::attempts`] breaches on a
//!    rung, the watchdog drops mid-run to the next rung of the ladder
//!    `BvnBatch | Resilient → OnlineRho → Greedy(H_ρ)`, rebuilding the new
//!    rung from *live* remaining demand. The greedy rung is the floor:
//!    its decisions are a single matching scan, and further breaches only
//!    count.
//!
//! The ladder is orthogonal to the PR-1 planning chain `H_LP → H_ρ → H_A`
//! inside [`ResilientPolicy`]: that chain degrades *which order a plan
//! uses* within one planning epoch when solver budgets run out; this ladder
//! degrades *which policy plans at all* across epochs when wall-clock
//! deadlines are breached. Degradations are recorded in the outcome's tier
//! stream as `LADDER_TIER_BASE + degradations` so forensics can tell the
//! two mechanisms apart, plus obs counters
//! (`coflow.watchdog.{breaches,retries,degradations}`) and a
//! `coflow.watchdog.degrade` instant marker.
//!
//! A second, deadline-independent rescue: if the rung declares
//! [`Decision::Finished`] while non-cancelled demand survives (a planning
//! policy whose committed plan was invalidated by faults), the watchdog
//! degrades and re-decides instead of stopping the engine with undelivered
//! demand. This makes `BvnBatchPolicy` — which has no replanning story of
//! its own — survivable under fault injection.
//!
//! Determinism: with `deadline: None` the watchdog never fires and the run
//! is bit-identical to the bare rung; tests use `Some(Duration::ZERO)` to
//! fire on every decision deterministically.

use super::engine::{
    BvnBatchPolicy, Decision, EpochState, OnlineOptions, OnlineRhoPolicy, Policy, ResilientPolicy,
};
use super::ordered::GreedyPolicy;
use super::snapshot::PolicyState;
use crate::error::SchedError;
use crate::instance::Instance;
use crate::ordering::{compute_order, OrderRule};
use coflow_netsim::SnapshotError;
use std::time::{Duration, Instant};

/// Tier values `>= LADDER_TIER_BASE` in [`FaultyOutcome::tiers`] mark
/// watchdog degradations (`LADDER_TIER_BASE + degradations so far`),
/// disjoint from the 0/1/2 planning-chain tiers of [`ResilientPolicy`].
///
/// [`FaultyOutcome::tiers`]: super::recovery::FaultyOutcome::tiers
pub const LADDER_TIER_BASE: usize = 10;

/// Watchdog knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Wall-clock deadline per decision. `None` disables the watchdog
    /// entirely (the wrapper is then decision-transparent).
    pub deadline: Option<Duration>,
    /// Breaches tolerated on one rung before degrading (also the retry
    /// budget on the resilient rung). Clamped to at least 1.
    pub attempts: u32,
    /// Budget multiplier per resilient-rung retry, in `(0, 1]`; e.g. `0.5`
    /// halves `max_iterations` / `time_limit_ms` each retry.
    pub backoff: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline: None,
            attempts: 2,
            backoff: 0.5,
        }
    }
}

/// The current rung of the degradation ladder, held concretely so the
/// watchdog can retry the resilient solver with scaled budgets and
/// serialize rung state for checkpoints.
enum Rung {
    Bvn(Box<BvnBatchPolicy>),
    Resilient(ResilientPolicy),
    Online(OnlineRhoPolicy),
    Greedy(GreedyPolicy),
}

impl Rung {
    fn policy(&self) -> &dyn Policy {
        match self {
            Rung::Bvn(p) => p.as_ref(),
            Rung::Resilient(p) => p,
            Rung::Online(p) => p,
            Rung::Greedy(p) => p,
        }
    }

    fn policy_mut(&mut self) -> &mut dyn Policy {
        match self {
            Rung::Bvn(p) => p.as_mut(),
            Rung::Resilient(p) => p,
            Rung::Online(p) => p,
            Rung::Greedy(p) => p,
        }
    }

    /// The next rung down, rebuilt from live state; `None` at the floor.
    fn degraded(&self, state: &EpochState<'_>) -> Option<Rung> {
        match self {
            Rung::Bvn(_) | Rung::Resilient(_) => Some(Rung::Online(OnlineRhoPolicy::new(
                state.instance,
                OnlineOptions::default(),
            ))),
            Rung::Online(_) => {
                let order = compute_order(state.instance, OrderRule::LoadOverWeight);
                Some(Rung::Greedy(GreedyPolicy::new(state.instance, order)))
            }
            Rung::Greedy(_) => None,
        }
    }
}

/// A [`Policy`] adapter enforcing per-decision wall-clock deadlines with
/// retry/backoff and mid-run degradation (module docs for semantics).
pub struct WatchdogPolicy {
    config: WatchdogConfig,
    rung: Rung,
    degradations: u32,
    /// Breaches on the current rung; reset on degrade, cumulative within a
    /// rung (a rung that keeps breaching eventually degrades even if fast
    /// decisions are interleaved).
    breaches: u32,
}

impl WatchdogPolicy {
    /// Wraps the batch policy (ladder entry `BvnBatch`).
    pub fn over_bvn(config: WatchdogConfig, inner: BvnBatchPolicy) -> Self {
        WatchdogPolicy::from_rung(config, Rung::Bvn(Box::new(inner)))
    }

    /// Wraps the recovery policy (ladder entry `Resilient`).
    pub fn over_resilient(config: WatchdogConfig, inner: ResilientPolicy) -> Self {
        WatchdogPolicy::from_rung(config, Rung::Resilient(inner))
    }

    /// Wraps the online policy (ladder entry `OnlineRho`).
    pub fn over_online(config: WatchdogConfig, inner: OnlineRhoPolicy) -> Self {
        WatchdogPolicy::from_rung(config, Rung::Online(inner))
    }

    fn from_rung(config: WatchdogConfig, rung: Rung) -> Self {
        WatchdogPolicy {
            config,
            rung,
            degradations: 0,
            breaches: 0,
        }
    }

    /// Engine-ladder degradations taken so far.
    pub fn degradations(&self) -> u32 {
        self.degradations
    }

    /// Name of the rung currently deciding.
    pub fn rung_name(&self) -> &'static str {
        self.rung.policy().name()
    }

    /// Rebuilds a checkpointed watchdog around its rung's captured state.
    pub(crate) fn restore(
        instance: &Instance,
        config: WatchdogConfig,
        degradations: u32,
        breaches: u32,
        inner: &PolicyState,
    ) -> Result<Self, SnapshotError> {
        let rung = match inner {
            PolicyState::BvnBatch {
                order,
                batches,
                opts,
                b_idx,
                current,
            } => Rung::Bvn(Box::new(BvnBatchPolicy::restore(
                instance,
                order.clone(),
                batches.clone(),
                *opts,
                *b_idx,
                current.as_ref(),
            )?)),
            PolicyState::OnlineRho {
                resort_on_completion,
                next_event,
                active,
            } => Rung::Online(OnlineRhoPolicy::restore(
                instance,
                OnlineOptions {
                    resort_on_completion: *resort_on_completion,
                },
                *next_event,
                active.clone(),
            )?),
            PolicyState::Greedy { order } => {
                Rung::Greedy(GreedyPolicy::new(instance, order.clone()))
            }
            PolicyState::Resilient {
                spec,
                lp_opts,
                last_tier,
            } => Rung::Resilient(ResilientPolicy::restore(*spec, lp_opts.clone(), *last_tier)),
            PolicyState::Watchdog { .. } => {
                return Err(SnapshotError::new(
                    "watchdog state cannot nest another watchdog",
                ))
            }
            PolicyState::ShafieeGhaderi { .. } | PolicyState::ImPurohit { .. } => {
                // Not ladder rungs: the successor-paper policies checkpoint
                // standalone (PolicyState::rebuild), never under a watchdog.
                return Err(SnapshotError::new(
                    "watchdog rungs are bvn-batch/resilient/online-rho/greedy",
                ));
            }
        };
        Ok(WatchdogPolicy {
            config,
            rung,
            degradations,
            breaches,
        })
    }

    /// Drops to the next rung, rebuilt from live remaining demand. Returns
    /// false at the ladder floor (greedy keeps deciding; breaches only
    /// count).
    fn degrade(&mut self, state: &EpochState<'_>) -> bool {
        let Some(next) = self.rung.degraded(state) else {
            return false;
        };
        self.rung.policy_mut().finish();
        self.rung = next;
        self.degradations += 1;
        self.breaches = 0;
        obs::counter_add("coflow.watchdog.degradations", 1);
        obs::instant("coflow.watchdog.degrade");
        true
    }

    /// True when some non-cancelled coflow still has demand to deliver.
    fn demand_survives(state: &EpochState<'_>) -> bool {
        (0..state.instance.len()).any(|k| !state.is_cancelled(k) && state.remaining_total(k) > 0)
    }
}

impl Policy for WatchdogPolicy {
    fn name(&self) -> &'static str {
        "watchdog"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        loop {
            let start = Instant::now();
            let decision = self.rung.policy_mut().decide(state)?;
            let breached = self.config.deadline.is_some_and(|d| start.elapsed() > d);
            if breached {
                self.breaches += 1;
                obs::counter_add("coflow.watchdog.breaches", 1);
                if self.breaches < self.config.attempts.max(1) {
                    if let Rung::Resilient(p) = &mut self.rung {
                        // Stateless planning: discard the slow plan and
                        // re-solve under shrunk budgets.
                        p.scale_budgets(self.config.backoff);
                        obs::counter_add("coflow.watchdog.retries", 1);
                        continue;
                    }
                    // Stateful rung: the decision is valid, keep it; the
                    // breach is banked toward degradation.
                } else if self.degrade(state) {
                    // Mid-run degradation: the new rung re-decides from
                    // live state this same epoch.
                    continue;
                }
            }
            if matches!(decision, Decision::Finished) && Self::demand_survives(state) {
                // The rung's plan is exhausted but demand survives (fault
                // fallout a non-replanning policy cannot see). Degrading is
                // the rescue; at the floor this cannot happen — greedy only
                // finishes via the engine's all-settled check.
                if self.degrade(state) {
                    continue;
                }
            }
            return Ok(decision);
        }
    }

    fn tier(&self) -> usize {
        if self.degradations == 0 {
            self.rung.policy().tier()
        } else {
            LADDER_TIER_BASE + self.degradations as usize
        }
    }

    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        self.rung.policy().final_order(completions)
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.rung.policy_mut().recycle(pairs);
    }

    fn finish(&mut self) {
        self.rung.policy_mut().finish();
    }

    fn capture_state(&self) -> Option<PolicyState> {
        let inner = self.rung.policy().capture_state()?;
        Some(PolicyState::Watchdog {
            deadline_us: self.config.deadline.map(|d| d.as_micros() as u64),
            attempts: self.config.attempts,
            backoff: self.config.backoff,
            degradations: self.degradations,
            breaches: self.breaches,
            inner: Box::new(inner),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::engine::run_policy_with_faults;
    use super::super::{AlgorithmSpec, ExecOptions};
    use super::*;
    use crate::coflow::Coflow;
    use crate::grouping::group_by_doubling;
    use coflow_lp::SimplexOptions;
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
    fn disabled_watchdog_is_transparent() {
        let instance = inst();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 2,
            end: 4,
        }]);
        let mut bare = ResilientPolicy::new(AlgorithmSpec::algorithm2(), SimplexOptions::default());
        let bare_out = run_policy_with_faults(&instance, &mut bare, &plan).unwrap();
        let mut wrapped = WatchdogPolicy::over_resilient(
            WatchdogConfig::default(),
            ResilientPolicy::new(AlgorithmSpec::algorithm2(), SimplexOptions::default()),
        );
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        assert_eq!(out.objective.to_bits(), bare_out.objective.to_bits());
        assert_eq!(out.replans, bare_out.replans);
        assert_eq!(out.tiers, bare_out.tiers);
        assert_eq!(wrapped.degradations(), 0);
    }

    #[test]
    fn zero_deadline_degrades_to_the_floor() {
        let instance = inst();
        let plan = FaultPlan::new(vec![]);
        let mut wrapped = WatchdogPolicy::over_resilient(
            WatchdogConfig {
                deadline: Some(Duration::ZERO),
                attempts: 2,
                backoff: 0.5,
            },
            ResilientPolicy::new(AlgorithmSpec::algorithm2(), SimplexOptions::default()),
        );
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        // Every decision breaches: resilient retries then degrades to
        // online, online banks breaches then degrades to greedy.
        assert_eq!(wrapped.degradations(), 2);
        assert_eq!(wrapped.rung_name(), "greedy");
        // All demand still completes.
        assert!(out.completions.iter().all(|c| c.is_some()));
        // Ladder tiers are recorded past the base.
        assert!(out.tiers.iter().any(|&t| t >= LADDER_TIER_BASE));
    }

    #[test]
    fn finished_rescue_saves_bvn_under_cancellation_faults() {
        // A mid-run outage stalls the committed BvN plan; the bare policy
        // would declare Finished with surviving demand (an engine panic in
        // debug). The watchdog rescues by degrading to online.
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
        let mut wrapped =
            WatchdogPolicy::over_bvn(WatchdogConfig::default(), bvn_policy(&instance));
        let out = run_policy_with_faults(&instance, &mut wrapped, &plan).unwrap();
        assert!(out.completions.iter().all(|c| c.is_some()));
    }

    #[test]
    fn checkpoint_state_round_trips() {
        let instance = inst();
        let config = WatchdogConfig {
            deadline: Some(Duration::from_millis(250)),
            attempts: 3,
            backoff: 0.25,
        };
        let wrapped = WatchdogPolicy::over_online(
            config,
            OnlineRhoPolicy::new(&instance, OnlineOptions::default()),
        );
        let state = wrapped.capture_state().unwrap();
        let rebuilt = state.rebuild(&instance).unwrap();
        assert_eq!(rebuilt.name(), "watchdog");
        let PolicyState::Watchdog {
            deadline_us,
            attempts,
            ..
        } = state
        else {
            panic!("wrong state kind");
        };
        assert_eq!(deadline_us, Some(250_000));
        assert_eq!(attempts, 3);
    }
}
