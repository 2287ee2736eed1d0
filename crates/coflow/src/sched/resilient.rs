//! Fault-tolerant ordering stage: the fallback chain `H_LP → H_ρ → H_A`.
//!
//! The LP-based order is the only fallible tier of the pipeline — the
//! simplex solve behind it can exhaust its pivot or wall-clock budget,
//! stall, or fail numerical health checks. Rather than panicking, the
//! resilient runner degrades through an explicit chain of ordering rules
//! and records which tier actually produced the schedule, so experiment
//! harnesses can report degradation counts and the TWCT cost of falling
//! back.

use super::{plan_with_order_until, run_with_order, AlgorithmSpec, ExecOptions, ScheduleOutcome};
use crate::error::SchedError;
use crate::instance::Instance;
use crate::ordering::{try_compute_order_with, OrderRule};
use coflow_lp::SimplexOptions;
use coflow_netsim::ScheduleTrace;
use std::time::{Duration, Instant};

/// One failed tier of the fallback chain: which rule ran, the error it
/// raised, and how long the attempt took before failing — the wall-clock
/// cost of degradation, which budget tuning needs and error types alone
/// cannot convey.
#[derive(Clone, Debug)]
pub struct FailedAttempt {
    /// The ordering rule this tier tried.
    pub rule: OrderRule,
    /// The error that rejected it.
    pub error: SchedError,
    /// Wall-clock time spent on the attempt before it failed.
    pub elapsed: Duration,
}

/// A schedule produced by [`run_resilient`], annotated with provenance:
/// which rule was requested, which one actually ran, and every failure
/// absorbed along the way.
#[derive(Clone, Debug)]
pub struct ResilientOutcome {
    /// The schedule from the first tier that succeeded.
    pub outcome: ScheduleOutcome,
    /// The rule the caller asked for.
    pub requested: OrderRule,
    /// The rule that produced the schedule.
    pub used: OrderRule,
    /// Index of `used` in the fallback chain (0 = no degradation).
    pub tier: usize,
    /// Every tier that failed before `used`, with its wall-clock cost.
    pub failures: Vec<FailedAttempt>,
}

impl ResilientOutcome {
    /// True when the requested rule itself produced the schedule.
    pub fn degraded(&self) -> bool {
        self.tier > 0
    }
}

/// The degradation chain for `requested`: `H_LP → H_ρ → H_A` when the
/// requested rule is LP-backed (the only fallible tier); just `[requested]`
/// for the heuristic rules, which cannot fail. Every chain ends in an
/// infallible tier.
pub fn fallback_chain(requested: OrderRule) -> Vec<OrderRule> {
    match requested {
        OrderRule::LpBased => vec![
            OrderRule::LpBased,
            OrderRule::LoadOverWeight,
            OrderRule::Arrival,
        ],
        rule => vec![rule],
    }
}

/// Runs one grid cell with ordering-stage degradation: tries each rule of
/// [`fallback_chain`]`(spec.order)` in turn and schedules with the first
/// that succeeds. `lp_opts` carries the solver budgets and health checks
/// applied to LP-backed tiers. Never panics on solver failure — the chain
/// ends in infallible heuristics.
pub fn run_resilient(
    instance: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
) -> ResilientOutcome {
    match resilient_chain(instance, spec, &fallback_chain(spec.order), lp_opts) {
        Ok(outcome) => outcome,
        Err(e) => unreachable!("built-in chain ends in infallible tiers: {}", e),
    }
}

/// [`run_resilient`] with a caller-supplied chain. Returns
/// [`SchedError::Exhausted`] if every tier fails (possible only when the
/// chain omits the heuristic rules).
fn resilient_chain(
    instance: &Instance,
    spec: &AlgorithmSpec,
    chain: &[OrderRule],
    lp_opts: &SimplexOptions,
) -> Result<ResilientOutcome, SchedError> {
    let chosen = order_by_chain(instance, chain, lp_opts)?;
    let opts = ExecOptions::paper(spec.backfill);
    let outcome = run_with_order(instance, chosen.order, spec.grouping, opts);
    Ok(ResilientOutcome {
        outcome,
        requested: spec.order,
        used: chosen.used,
        tier: chosen.tier,
        failures: chosen.failures,
    })
}

/// The trace [`run_resilient`] would plan, up to the end of the decision
/// that reaches slot `horizon - 1` (`u64::MAX`: the whole plan), with the
/// fallback tier that produced it. The same chain orders the coflows; the
/// scheduling stage stops at `horizon` and decomposes each batch only
/// when it runs, so batches past `horizon` cost nothing.
pub(crate) fn plan_resilient_until(
    instance: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
    horizon: u64,
) -> (ScheduleTrace, usize) {
    let chosen = match order_by_chain(instance, &fallback_chain(spec.order), lp_opts) {
        Ok(chosen) => chosen,
        Err(e) => unreachable!("built-in chain ends in infallible tiers: {}", e),
    };
    let opts = ExecOptions::paper(spec.backfill);
    let trace = plan_with_order_until(instance, chosen.order, spec.grouping, opts, horizon);
    (trace, chosen.tier)
}

/// The ordering stage of the chain: the order from the first tier of
/// `chain` that succeeds.
struct ChainOrder {
    order: Vec<usize>,
    used: OrderRule,
    tier: usize,
    failures: Vec<FailedAttempt>,
}

/// Tries each rule of `chain` in turn and returns the first order computed,
/// recording every failure with its wall-clock cost.
fn order_by_chain(
    instance: &Instance,
    chain: &[OrderRule],
    lp_opts: &SimplexOptions,
) -> Result<ChainOrder, SchedError> {
    let mut failures: Vec<FailedAttempt> = Vec::new();
    for (tier, &rule) in chain.iter().enumerate() {
        let attempt_start = Instant::now();
        match try_compute_order_with(instance, rule, lp_opts) {
            Ok(order) => {
                if tier > 0 {
                    obs::counter_add("coflow.resilient.degraded_runs", 1);
                }
                return Ok(ChainOrder {
                    order,
                    used: rule,
                    tier,
                    failures,
                });
            }
            Err(error) => {
                obs::counter_add("coflow.resilient.tier_failures", 1);
                failures.push(FailedAttempt {
                    rule,
                    error,
                    elapsed: attempt_start.elapsed(),
                });
            }
        }
    }
    obs::counter_add("coflow.resilient.exhausted", 1);
    Err(SchedError::Exhausted {
        attempts: failures
            .iter()
            .map(|fa| (fa.rule.name(), fa.error.to_string()))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_lp::LpError;
    use coflow_matching::IntMatrix;
    use coflow_netsim::validate_trace;

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
        Instance::new(2, vec![c0, c1, c2])
    }

    fn starved() -> SimplexOptions {
        SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        }
    }

    #[test]
    fn chain_starts_at_requested_and_ends_at_arrival() {
        assert_eq!(
            fallback_chain(OrderRule::LpBased),
            vec![
                OrderRule::LpBased,
                OrderRule::LoadOverWeight,
                OrderRule::Arrival
            ]
        );
        assert_eq!(
            fallback_chain(OrderRule::LoadOverWeight),
            vec![OrderRule::LoadOverWeight]
        );
        assert_eq!(fallback_chain(OrderRule::Arrival), vec![OrderRule::Arrival]);
    }

    #[test]
    fn healthy_lp_runs_at_tier_zero() {
        let spec = AlgorithmSpec::algorithm2();
        let out = run_resilient(&inst(), &spec, &SimplexOptions::default());
        assert_eq!(out.used, OrderRule::LpBased);
        assert_eq!(out.tier, 0);
        assert!(!out.degraded());
        assert!(out.failures.is_empty());
        // With a healthy budget every §4 cell stays at tier 0 and schedules
        // exactly as the plain pipeline does.
        for order in OrderRule::PAPER_RULES {
            for (grouping, backfill) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let spec = AlgorithmSpec {
                    order,
                    grouping,
                    backfill,
                };
                let out = run_resilient(&inst(), &spec, &SimplexOptions::default());
                assert_eq!(out.tier, 0, "{}/{}", order.name(), spec.case_label());
                let plain = crate::sched::run(&inst(), &spec);
                assert_eq!(out.outcome.objective.to_bits(), plain.objective.to_bits());
            }
        }
    }

    #[test]
    fn starved_lp_degrades_to_load_over_weight() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let out = run_resilient(&instance, &spec, &starved());
        assert_eq!(out.requested, OrderRule::LpBased);
        assert_eq!(out.used, OrderRule::LoadOverWeight);
        assert_eq!(out.tier, 1);
        assert!(out.degraded());
        assert_eq!(out.failures.len(), 1);
        let attempt = &out.failures[0];
        assert_eq!(attempt.rule, OrderRule::LpBased);
        match &attempt.error {
            SchedError::Lp { rule, source } => {
                assert_eq!(*rule, "H_LP");
                assert_eq!(*source, LpError::IterationLimit { iterations: 0 });
            }
            other => panic!("unexpected failure record: {:?}", other),
        }
        // The failed attempt still built the LP model before hitting the
        // pivot budget, so its recorded cost must be a real duration.
        assert!(
            attempt.elapsed > Duration::ZERO,
            "failed attempt must report its wall-clock cost"
        );
        // The degraded schedule is still a valid solution of problem (O).
        let times = validate_trace(instance.demands(), &instance.releases(), &out.outcome.trace)
            .expect("degraded schedule must validate");
        assert_eq!(times, out.outcome.completions);
    }

    #[test]
    fn heuristic_rules_never_degrade_even_when_starved() {
        for rule in [
            OrderRule::Arrival,
            OrderRule::LoadOverWeight,
            OrderRule::SizeOverWeight,
            OrderRule::PortPrimalDual,
        ] {
            let spec = AlgorithmSpec {
                order: rule,
                grouping: false,
                backfill: false,
            };
            let out = run_resilient(&inst(), &spec, &starved());
            assert_eq!(out.used, rule);
            assert_eq!(out.tier, 0);
        }
    }

    #[test]
    fn empty_chain_is_exhausted() {
        let spec = AlgorithmSpec::algorithm2();
        let err = resilient_chain(&inst(), &spec, &[], &starved()).unwrap_err();
        assert!(matches!(err, SchedError::Exhausted { .. }));
    }

    #[test]
    fn lp_only_chain_reports_the_lp_failure() {
        let spec = AlgorithmSpec::algorithm2();
        let err = resilient_chain(&inst(), &spec, &[OrderRule::LpBased], &starved()).unwrap_err();
        match err {
            SchedError::Exhausted { attempts } => {
                assert_eq!(attempts.len(), 1);
                assert_eq!(attempts[0].0, "H_LP");
                assert!(attempts[0].1.contains("iteration budget"));
            }
            other => panic!("unexpected error: {:?}", other),
        }
    }
}
