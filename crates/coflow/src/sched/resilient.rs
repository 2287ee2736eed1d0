//! Fault-tolerant ordering stage: the fallback chain `H_LP → H_ρ → H_A`.
//!
//! The LP-based order is the only fallible tier of the pipeline — the
//! simplex solve behind it can exhaust its pivot or wall-clock budget,
//! stall, or fail numerical health checks. Rather than panicking,
//! [`ResilientPolicy`](super::engine::ResilientPolicy) degrades through an
//! explicit chain of ordering rules at every planning epoch and reports the
//! tier that ordered the plan (its [`tier`](super::engine::Policy::tier),
//! recorded per epoch in
//! [`FaultyOutcome::tiers`](super::recovery::FaultyOutcome::tiers)), so
//! experiment harnesses can report degradation counts and the TWCT cost of
//! falling back.

use super::engine::{run_policy_until, BvnBatchPolicy};
use super::{batches_of, AlgorithmSpec, ExecOptions};
use crate::instance::Instance;
use crate::ordering::{try_compute_order_with, OrderRule};
use coflow_lp::SimplexOptions;
use coflow_netsim::ScheduleTrace;

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

/// The trace the chain plans for `instance` under `spec`, up to the end of
/// the decision that reaches slot `horizon - 1` (`u64::MAX`: the whole
/// plan), with the fallback tier that ordered it. The scheduling stage
/// stops at `horizon` and decomposes each batch only when it runs, so
/// batches past `horizon` cost nothing.
pub(crate) fn plan_resilient_until(
    instance: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
    horizon: u64,
) -> (ScheduleTrace, usize) {
    let (order, tier) = order_by_chain(instance, spec.order, lp_opts);
    let batches = batches_of(instance, &order, spec.grouping);
    let _span = obs::span("sched.execute");
    let opts = ExecOptions::paper(spec.backfill);
    let mut policy = BvnBatchPolicy::new(instance, order, batches, opts);
    match run_policy_until(instance, &mut policy, horizon) {
        Ok(sim) => (sim.finish().0, tier),
        Err(e) => unreachable!("batch policy is infallible: {}", e),
    }
}

/// The order from the first rule of [`fallback_chain`]`(requested)` that
/// computes one, with that rule's index in the chain.
fn order_by_chain(
    instance: &Instance,
    requested: OrderRule,
    lp_opts: &SimplexOptions,
) -> (Vec<usize>, usize) {
    for (tier, rule) in fallback_chain(requested).into_iter().enumerate() {
        match try_compute_order_with(instance, rule, lp_opts) {
            Ok(order) => {
                if tier > 0 {
                    obs::counter_add("coflow.resilient.degraded_runs", 1);
                }
                return (order, tier);
            }
            Err(_) => obs::counter_add("coflow.resilient.tier_failures", 1),
        }
    }
    unreachable!("the fallback chain ends in an infallible rule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::sched::engine::{run_policy, Policy, ResilientPolicy};
    use crate::sched::{run, ScheduleOutcome};
    use crate::verify::verify_outcome;
    use coflow_matching::IntMatrix;

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

    /// `spec` planned by the chain under `lp_opts` and the empty plan, with
    /// the tier that ordered it.
    fn resilient(
        instance: &Instance,
        spec: AlgorithmSpec,
        lp_opts: SimplexOptions,
    ) -> (ScheduleOutcome, usize) {
        let mut policy = ResilientPolicy::new(spec, lp_opts);
        let out = run_policy(instance, &mut policy).expect("the chain never fails");
        (out, policy.tier())
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
                let (out, tier) = resilient(&inst(), spec, SimplexOptions::default());
                assert_eq!(tier, 0, "{}/{}", order.name(), spec.case_label());
                let plain = run(&inst(), &spec);
                assert_eq!(out.objective.to_bits(), plain.objective.to_bits());
                assert_eq!(out.completions, plain.completions);
            }
        }
    }

    #[test]
    fn starved_lp_degrades_to_load_over_weight() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let (out, tier) = resilient(&instance, spec, starved());
        assert_eq!(tier, 1);
        // The degraded schedule is the H_ρ cell's, and still a valid
        // solution of problem (O).
        let rho = run(
            &instance,
            &AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                ..spec
            },
        );
        assert_eq!(out.objective.to_bits(), rho.objective.to_bits());
        assert_eq!(out.completions, rho.completions);
        verify_outcome(&instance, &out).expect("degraded schedule must validate");
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
            let (_, tier) = resilient(&inst(), spec, starved());
            assert_eq!(tier, 0, "{}", rule.name());
        }
    }
}
