//! Property-based verification of the fault-tolerant pipeline:
//!
//! * under any generated [`FaultPlan`], the epoch-based recovery loop
//!   completes every unit of non-cancelled demand, and the executed trace
//!   satisfies the `2m` per-slot matching constraints (checked by
//!   [`verify_faulty_outcome`], which replays the trace against the plan);
//! * with the simplex pivot budget forced to zero, the `H_LP` fallback
//!   chain degrades to a heuristic order and still produces a schedule
//!   every grid cell of which validates against the netsim replay.

use coflow::sched::AlgorithmSpec;
use coflow::{run_policy_with_faults, run_resilient, verify_faulty_outcome, OrderRule};
use coflow::{Coflow, Instance, ResilientPolicy};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::{validate_trace, FaultPlan};
use proptest::prelude::*;

/// Random instances: m ∈ 2..4, n ∈ 1..5, entries 0..5, releases 0..6,
/// weights 1..4 (same envelope as `prop_theorems`).
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..4, 1usize..5).prop_flat_map(|(m, n)| {
        let coflows = proptest::collection::vec(
            (proptest::collection::vec(0u64..5, m * m), 0u64..6, 1u64..4),
            n,
        );
        coflows.prop_map(move |specs| {
            let coflows = specs
                .into_iter()
                .enumerate()
                .map(|(id, (data, release, weight))| {
                    Coflow::new(id, IntMatrix::from_rows(m, data))
                        .with_release(release)
                        .with_weight(weight as f64)
                })
                .collect();
            Instance::new(m, coflows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recovery invariant: whatever faults the plan injects, the loop
    /// terminates, every non-cancelled coflow completes (all of its demand
    /// delivered), and the executed slots respect the fault state and the
    /// matching constraints of problem (O).
    #[test]
    fn recovery_completes_all_surviving_demand(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
    ) {
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        let spec = AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        };
        let mut policy = ResilientPolicy::new(spec, SimplexOptions::default());
        let out = run_policy_with_faults(&inst, &mut policy, &plan);
        prop_assert!(out.is_ok(), "structural error: {}", out.err().map(|e| e.to_string()).unwrap_or_default());
        let out = out.unwrap();
        // Replays the trace slot by slot: port/link availability, matching
        // constraints (each ingress and egress used at most once per slot),
        // release dates, exact delivery of surviving demand.
        let verdict = verify_faulty_outcome(&inst, &plan, &out);
        prop_assert!(verdict.is_ok(), "{}", verdict.err().unwrap_or_default());
        for (k, completion) in out.completions.iter().enumerate() {
            let cancelled = plan.cancellation(k).is_some();
            if !cancelled && inst.coflow(k).demand.total() > 0 {
                prop_assert!(
                    completion.is_some(),
                    "surviving coflow {} never completed", k
                );
            }
        }
    }

    /// Fallback invariant: with a zero pivot budget every `H_LP` cell of
    /// the 12-cell grid degrades to `H_ρ` (tier 1) and the schedule it
    /// ships is still netsim-valid; heuristic cells stay at tier 0.
    #[test]
    fn starved_lp_chain_yields_valid_schedules(inst in instance_strategy()) {
        let starved = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        for order in OrderRule::PAPER_RULES {
            for (grouping, backfill) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let spec = AlgorithmSpec { order, grouping, backfill };
                let out = run_resilient(&inst, &spec, &starved);
                if order == OrderRule::LpBased {
                    prop_assert!(out.degraded(), "H_LP cell must fall back");
                    prop_assert_eq!(out.used, OrderRule::LoadOverWeight);
                    prop_assert_eq!(out.tier, 1);
                } else {
                    prop_assert_eq!(out.tier, 0);
                    prop_assert_eq!(out.used, order);
                }
                let times = validate_trace(
                    inst.demands(),
                    &inst.releases(),
                    &out.outcome.trace,
                );
                prop_assert!(
                    times.is_ok(),
                    "{:?} g={} b={}: invalid trace",
                    order, grouping, backfill
                );
                prop_assert_eq!(
                    times.unwrap(), out.outcome.completions.clone(),
                    "replayed completions disagree"
                );
            }
        }
    }
}
