//! Property-based verification of the checkpoint/resume contract for every
//! engine policy: at an arbitrary epoch of an arbitrary faulted run,
//! checkpoint → serialize (`coflow-snapshot/1`) → parse → restore →
//! run-to-completion must equal the uninterrupted run bit for bit —
//! objective bits, replans, fallback tiers, completions, the executed
//! trace, and the flight-recorder event stream derived from it.

use coflow::sched::AlgorithmSpec;
use coflow::Coflow;
use coflow::{
    compute_order, group_by_doubling, run_policy_with_faults, verify_faulty_outcome,
    BvnBatchPolicy, Engine, EngineSnapshot, ExecOptions, FaultyOutcome, GreedyPolicy,
    ImPurohitPolicy, Instance, OnlineOptions, OnlineRhoPolicy, OrderRule, Policy, ResilientPolicy,
    ShafieeGhaderiPolicy, WatchdogConfig, WatchdogPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::{record_flights, FaultPlan, RecorderConfig};
use proptest::prelude::*;

/// Random instances: same envelope as `prop_faults`.
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

/// Builds one of the six engine policies by index, avoiding the full LP
/// where possible so every proptest case stays cheap. (The Im–Purohit
/// policy is constructed via `with_order` on the H_ρ permutation: the
/// checkpoint contract under test is order-agnostic, and the instances
/// here are tiny enough that which permutation it commits is irrelevant.)
fn make_policy(instance: &Instance, which: usize) -> Box<dyn Policy> {
    match which % 6 {
        0 => Box::new(ResilientPolicy::new(
            AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
            SimplexOptions::default(),
        )),
        1 => Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::default())),
        2 => {
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            Box::new(GreedyPolicy::new(instance, order))
        }
        3 => Box::new(ShafieeGhaderiPolicy::new(instance)),
        4 => {
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            Box::new(ImPurohitPolicy::with_order(instance, order))
        }
        _ => {
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            let batches = group_by_doubling(instance, &order).groups;
            Box::new(WatchdogPolicy::over_bvn(
                WatchdogConfig::default(),
                BvnBatchPolicy::new(instance, order, batches, ExecOptions::default()),
            ))
        }
    }
}

/// Runs to completion, interrupting once at (roughly) epoch `stop_after`
/// with a full serialize/parse/restore cycle. `stop_after == 0` restores
/// at the first opportunity; a value past the run's length degenerates to
/// an uninterrupted run (also a valid case of the property).
fn run_interrupted_once(
    instance: &Instance,
    mut policy: Box<dyn Policy>,
    plan: &FaultPlan,
    stop_after: u64,
) -> Result<FaultyOutcome, String> {
    let mut engine = Engine::new(instance, plan);
    let mut epochs = 0u64;
    let mut interrupted = false;
    loop {
        let more = engine
            .step(policy.as_mut())
            .map_err(|e| format!("step: {}", e))?;
        epochs += 1;
        if !more {
            break;
        }
        if !interrupted && epochs > stop_after {
            interrupted = true;
            let snapshot = engine
                .checkpoint(policy.as_ref())
                .map_err(|e| format!("checkpoint: {}", e))?;
            let parsed = EngineSnapshot::from_json(&snapshot.to_json())
                .map_err(|e| format!("round trip: {}", e))?;
            let (restored_engine, restored_policy) =
                Engine::restore(instance, parsed).map_err(|e| format!("restore: {}", e))?;
            engine = restored_engine;
            policy = restored_policy;
        }
    }
    Ok(engine.into_outcome(policy.as_mut()))
}

/// Flight-recorder event streams of an outcome, one per coflow.
fn flight_streams(
    instance: &Instance,
    out: &FaultyOutcome,
) -> Vec<Vec<coflow_netsim::FlightEvent>> {
    let totals: Vec<u64> = (0..instance.len())
        .map(|k| instance.coflow(k).demand.total())
        .collect();
    let releases = instance.releases();
    let rec = record_flights(
        &out.executed,
        &totals,
        &releases,
        &out.blocked,
        &RecorderConfig::default(),
    );
    rec.flights.into_iter().map(|f| f.events).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint/resume is invisible: for every policy, interrupting at
    /// an arbitrary epoch of an arbitrary faulted run and resuming from
    /// the serialized snapshot reproduces the uninterrupted run exactly.
    #[test]
    fn checkpoint_restore_is_bit_identical(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
        stop_after in 0u64..64,
        which in 0usize..6,
    ) {
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);

        let mut reference_policy = make_policy(&inst, which);
        let reference = run_policy_with_faults(&inst, reference_policy.as_mut(), &plan);
        prop_assert!(reference.is_ok(), "reference: {:?}", reference.err().map(|e| e.to_string()));
        let reference = reference.unwrap();

        let interrupted = run_interrupted_once(&inst, make_policy(&inst, which), &plan, stop_after);
        prop_assert!(interrupted.is_ok(), "{}", interrupted.err().unwrap_or_default());
        let interrupted = interrupted.unwrap();

        let verdict = verify_faulty_outcome(&inst, &plan, &interrupted);
        prop_assert!(verdict.is_ok(), "{}", verdict.err().unwrap_or_default());

        prop_assert_eq!(
            interrupted.objective.to_bits(),
            reference.objective.to_bits(),
            "objective: {} vs {}", interrupted.objective, reference.objective
        );
        prop_assert_eq!(interrupted.replans, reference.replans);
        prop_assert_eq!(&interrupted.tiers, &reference.tiers);
        prop_assert_eq!(&interrupted.completions, &reference.completions);
        prop_assert_eq!(&interrupted.executed, &reference.executed);
        // The blocked log went through the snapshot one entry per unit and
        // was merged back; the flight streams below truncate it.
        prop_assert_eq!(interrupted.blocked_units, reference.blocked_units);
        prop_assert_eq!(&interrupted.blocked, &reference.blocked);

        // The forensics layer sees the same history: identical per-coflow
        // flight-recorder event streams (Released/FirstService/Progress/
        // Preempted/Resumed/FaultBlocked/Completed, in order).
        prop_assert_eq!(
            flight_streams(&inst, &interrupted),
            flight_streams(&inst, &reference)
        );
    }
}
