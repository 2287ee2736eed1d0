//! Fault-aware scheduling with epoch-based rescheduling.
//!
//! [`run_with_faults`] closes the loop between the resilient planner
//! ([`super::resilient`]) and the fault-injecting executor
//! ([`coflow_netsim::FaultSim`]): a schedule is planned for the current
//! residual demand, executed slot by slot under the [`FaultPlan`] until the
//! fault state changes (an outage or degradation window opens or closes, or
//! a coflow is cancelled), and then — if any demand was stranded or the
//! plan was invalidated — replanned from the failure slot. Because every
//! fault window is finite, the final epoch runs fault-free, so all
//! surviving (non-cancelled) demand is guaranteed to complete.
//!
//! The epoch loop itself lives in the engine
//! ([`super::engine::run_policy_with_faults`] driving a
//! [`super::engine::ResilientPolicy`]); [`run_with_faults`] is a shim, and
//! the same loop also hosts the online/greedy policies
//! ([`super::online::run_online_with_faults`],
//! [`super::greedy::run_greedy_with_faults`]) with uniformly populated
//! [`FaultyOutcome::replans`]/[`FaultyOutcome::tiers`].

use super::engine::{run_policy_with_faults, ResilientPolicy};
use super::AlgorithmSpec;
use crate::instance::Instance;
use coflow_lp::SimplexOptions;
use coflow_netsim::{BlockedSlot, FaultPlan, ScheduleTrace, SimError};

/// The result of executing an instance to quiescence under a fault plan.
#[derive(Clone, Debug)]
pub struct FaultyOutcome {
    /// Completion slot per coflow; `None` means the coflow was cancelled
    /// before completing.
    pub completions: Vec<Option<u64>>,
    /// The slots actually executed (1-slot runs of delivered units).
    pub executed: ScheduleTrace,
    /// `Σ w_k C_k` over the surviving (completed) coflows.
    pub objective: f64,
    /// Number of planning epochs (1 = no replanning was needed).
    pub replans: usize,
    /// Fallback tier used at each planning epoch (0 = requested rule).
    pub tiers: Vec<usize>,
    /// Planned units stranded by outages or degradations.
    pub blocked_units: u64,
    /// Chronological log of individual blocked unit-slots (capped inside
    /// [`FaultSim`]; `blocked_units` above stays exact past the cap). The
    /// diagnostics layer joins this with the flight recorder to attribute
    /// fault-induced delay per coflow.
    pub blocked: Vec<BlockedSlot>,
}

impl FaultyOutcome {
    /// True when any planning epoch degraded below the requested rule.
    pub fn degraded(&self) -> bool {
        self.tiers.iter().any(|&t| t > 0)
    }
}

/// Plans, executes under `plan`, and replans until every coflow is either
/// complete or cancelled. The planner degrades through the ordering
/// fallback chain with `lp_opts` budgets; the executor strands blocked
/// units instead of failing. Errors only on structural violations
/// ([`SimError`]), which indicate a scheduler bug.
pub fn run_with_faults(
    instance: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
    plan: &FaultPlan,
) -> Result<FaultyOutcome, SimError> {
    let mut policy = ResilientPolicy::new(*spec, lp_opts.clone());
    run_policy_with_faults(instance, &mut policy, plan).map_err(|e| e.into_sim())
}

/// [`run_with_faults`] that panics on structural violations — convenient
/// for tests and experiment harnesses where a [`SimError`] is a bug.
pub fn run_with_faults_strict(
    instance: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
    plan: &FaultPlan,
) -> FaultyOutcome {
    match run_with_faults(instance, spec, lp_opts, plan) {
        Ok(out) => out,
        Err(e) => panic!("fault-aware execution hit a scheduler bug: {}", e),
    }
}

/// Verifies a [`FaultyOutcome`] against the instance and plan: every
/// executed slot satisfies the `2m` matching constraints and moves only
/// real, released demand over open links, before its coflow's cancellation
/// slot; every non-cancelled coflow's demand is delivered exactly. The
/// completions are derived from the replay — a coflow completes in its
/// last delivered slot once all its demand is delivered, a zero-demand
/// coflow at its release date — and must equal the reported ones, and
/// `Σ w·C` recomputed from them in coflow order must equal the reported
/// objective bit for bit. Returns the first violation found.
pub fn verify_faulty_outcome(
    instance: &Instance,
    plan: &FaultPlan,
    out: &FaultyOutcome,
) -> Result<(), String> {
    let m = instance.ports();
    let n = instance.len();
    if out.completions.len() != n {
        return Err(format!(
            "{} completions reported for {} coflows",
            out.completions.len(),
            n
        ));
    }
    let cancellation: Vec<Option<u64>> = (0..n).map(|k| plan.cancellation(k)).collect();
    let mut delivered: Vec<u64> = vec![0; n];
    let mut last_slot: Vec<u64> = vec![0; n];
    let mut per_pair: Vec<std::collections::HashMap<(usize, usize), u64>> =
        vec![std::collections::HashMap::new(); n];
    for run in &out.executed.runs {
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];
        if run.duration != 1 {
            return Err(format!("executed run at {} is not 1 slot", run.start));
        }
        let slot = run.start;
        for t in &run.transfers {
            if t.units != 1 {
                return Err(format!("slot {}: multi-unit executed transfer", slot));
            }
            if t.coflow >= n {
                return Err(format!("slot {}: unknown coflow {}", slot, t.coflow));
            }
            if src_used[t.src] || dst_used[t.dst] {
                return Err(format!("slot {}: matching constraint violated", slot));
            }
            src_used[t.src] = true;
            dst_used[t.dst] = true;
            if !plan.pair_open(t.src, t.dst, slot) {
                return Err(format!(
                    "slot {}: delivered over faulted link ({}, {})",
                    slot, t.src, t.dst
                ));
            }
            if instance.coflow(t.coflow).release >= slot {
                return Err(format!("slot {}: coflow {} before release", slot, t.coflow));
            }
            if cancellation[t.coflow].is_some_and(|at| slot >= at) {
                return Err(format!(
                    "slot {}: served cancelled coflow {}",
                    slot, t.coflow
                ));
            }
            delivered[t.coflow] += 1;
            last_slot[t.coflow] = last_slot[t.coflow].max(slot);
            *per_pair[t.coflow].entry((t.src, t.dst)).or_insert(0) += 1;
        }
    }
    for k in 0..n {
        let c = instance.coflow(k);
        for (&(i, j), &units) in &per_pair[k] {
            if units > c.demand[(i, j)] {
                return Err(format!("coflow {}: over-delivery on ({}, {})", k, i, j));
            }
        }
        let completion = if c.total_units() == 0 {
            Some(c.release)
        } else if delivered[k] == c.total_units() {
            Some(last_slot[k])
        } else {
            None
        };
        if completion.is_none() && cancellation[k].is_none() {
            return Err(format!(
                "coflow {}: incomplete ({} of {} units) but never cancelled",
                k,
                delivered[k],
                c.total_units()
            ));
        }
        if completion != out.completions[k] {
            return Err(format!(
                "coflow {}: reported completion {:?}, replay gives {:?}",
                k, out.completions[k], completion
            ));
        }
    }
    // The reported completions now equal the replay's.
    let objective: f64 = out
        .completions
        .iter()
        .zip(instance.coflows())
        .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
        .sum();
    if objective.to_bits() != out.objective.to_bits() {
        return Err(format!(
            "reported objective {} differs from the replay's {}",
            out.objective, objective
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::ordering::OrderRule;
    use coflow_matching::IntMatrix;
    use coflow_netsim::FaultEvent;

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn no_faults_matches_plain_scheduling() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let out = run_with_faults_strict(
            &instance,
            &spec,
            &SimplexOptions::default(),
            &FaultPlan::default(),
        );
        assert_eq!(out.replans, 1);
        assert_eq!(out.blocked_units, 0);
        assert!(out.completions.iter().all(Option::is_some));
        let plain = super::super::run(&instance, &spec);
        let faulty: Vec<u64> = out.completions.iter().map(|c| c.unwrap()).collect();
        assert_eq!(faulty, plain.completions);
        assert!((out.objective - plain.objective).abs() < 1e-9);
        verify_faulty_outcome(&instance, &FaultPlan::default(), &out).unwrap();
    }

    #[test]
    fn outage_strands_then_recovery_completes_everything() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 1, start: 1, end: 4 }]);
        let out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &plan);
        assert!(out.completions.iter().all(Option::is_some));
        assert!(out.replans >= 2, "stranded demand must force a replan");
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        // Faults can only delay the objective.
        let plain = super::super::run(&instance, &spec);
        assert!(out.objective >= plain.objective - 1e-9);
    }

    #[test]
    fn cancellation_drops_a_coflow_from_the_objective() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 1, at: 1 }]);
        let out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &plan);
        assert_eq!(out.completions[1], None);
        assert!(out.completions[0].is_some() && out.completions[2].is_some());
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
    }

    #[test]
    fn starved_lp_degrades_but_still_recovers() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let starved = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        let plan = FaultPlan::new(vec![
            FaultEvent::EgressOutage { port: 0, start: 2, end: 3 },
            FaultEvent::CoflowCancelled { coflow: 2, at: 5 },
        ]);
        let out = run_with_faults_strict(&instance, &spec, &starved, &plan);
        assert!(out.degraded(), "0-pivot budget must force the fallback tier");
        assert!(out.tiers.iter().all(|&t| t == 1));
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
    }

    /// `Σ w·C` over the completed coflows, as the engine computes it.
    fn objective_of(instance: &Instance, completions: &[Option<u64>]) -> f64 {
        completions
            .iter()
            .zip(instance.coflows())
            .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
            .sum()
    }

    #[test]
    fn rejects_service_after_a_cancellation_even_when_complete() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let clean = FaultPlan::default();
        let out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &clean);
        verify_faulty_outcome(&instance, &clean, &out).unwrap();
        // Against a plan cancelling coflow 1 in its completion slot, the
        // outcome serves it after the cancellation yet reports it complete.
        let at = out.completions[1].expect("clean run completes coflow 1");
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 1, at }]);
        let err = verify_faulty_outcome(&instance, &plan, &out).unwrap_err();
        assert!(err.contains("served cancelled coflow 1"), "{}", err);
    }

    #[test]
    fn rejects_a_completion_shifted_by_one_slot() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 1, start: 1, end: 4 }]);
        let mut out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &plan);
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        let c = out.completions[0].expect("coflow 0 is never cancelled");
        out.completions[0] = Some(c + 1);
        // The objective agrees with the doctored completions, so only the
        // replay's completion slot can expose them.
        out.objective = objective_of(&instance, &out.completions);
        let err = verify_faulty_outcome(&instance, &plan, &out).unwrap_err();
        assert!(err.contains("coflow 0: reported completion"), "{}", err);
    }

    #[test]
    fn rejects_an_objective_one_ulp_off() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 2, at: 3 }]);
        let mut out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &plan);
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        assert_eq!(
            out.objective.to_bits(),
            objective_of(&instance, &out.completions).to_bits()
        );
        out.objective = f64::from_bits(out.objective.to_bits() + 1);
        let err = verify_faulty_outcome(&instance, &plan, &out).unwrap_err();
        assert!(err.contains("objective"), "{}", err);
    }

    #[test]
    fn generated_plans_always_settle() {
        let instance = inst();
        let spec = AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        };
        for seed in 0..20 {
            let plan = FaultPlan::generate(2, instance.len(), 12, 0.6, seed);
            let out = run_with_faults_strict(&instance, &spec, &SimplexOptions::default(), &plan);
            verify_faulty_outcome(&instance, &plan, &out)
                .unwrap_or_else(|e| panic!("seed {}: {}", seed, e));
        }
    }
}
