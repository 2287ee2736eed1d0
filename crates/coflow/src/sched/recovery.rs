//! Fault-aware scheduling with epoch-based rescheduling: the outcome type
//! and its replay check.
//!
//! The resilient planner ([`super::resilient`]) and the fault-injecting
//! executor ([`coflow_netsim::FaultSim`]) close the loop in the engine:
//! [`run_policy_with_faults`](super::engine::run_policy_with_faults)
//! driving a [`ResilientPolicy`](super::engine::ResilientPolicy) plans a
//! schedule for the current residual demand, executes it slot by slot
//! under the [`FaultPlan`] until the fault state changes (an outage or
//! degradation window opens or closes, or a coflow is cancelled), and then
//! — if any demand was stranded or the plan was invalidated — replans from
//! the failure slot. Because every fault window is finite, the final epoch
//! runs fault-free, so all surviving (non-cancelled) demand is guaranteed
//! to complete. The same loop hosts every other policy that replans from
//! live demand (online, greedy, the successor papers' schedulers), with
//! uniformly populated [`FaultyOutcome::replans`]/[`FaultyOutcome::tiers`].
//!
//! [`verify_faulty_outcome`] replays any such outcome against the instance
//! and the plan.

use crate::instance::Instance;
use coflow_netsim::{BlockedRun, EntryMemo, FaultIndex, FaultPlan, ScheduleTrace, SparseDemand};

/// The result of executing an instance to quiescence under a fault plan.
#[derive(Clone, Debug)]
pub struct FaultyOutcome {
    /// Completion slot per coflow; `None` means the coflow was cancelled
    /// before completing.
    pub completions: Vec<Option<u64>>,
    /// The slots actually executed, run-length: each run is a maximal
    /// stretch of consecutive slots that deliver the same units, and each
    /// of its transfers moves one unit per slot of the run.
    pub executed: ScheduleTrace,
    /// `Σ w_k C_k` over the surviving (completed) coflows.
    pub objective: f64,
    /// Number of planning epochs (1 = no replanning was needed).
    pub replans: usize,
    /// Fallback tier used at each planning epoch (0 = requested rule).
    pub tiers: Vec<usize>,
    /// Planned units stranded by outages or degradations.
    pub blocked_units: u64,
    /// The blocked log, moved out of the simulator: maximal runs of
    /// consecutive slots that deny one planned unit each, in order of
    /// their first slot (capped at 65,536 units inside
    /// [`FaultSim`](coflow_netsim::FaultSim); `blocked_units` above stays
    /// exact past the cap). The diagnostics
    /// layer joins it with the flight recorder to attribute fault-induced
    /// delay per coflow.
    pub blocked: Vec<BlockedRun>,
}

impl FaultyOutcome {
    /// True when any planning epoch degraded below the requested rule.
    pub fn degraded(&self) -> bool {
        self.tiers.iter().any(|&t| t > 0)
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
///
/// The executed trace is checked run by run: each transfer must move one
/// unit in every slot of its run, so a run repeats one matching, checked
/// once. The link must be open in every slot of the run, the coflow
/// released before its first slot and not cancelled by its last.
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
    let faults = FaultIndex::new(plan, m, n);
    // Units delivered per demanded (coflow, pair): one counter per entry of
    // the instance's demand over its nonzero pairs.
    let demand = SparseDemand::new(m, instance.demands());
    let mut memo = EntryMemo::new(m);
    let mut units = vec![0u64; demand.nnz()];
    // The first pair each coflow was served on without demanding it.
    let mut stray: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut delivered: Vec<u64> = vec![0; n];
    let mut last_slot: Vec<u64> = vec![0; n];
    let mut src_used = vec![false; m];
    let mut dst_used = vec![false; m];
    // The first slot after the previous run.
    let mut free_from = 0;
    for run in &out.executed.runs {
        let slot = run.start;
        let end = run
            .duration
            .checked_sub(1)
            .and_then(|d| slot.checked_add(d));
        let Some(last) = end else {
            return Err(format!(
                "executed run at {} lasts {} slots",
                slot, run.duration
            ));
        };
        if slot < free_from {
            return Err(format!(
                "executed run at {} overlaps the previous run",
                slot
            ));
        }
        free_from = last.saturating_add(1);
        for t in &run.transfers {
            let (src, dst, k) = (t.src(), t.dst(), t.coflow());
            if t.units != run.duration {
                return Err(format!(
                    "slot {}: executed transfer of {} units in a {}-slot run",
                    slot, t.units, run.duration
                ));
            }
            if k >= n {
                return Err(format!("slot {}: unknown coflow {}", slot, k));
            }
            if src >= m || dst >= m {
                return Err(format!(
                    "slot {}: pair ({}, {}) outside the {}-port fabric",
                    slot, src, dst, m
                ));
            }
            if src_used[src] || dst_used[dst] {
                return Err(format!("slot {}: matching constraint violated", slot));
            }
            src_used[src] = true;
            dst_used[dst] = true;
            if let Some(closed) = faults.first_closed(src, dst, slot, last) {
                return Err(format!(
                    "slot {}: delivered over faulted link ({}, {})",
                    closed, src, dst
                ));
            }
            if instance.coflow(k).release >= slot {
                return Err(format!("slot {}: coflow {} before release", slot, k));
            }
            if let Some(gone) = faults.cancellation(k).filter(|&gone| last >= gone) {
                return Err(format!(
                    "slot {}: served cancelled coflow {}",
                    gone.max(slot),
                    k
                ));
            }
            delivered[k] = delivered[k].saturating_add(t.units);
            last_slot[k] = last_slot[k].max(last);
            match memo.find(&demand, k, src, dst) {
                Some(e) => units[e] = units[e].saturating_add(t.units),
                None => {
                    stray[k].get_or_insert((src, dst));
                }
            }
        }
        for t in &run.transfers {
            src_used[t.src()] = false;
            dst_used[t.dst()] = false;
        }
    }
    for k in 0..n {
        let over = demand
            .entries(k)
            .find(|&e| units[e] > demand.units(e))
            .map(|e| demand.pair(e));
        if let Some((i, j)) = stray[k].or(over) {
            return Err(format!("coflow {}: over-delivery on ({}, {})", k, i, j));
        }
        let total = demand.total(k);
        let completion = if total == 0 {
            Some(instance.coflow(k).release)
        } else if delivered[k] == total {
            Some(last_slot[k])
        } else {
            None
        };
        if completion.is_none() && faults.cancellation(k).is_none() {
            return Err(format!(
                "coflow {}: incomplete ({} of {} units) but never cancelled",
                k, delivered[k], total
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
    use crate::sched::engine::{run_policy_with_faults, ResilientPolicy};
    use crate::sched::AlgorithmSpec;
    use coflow_lp::SimplexOptions;
    use coflow_matching::IntMatrix;
    use coflow_netsim::FaultEvent;

    /// The resilient replanner on `spec` under `plan`.
    fn replan(
        instance: &Instance,
        spec: &AlgorithmSpec,
        lp_opts: &SimplexOptions,
        plan: &FaultPlan,
    ) -> FaultyOutcome {
        let mut policy = ResilientPolicy::new(*spec, lp_opts.clone());
        run_policy_with_faults(instance, &mut policy, plan).unwrap()
    }

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
        let out = replan(
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
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 1,
            start: 1,
            end: 4,
        }]);
        let out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
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
        let out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
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
            FaultEvent::EgressOutage {
                port: 0,
                start: 2,
                end: 3,
            },
            FaultEvent::CoflowCancelled { coflow: 2, at: 5 },
        ]);
        let out = replan(&instance, &spec, &starved, &plan);
        assert!(
            out.degraded(),
            "0-pivot budget must force the fallback tier"
        );
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
        let out = replan(&instance, &spec, &SimplexOptions::default(), &clean);
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
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 1,
            start: 1,
            end: 4,
        }]);
        let mut out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
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
        let mut out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        assert_eq!(
            out.objective.to_bits(),
            objective_of(&instance, &out.completions).to_bits()
        );
        out.objective = f64::from_bits(out.objective.to_bits() + 1);
        let err = verify_faulty_outcome(&instance, &plan, &out).unwrap_err();
        assert!(err.contains("objective"), "{}", err);
    }

    /// The fault-free outcome of `inst()`, checked clean before a test
    /// doctors it.
    fn clean_outcome(instance: &Instance) -> FaultyOutcome {
        let spec = AlgorithmSpec::algorithm2();
        let clean = FaultPlan::default();
        let out = replan(instance, &spec, &SimplexOptions::default(), &clean);
        verify_faulty_outcome(instance, &clean, &out).unwrap();
        out
    }

    /// The verdict on `out` against `plan`, which must be a rejection.
    fn rejection(instance: &Instance, plan: &FaultPlan, out: &FaultyOutcome) -> String {
        verify_faulty_outcome(instance, plan, out).unwrap_err()
    }

    /// Appends a 1-slot run after the makespan carrying one unit.
    fn append_unit(out: &mut FaultyOutcome, src: usize, dst: usize, coflow: usize) {
        let start = out.executed.makespan() + 1;
        let transfer = coflow_netsim::Transfer::new(src, dst, coflow, 1).unwrap();
        out.executed.push_run(coflow_netsim::Run {
            start,
            duration: 1,
            transfers: Box::new([transfer]),
        });
    }

    #[test]
    fn rejects_delivery_during_an_outage() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let (slot, t) = (
            out.executed.runs[0].start,
            out.executed.runs[0].transfers[0],
        );
        let outage = FaultEvent::IngressOutage {
            port: t.src(),
            start: slot,
            end: slot,
        };
        let plan = FaultPlan::new(vec![outage]);
        let err = rejection(&instance, &plan, &out);
        let want = format!(
            "slot {}: delivered over faulted link ({}, {})",
            slot,
            t.src(),
            t.dst()
        );
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_delivery_on_a_degraded_link_off_stride() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let (slot, t) = (
            out.executed.runs[1].start,
            out.executed.runs[1].transfers[0],
        );
        // The link serves slot - 1 (phase 0) but not slot (phase 1).
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegraded {
            src: t.src(),
            dst: t.dst(),
            start: slot - 1,
            end: slot,
            stride: 2,
        }]);
        let err = rejection(&instance, &plan, &out);
        let want = format!(
            "slot {}: delivered over faulted link ({}, {})",
            slot,
            t.src(),
            t.dst()
        );
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_over_delivery_on_a_pair_with_demand() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        append_unit(&mut out, 0, 0, 0); // coflow 0 demands 3 units on (0, 0)
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(err.contains("coflow 0: over-delivery on (0, 0)"), "{}", err);
    }

    #[test]
    fn rejects_delivery_on_a_pair_with_zero_demand() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        append_unit(&mut out, 1, 0, 0); // coflow 0 demands nothing on (1, 0)
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(err.contains("coflow 0: over-delivery on (1, 0)"), "{}", err);
    }

    #[test]
    fn rejects_two_transfers_on_one_port_in_a_slot() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let run = &mut out.executed.runs[0];
        let t = run.transfers[0];
        let twin = coflow_netsim::Transfer::new(t.src(), 1 - t.dst(), t.coflow(), t.units).unwrap();
        run.transfers = [&run.transfers[..], &[twin]].concat().into();
        let err = rejection(&instance, &FaultPlan::default(), &out);
        let want = format!("slot {}: matching constraint violated", run_start(&out, 0));
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_run_longer_than_its_transfers() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let run = &mut out.executed.runs[0];
        let units = run.duration;
        run.duration += 1;
        let want = format!(
            "slot {}: executed transfer of {} units in a {}-slot run",
            run.start,
            units,
            units + 1
        );
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_transfer_longer_than_its_run() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let run = &mut out.executed.runs[0];
        run.transfers[0].units += 1;
        let want = format!(
            "slot {}: executed transfer of {} units in a {}-slot run",
            run.start,
            run.duration + 1,
            run.duration
        );
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_zero_slot_run_and_overlapping_runs() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        out.executed.runs[0].duration = 0;
        let err = rejection(&instance, &FaultPlan::default(), &out);
        let want = format!("executed run at {} lasts 0 slots", run_start(&out, 0));
        assert!(err.contains(&want), "{}", err);
        let mut out = clean_outcome(&instance);
        let first = out.executed.runs[0].clone();
        out.executed.runs.insert(1, first);
        let err = rejection(&instance, &FaultPlan::default(), &out);
        let want = format!("executed run at {} overlaps", run_start(&out, 0));
        assert!(err.contains(&want), "{}", err);
    }

    /// The first executed run that lasts more than one slot.
    fn long_run(out: &FaultyOutcome) -> &coflow_netsim::Run {
        let long = out.executed.runs.iter().find(|r| r.duration > 1);
        long.expect("the clean run holds a matching for two slots or more")
    }

    #[test]
    fn rejects_an_outage_inside_a_run() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let run = long_run(&out);
        let (last, t) = (run.start + run.duration - 1, run.transfers[0]);
        // Only the run's last slot is down.
        let plan = FaultPlan::new(vec![FaultEvent::EgressOutage {
            port: t.dst(),
            start: last,
            end: last,
        }]);
        let err = rejection(&instance, &plan, &out);
        let want = format!(
            "slot {}: delivered over faulted link ({}, {})",
            last,
            t.src(),
            t.dst()
        );
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_cancellation_inside_a_run() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let run = long_run(&out);
        let (last, t) = (run.start + run.duration - 1, run.transfers[0]);
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled {
            coflow: t.coflow(),
            at: last,
        }]);
        let err = rejection(&instance, &plan, &out);
        let want = format!("slot {}: served cancelled coflow {}", last, t.coflow());
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_an_unknown_coflow() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let t = out.executed.runs[0].transfers[0];
        out.executed.runs[0].transfers[0] =
            coflow_netsim::Transfer::new(t.src(), t.dst(), instance.len(), t.units).unwrap();
        let err = rejection(&instance, &FaultPlan::default(), &out);
        let want = format!(
            "slot {}: unknown coflow {}",
            run_start(&out, 0),
            instance.len()
        );
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_port_outside_the_fabric() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let m = instance.ports();
        append_unit(&mut out, m, 0, 0);
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(
            err.contains(&format!("pair ({}, 0) outside the 2-port fabric", m)),
            "{}",
            err
        );
        let mut out = clean_outcome(&instance);
        append_unit(&mut out, 0, m, 0);
        let err = rejection(&instance, &FaultPlan::default(), &out);
        assert!(
            err.contains(&format!("pair (0, {}) outside the 2-port fabric", m)),
            "{}",
            err
        );
    }

    #[test]
    fn rejects_service_before_release() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let (slot, t) = (
            out.executed.runs[0].start,
            out.executed.runs[0].transfers[0],
        );
        // The same demands, but the first served coflow is released only
        // at the slot it was served in.
        let late: Vec<Coflow> = instance
            .coflows()
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let release = if k == t.coflow() { slot } else { c.release };
                c.clone().with_release(release)
            })
            .collect();
        let late = Instance::new(instance.ports(), late);
        let err = rejection(&late, &FaultPlan::default(), &out);
        let want = format!("slot {}: coflow {} before release", slot, t.coflow());
        assert!(err.contains(&want), "{}", err);
    }

    #[test]
    fn rejects_a_coflow_neither_completed_nor_cancelled() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        // Drop coflow 0's last delivered transfer.
        let run = out
            .executed
            .runs
            .iter_mut()
            .rev()
            .find(|r| r.transfers.iter().any(|t| t.coflow() == 0))
            .expect("coflow 0 is served");
        let last = run
            .transfers
            .iter()
            .rposition(|t| t.coflow() == 0)
            .expect("found above");
        let mut kept = run.transfers.to_vec();
        let dropped = kept.remove(last).units;
        run.transfers = kept.into();
        let total = instance.coflow(0).total_units();
        let err = rejection(&instance, &FaultPlan::default(), &out);
        let want = format!(
            "coflow 0: incomplete ({} of {} units)",
            total - dropped,
            total
        );
        assert!(err.contains(&want), "{}", err);
    }

    fn run_start(out: &FaultyOutcome, r: usize) -> u64 {
        out.executed.runs[r].start
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
            let out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
            verify_faulty_outcome(&instance, &plan, &out)
                .unwrap_or_else(|e| panic!("seed {}: {}", seed, e));
        }
    }
}
