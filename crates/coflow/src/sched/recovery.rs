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
use crate::verify::{verify_replay, VerifyError};
use coflow_netsim::{BlockedRun, FaultPlan, ScheduleTrace};

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

/// Verifies a [`FaultyOutcome`] against the instance and plan: its
/// executed trace replays under the plan ([`validate_trace`] — a matching
/// in every slot, only real, released demand over open links, nothing at
/// or after a coflow's cancellation, every non-cancelled coflow delivered
/// exactly), the reported completions are the replay's (`None` for a
/// coflow cancelled before completing), and the objective is `Σ w·C`
/// recomputed from them in coflow order, bit for bit. Returns the first
/// violation found.
///
/// [`validate_trace`]: coflow_netsim::validate_trace
pub fn verify_faulty_outcome(
    instance: &Instance,
    plan: &FaultPlan,
    out: &FaultyOutcome,
) -> Result<(), VerifyError> {
    let claimed = out.completions.iter().copied();
    verify_replay(instance, plan, &out.executed, claimed, out.objective)
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
    use coflow_netsim::{FaultEvent, Run, Transfer, ValidationError};

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

    /// The replay's verdict on `out` against `plan`, which must be an
    /// invalid trace.
    fn invalid(instance: &Instance, plan: &FaultPlan, out: &FaultyOutcome) -> ValidationError {
        match verify_faulty_outcome(instance, plan, out) {
            Err(VerifyError::InvalidTrace(e)) => e,
            other => panic!("expected an invalid trace, got {:?}", other),
        }
    }

    #[test]
    fn rejects_service_after_a_cancellation_even_when_complete() {
        let instance = inst();
        let out = clean_outcome(&instance);
        // Against a plan cancelling coflow 1 in its completion slot, the
        // outcome serves it after the cancellation yet reports it complete.
        let at = out.completions[1].expect("clean run completes coflow 1");
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 1, at }]);
        let err = invalid(&instance, &plan, &out);
        assert!(
            matches!(err, ValidationError::ServedAfterCancellation { coflow: 1, slot, .. } if slot == at),
            "{:?}",
            err
        );
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
        assert_eq!(
            verify_faulty_outcome(&instance, &plan, &out),
            Err(VerifyError::CompletionMismatch {
                coflow: 0,
                claimed: Some(c + 1),
                replayed: Some(c)
            })
        );
    }

    #[test]
    fn rejects_an_objective_one_ulp_off() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 2, at: 3 }]);
        let mut out = replan(&instance, &spec, &SimplexOptions::default(), &plan);
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        let recomputed = objective_of(&instance, &out.completions);
        assert_eq!(out.objective.to_bits(), recomputed.to_bits());
        out.objective = f64::from_bits(out.objective.to_bits() + 1);
        assert_eq!(
            verify_faulty_outcome(&instance, &plan, &out),
            Err(VerifyError::ObjectiveMismatch {
                claimed: out.objective,
                recomputed
            })
        );
    }

    #[test]
    fn rejects_a_completion_per_coflow_of_another_instance() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        out.completions.pop();
        assert_eq!(
            verify_faulty_outcome(&instance, &FaultPlan::default(), &out),
            Err(VerifyError::CompletionCount {
                reported: 2,
                coflows: 3
            })
        );
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

    /// Appends a 1-slot run after the makespan carrying one unit.
    fn append_unit(out: &mut FaultyOutcome, src: usize, dst: usize, coflow: usize) {
        let start = out.executed.makespan() + 1;
        let transfer = Transfer::new(src, dst, coflow).unwrap();
        out.executed.push_run(Run {
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
        assert_eq!(
            invalid(&instance, &plan, &out),
            ValidationError::LinkClosed {
                run: 0,
                slot,
                src: t.src(),
                dst: t.dst()
            }
        );
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
        assert_eq!(
            invalid(&instance, &plan, &out),
            ValidationError::LinkClosed {
                run: 1,
                slot,
                src: t.src(),
                dst: t.dst()
            }
        );
    }

    #[test]
    fn rejects_over_delivery_on_a_pair_with_demand() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        append_unit(&mut out, 0, 0, 0); // coflow 0 demands 3 units on (0, 0)
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::OverDelivery {
                coflow: 0,
                src: 0,
                dst: 0
            }
        );
    }

    #[test]
    fn rejects_delivery_on_a_pair_with_zero_demand() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        append_unit(&mut out, 1, 0, 0); // coflow 0 demands nothing on (1, 0)
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::OverDelivery {
                coflow: 0,
                src: 1,
                dst: 0
            }
        );
    }

    #[test]
    fn rejects_two_transfers_on_one_port_in_a_slot() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let run = &mut out.executed.runs[0];
        let t = run.transfers[0];
        let twin = Transfer::new(t.src(), 1 - t.dst(), t.coflow()).unwrap();
        run.transfers = [&run.transfers[..], &[twin]].concat().into();
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::PortReused {
                run: 0,
                port: t.src(),
                ingress: true
            }
        );
    }

    #[test]
    fn rejects_a_last_run_stretched_by_one_slot() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        // Every transfer of the last run delivers its pair's last unit:
        // one more slot moves a unit nobody demands.
        let run = out.executed.runs.last_mut().expect("a clean run executes");
        run.duration += 1;
        let t = run.transfers[0];
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::OverDelivery {
                coflow: t.coflow(),
                src: t.src(),
                dst: t.dst()
            }
        );
    }

    #[test]
    fn rejects_a_zero_slot_run_and_overlapping_runs() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        out.executed.runs[0].duration = 0;
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::RunLength {
                run: 0,
                start: run_start(&out, 0),
                duration: 0
            }
        );
        let mut out = clean_outcome(&instance);
        let first = out.executed.runs[0].clone();
        out.executed.runs.insert(1, first.clone());
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::RunOverlap {
                run: 1,
                start: first.start,
                free_from: first.start + first.duration
            }
        );
    }

    /// The first executed run that lasts more than one slot, with its
    /// index.
    fn long_run(out: &FaultyOutcome) -> (usize, &Run) {
        let long = out
            .executed
            .runs
            .iter()
            .enumerate()
            .find(|(_, r)| r.duration > 1);
        long.expect("the clean run holds a matching for two slots or more")
    }

    #[test]
    fn rejects_an_outage_inside_a_run() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let (r, run) = long_run(&out);
        let (last, t) = (run.start + run.duration - 1, run.transfers[0]);
        // Only the run's last slot is down.
        let plan = FaultPlan::new(vec![FaultEvent::EgressOutage {
            port: t.dst(),
            start: last,
            end: last,
        }]);
        assert_eq!(
            invalid(&instance, &plan, &out),
            ValidationError::LinkClosed {
                run: r,
                slot: last,
                src: t.src(),
                dst: t.dst()
            }
        );
    }

    #[test]
    fn rejects_a_cancellation_inside_a_run() {
        let instance = inst();
        let out = clean_outcome(&instance);
        let (r, run) = long_run(&out);
        let (last, t) = (run.start + run.duration - 1, run.transfers[0]);
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled {
            coflow: t.coflow(),
            at: last,
        }]);
        assert_eq!(
            invalid(&instance, &plan, &out),
            ValidationError::ServedAfterCancellation {
                run: r,
                coflow: t.coflow(),
                slot: last
            }
        );
    }

    #[test]
    fn rejects_an_unknown_coflow() {
        let instance = inst();
        let mut out = clean_outcome(&instance);
        let t = out.executed.runs[0].transfers[0];
        out.executed.runs[0].transfers[0] =
            Transfer::new(t.src(), t.dst(), instance.len()).unwrap();
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::UnknownCoflow {
                coflow: instance.len()
            }
        );
    }

    #[test]
    fn rejects_a_port_outside_the_fabric() {
        let instance = inst();
        let m = instance.ports();
        for (src, dst) in [(m, 0), (0, m)] {
            let mut out = clean_outcome(&instance);
            append_unit(&mut out, src, dst, 0);
            assert_eq!(
                invalid(&instance, &FaultPlan::default(), &out),
                ValidationError::PortOutOfRange {
                    run: out.executed.runs.len() - 1,
                    port: m,
                    ports: m
                }
            );
        }
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
        assert_eq!(
            invalid(&late, &FaultPlan::default(), &out),
            ValidationError::ReleaseViolated {
                run: 0,
                coflow: t.coflow(),
                slot,
                release: slot
            }
        );
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
        let mut kept = run.transfers.to_vec();
        kept.retain(|t| t.coflow() != 0);
        assert_eq!(kept.len() + 1, run.transfers.len(), "a matching");
        run.transfers = kept.into();
        let dropped = run.duration;
        assert_eq!(
            invalid(&instance, &FaultPlan::default(), &out),
            ValidationError::UnderDelivery {
                coflow: 0,
                missing: dropped
            }
        );
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
