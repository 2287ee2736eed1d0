//! End-to-end verification of schedule outcomes.
//!
//! Ties the scheduler's own accounting to the independent `coflow-netsim`
//! replay: the recorded trace must satisfy every constraint of problem (O)
//! under the fault plan it ran under (the empty plan for a clean run) and
//! reproduce the claimed completion times and, bit for bit, the objective.
//! A clean outcome ([`verify_outcome`]) and a faulted one
//! ([`verify_faulty_outcome`](crate::sched::recovery::verify_faulty_outcome))
//! go through the same replay, [`validate_trace`].

use crate::instance::Instance;
use crate::sched::ScheduleOutcome;
use coflow_netsim::{validate_trace, FaultPlan, ScheduleTrace, ValidationError};

/// Why an outcome failed verification.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// The trace violates a constraint of problem (O) or of the fault plan.
    InvalidTrace(ValidationError),
    /// The outcome reports a completion per coflow of another instance.
    CompletionCount {
        /// Completions reported.
        reported: usize,
        /// Coflows in the instance.
        coflows: usize,
    },
    /// The trace is valid but yields different completion times.
    CompletionMismatch {
        /// Coflow with the discrepancy.
        coflow: usize,
        /// Completion claimed by the scheduler (`None`: cancelled).
        claimed: Option<u64>,
        /// Completion recomputed from the trace (`None`: cancelled).
        replayed: Option<u64>,
    },
    /// The objective is not `Σ w_k C_k` over the completed coflows, summed
    /// in coflow order, bit for bit.
    ObjectiveMismatch {
        /// Claimed objective.
        claimed: f64,
        /// Recomputed objective.
        recomputed: f64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl std::error::Error for VerifyError {}

/// Fully verifies a clean `outcome` against `instance`: its trace replays
/// under the empty plan, every coflow completes where the outcome says,
/// and the objective is `Σ w_k C_k` recomputed in coflow order, as
/// [`run_policy`](crate::run_policy) sums it.
pub fn verify_outcome(instance: &Instance, outcome: &ScheduleOutcome) -> Result<(), VerifyError> {
    let claimed = outcome.completions.iter().map(|&c| Some(c));
    verify_replay(
        instance,
        &FaultPlan::default(),
        &outcome.trace,
        claimed,
        outcome.objective,
    )
}

/// Replays `trace` against `instance` under `plan` ([`validate_trace`]),
/// then checks the `claimed` completions against the replay's and the
/// claimed `objective` against `Σ w·C` over the replay's completed
/// coflows, in coflow order, bit for bit.
pub(crate) fn verify_replay(
    instance: &Instance,
    plan: &FaultPlan,
    trace: &ScheduleTrace,
    claimed: impl ExactSizeIterator<Item = Option<u64>>,
    objective: f64,
) -> Result<(), VerifyError> {
    if claimed.len() != instance.len() {
        return Err(VerifyError::CompletionCount {
            reported: claimed.len(),
            coflows: instance.len(),
        });
    }
    let replayed = validate_trace(instance.demands(), &instance.releases(), plan, trace)
        .map_err(VerifyError::InvalidTrace)?;
    for (coflow, (claimed, &replayed)) in claimed.zip(&replayed).enumerate() {
        if claimed != replayed {
            return Err(VerifyError::CompletionMismatch {
                coflow,
                claimed,
                replayed,
            });
        }
    }
    let recomputed: f64 = replayed
        .iter()
        .zip(instance.coflows())
        .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
        .sum();
    if recomputed.to_bits() != objective.to_bits() {
        return Err(VerifyError::ObjectiveMismatch {
            claimed: objective,
            recomputed,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::ordering::OrderRule;
    use crate::sched::{run, AlgorithmSpec};
    use coflow_matching::IntMatrix;

    #[test]
    fn verifies_a_correct_outcome() {
        let inst = Instance::new(
            2,
            vec![
                Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]])),
                Coflow::new(1, IntMatrix::from_nested(&[[0, 3], [1, 0]])),
            ],
        );
        let out = run(
            &inst,
            &AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
        );
        verify_outcome(&inst, &out).expect("outcome must verify");
    }

    #[test]
    fn detects_tampered_completions() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        out.completions[0] += 1;
        assert_eq!(
            verify_outcome(&inst, &out),
            Err(VerifyError::CompletionMismatch {
                coflow: 0,
                claimed: Some(2),
                replayed: Some(1)
            })
        );
        out.completions.push(1);
        assert_eq!(
            verify_outcome(&inst, &out),
            Err(VerifyError::CompletionCount {
                reported: 2,
                coflows: 1
            })
        );
    }

    #[test]
    fn detects_tampered_objective() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        let recomputed = out.objective;
        out.objective = f64::from_bits(recomputed.to_bits() + 1);
        assert_eq!(
            verify_outcome(&inst, &out),
            Err(VerifyError::ObjectiveMismatch {
                claimed: out.objective,
                recomputed
            })
        );
    }
}
