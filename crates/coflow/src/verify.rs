//! End-to-end verification of schedule outcomes.
//!
//! Ties the scheduler's own accounting to the independent `coflow-netsim`
//! replay: the recorded trace must satisfy every constraint of problem (O)
//! and reproduce the claimed completion times and objective.

use crate::instance::Instance;
use crate::sched::ScheduleOutcome;
use coflow_netsim::{validate_trace, ValidationError};

/// Why an outcome failed verification.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// The trace violates a constraint of problem (O).
    InvalidTrace(ValidationError),
    /// The trace is valid but yields different completion times.
    CompletionMismatch {
        /// Coflow with the discrepancy.
        coflow: usize,
        /// Completion claimed by the scheduler.
        claimed: u64,
        /// Completion recomputed from the trace.
        replayed: u64,
    },
    /// The objective does not match `Σ w_k C_k` of the claimed completions.
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

/// Evidence produced by a successful verification: the independently
/// replayed quantities plus the ordering the scheduler committed to, so
/// downstream consumers (diagnostics, CLIs) can report them without
/// re-deriving anything.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// The scheduler's coflow permutation (indices into the instance).
    pub order: Vec<usize>,
    /// Completion slots re-derived by the independent netsim replay.
    pub replayed_completions: Vec<u64>,
    /// `Σ w_k C_k` recomputed from the replayed completions.
    pub objective: f64,
}

/// Fully verifies `outcome` against `instance`. On success returns the
/// replay evidence ([`VerifyReport`]); existing callers that only care
/// about pass/fail keep working unchanged.
pub fn verify_outcome(
    instance: &Instance,
    outcome: &ScheduleOutcome,
) -> Result<VerifyReport, VerifyError> {
    let replayed = validate_trace(instance.demands(), &instance.releases(), &outcome.trace)
        .map_err(VerifyError::InvalidTrace)?;
    for (k, (&claimed, &actual)) in outcome.completions.iter().zip(replayed.iter()).enumerate() {
        if claimed != actual {
            return Err(VerifyError::CompletionMismatch {
                coflow: k,
                claimed,
                replayed: actual,
            });
        }
    }
    let recomputed = instance.objective(&outcome.completions);
    if (recomputed - outcome.objective).abs() > 1e-6 * (1.0 + recomputed.abs()) {
        return Err(VerifyError::ObjectiveMismatch {
            claimed: outcome.objective,
            recomputed,
        });
    }
    Ok(VerifyReport {
        order: outcome.order.clone(),
        replayed_completions: replayed,
        objective: recomputed,
    })
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
        let report = verify_outcome(&inst, &out).expect("outcome must verify");
        assert_eq!(report.order, out.order);
        assert_eq!(report.replayed_completions, out.completions);
        assert!((report.objective - out.objective).abs() < 1e-9);
    }

    #[test]
    fn detects_tampered_completions() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        out.completions[0] += 1;
        assert!(matches!(
            verify_outcome(&inst, &out),
            Err(VerifyError::CompletionMismatch { .. })
        ));
    }

    #[test]
    fn detects_tampered_objective() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        out.objective += 100.0;
        assert!(matches!(
            verify_outcome(&inst, &out),
            Err(VerifyError::ObjectiveMismatch { .. })
        ));
    }
}
