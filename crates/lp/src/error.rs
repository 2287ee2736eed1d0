//! Typed solver errors.
//!
//! [`crate::simplex::try_solve_with`] classifies every way a solve can fail
//! to deliver a certified optimum, so callers (the coflow scheduling
//! pipeline in particular) can degrade deliberately instead of panicking.

use std::fmt;

/// A structured LP solver failure.
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// The pivot budget ([`crate::SimplexOptions::max_iterations`]) was
    /// exhausted before convergence.
    IterationLimit {
        /// Pivots performed.
        iterations: usize,
    },
    /// The wall-clock budget ([`crate::SimplexOptions::time_limit_ms`]) was
    /// exhausted before convergence.
    TimeLimit {
        /// Elapsed milliseconds when the solver gave up.
        elapsed_ms: u64,
        /// Pivots performed.
        iterations: usize,
    },
    /// The objective made no progress over the configured stall window —
    /// numerical cycling the degeneracy safeguards did not break.
    Stalled {
        /// Pivots performed.
        iterations: usize,
        /// The stall window that was exceeded.
        window: usize,
    },
    /// A basis refactorization found a numerically singular basis matrix.
    SingularBasis {
        /// Pivots performed when the factorization failed.
        iterations: usize,
    },
    /// The claimed solution violates the constraints by more than
    /// [`crate::SimplexOptions::max_residual`].
    ResidualBlowup {
        /// Observed maximum violation.
        residual: f64,
        /// The configured tolerance it exceeded.
        limit: f64,
    },
    /// Strong-duality certification of a claimed optimum failed
    /// ([`crate::SimplexOptions::verify_duality`]).
    CertificationFailed {
        /// Largest certificate residual.
        worst_residual: f64,
        /// The tolerance the certificate had to meet.
        tol: f64,
    },
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below. Also returned when phase 1's
    /// ratio test finds no entry of the entering column above
    /// [`crate::SimplexOptions::pivot_tol`]: phase 1 is bounded below by
    /// 0, so only a tolerance too large for the model gets there.
    Unbounded,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit { iterations } => {
                write!(f, "iteration budget exhausted after {} pivots", iterations)
            }
            LpError::TimeLimit {
                elapsed_ms,
                iterations,
            } => write!(
                f,
                "time budget exhausted after {} ms ({} pivots)",
                elapsed_ms, iterations
            ),
            LpError::Stalled { iterations, window } => write!(
                f,
                "objective stalled for {} consecutive pivots ({} total)",
                window, iterations
            ),
            LpError::SingularBasis { iterations } => {
                write!(f, "numerically singular basis after {} pivots", iterations)
            }
            LpError::ResidualBlowup { residual, limit } => write!(
                f,
                "solution residual {:.3e} exceeds tolerance {:.3e}",
                residual, limit
            ),
            LpError::CertificationFailed {
                worst_residual,
                tol,
            } => write!(
                f,
                "duality certification failed: residual {:.3e} > tol {:.3e}",
                worst_residual, tol
            ),
            LpError::Infeasible => write!(f, "infeasible constraints"),
            LpError::Unbounded => write!(f, "objective unbounded below"),
        }
    }
}

impl std::error::Error for LpError {}
