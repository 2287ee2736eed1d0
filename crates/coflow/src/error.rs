//! Typed scheduling-pipeline errors.

use coflow_lp::LpError;
use std::fmt;

/// A failure inside the scheduling pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The LP relaxation behind an ordering rule failed.
    Lp {
        /// Display name of the rule whose LP failed (e.g. `H_LP`).
        rule: &'static str,
        /// The underlying solver error.
        source: LpError,
    },
    /// Every tier of an ordering fallback chain failed. Unreachable with
    /// the built-in chain (heuristic tiers are infallible), but kept for
    /// caller-supplied chains.
    Exhausted {
        /// `(rule name, error)` per failed tier, in attempt order.
        attempts: Vec<(&'static str, String)>,
    },
    /// A policy produced a decision the engine cannot apply (e.g. one that
    /// would leave the clock where it is).
    Unsupported {
        /// What was requested and why it cannot be honored.
        what: &'static str,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Lp { rule, source } => {
                write!(f, "ordering rule {} failed: {}", rule, source)
            }
            SchedError::Exhausted { attempts } => {
                write!(f, "all ordering tiers failed:")?;
                for (rule, err) in attempts {
                    write!(f, " [{}: {}]", rule, err)?;
                }
                Ok(())
            }
            SchedError::Unsupported { what } => {
                write!(f, "unsupported engine decision: {}", what)
            }
        }
    }
}

impl std::error::Error for SchedError {}
