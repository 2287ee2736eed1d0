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
            SchedError::Unsupported { what } => {
                write!(f, "unsupported engine decision: {}", what)
            }
        }
    }
}

impl std::error::Error for SchedError {}
