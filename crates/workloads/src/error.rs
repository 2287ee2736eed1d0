//! Typed errors for trace I/O.

use std::fmt;

/// Error parsing a trace file (CSV or JSON), carrying the 1-based line
/// number and, where known, the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Structurally malformed input (bad JSON syntax, wrong field count,
    /// missing key, wrong value shape).
    Syntax {
        /// 1-based line of the problem.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A field is present but its value cannot be interpreted.
    BadField {
        /// 1-based line of the row.
        line: usize,
        /// Field name (`src`, `mb`, `weight`, …).
        field: String,
        /// The offending raw value.
        value: String,
        /// Why it was rejected.
        message: String,
    },
    /// A port index is outside the fabric.
    PortRange {
        /// 1-based line of the row.
        line: usize,
        /// Field name (`src` or `dst`).
        field: String,
        /// The out-of-range index.
        value: usize,
        /// Number of ports in the fabric.
        ports: usize,
    },
}

impl TraceError {
    /// The 1-based line the error was detected on.
    pub fn line(&self) -> usize {
        match self {
            TraceError::Syntax { line, .. }
            | TraceError::BadField { line, .. }
            | TraceError::PortRange { line, .. } => *line,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Syntax { line, message } => {
                write!(f, "line {}: {}", line, message)
            }
            TraceError::BadField {
                line,
                field,
                value,
                message,
            } => {
                write!(
                    f,
                    "line {}: field '{}' = {:?}: {}",
                    line, field, value, message
                )
            }
            TraceError::PortRange {
                line,
                field,
                value,
                ports,
            } => {
                write!(
                    f,
                    "line {}: field '{}' = {} out of range for {}-port fabric",
                    line, field, value, ports
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}
