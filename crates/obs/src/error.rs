//! Typed observability errors, following the workspace convention of one
//! error enum per library crate.

use std::fmt;

/// A failure inside the observability layer. Instrumentation itself never
/// fails (recording is infallible by design); errors only arise at the
/// edges — writing sink output to disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsError {
    /// Writing sink output to a file failed.
    Io {
        /// Path that could not be written.
        path: String,
        /// Operating-system error message.
        message: String,
    },
    /// A ledger record held a number JSON cannot carry (NaN or ±inf), so
    /// it was not appended: one such line would make the file unreadable.
    NonFinite {
        /// Ledger the record was meant for.
        path: String,
        /// The field, as the reader names it (`elapsed_ms`,
        /// `objectives.H_LP/d`, …).
        field: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io { path, message } => {
                write!(f, "cannot write {}: {}", path, message)
            }
            ObsError::NonFinite { path, field } => {
                write!(f, "cannot append to {}: {} is not finite", path, field)
            }
        }
    }
}

impl std::error::Error for ObsError {}
