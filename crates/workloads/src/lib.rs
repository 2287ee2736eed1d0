//! Workload generation for the coflow-scheduling experiments.
//!
//! The paper's evaluation uses a proprietary Facebook Hive/MapReduce trace
//! (150 racks, 1 MB-per-slot ports). This crate substitutes a calibrated
//! synthetic generator ([`facebook`]) plus the §4.1 filters and weight
//! schemes ([`filters`]), simple random families for tests and ablations
//! ([`synthetic`]), sampling primitives built on bare `rand`
//! ([`distributions`]), and JSON/CSV trace I/O ([`io`]) so real traces can
//! be substituted when available.

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod distributions;
pub mod error;
pub mod facebook;
pub mod filters;
pub mod io;
pub mod json;
pub mod stats;
pub mod stream;
pub mod synthetic;

pub use error::TraceError;

pub use facebook::{generate_trace, TraceConfig, FACEBOOK_RACKS};
pub use filters::{assign_weights, filter_by_width, WeightScheme};
pub use stats::{render_stats, trace_stats, TraceStats};
pub use stream::{CoflowStream, SparseCoflow, StreamConfig};
pub use synthetic::{
    appendix_b_instance, random_diagonal_instance, random_instance, random_instance_with_releases,
};
