//! The repo benchmark: registry policies timed end to end and per layer on
//! the path users run — instance → `PolicyRegistry` policy → `Engine` →
//! matching/BvN → `netsim` → verified outcome.
//!
//! The library crates are used only through their public API; each layer is
//! timed from outside, around calls into it, or read from the `obs`
//! registry in traced runs. See `README.md` for the workloads, the metrics
//! and which layer metric moves which end-to-end metric.

mod host;
mod measure;
pub mod metrics;
mod workload;

pub use measure::{run, RunConfig};
pub use metrics::{Report, END_TO_END, PER_LAYER};
pub use workload::Workload;
