//! Umbrella crate for the coflow-scheduling reproduction.
//!
//! Re-exports the workspace crates so the examples and the integration test
//! suite can use a single dependency. See the individual crates for the
//! real APIs:
//!
//! * [`coflow`] — the paper's algorithms (relaxations, orderings, grouping,
//!   schedulers, bounds, verification);
//! * [`coflow_matching`] — Birkhoff–von Neumann decomposition and bipartite
//!   matching;
//! * [`coflow_lp`] — the from-scratch revised-simplex LP solver;
//! * [`coflow_netsim`] — the switch-fabric executor and trace validator;
//! * [`coflow_workloads`] — synthetic traces, filters, weights, and I/O.

pub use coflow;
pub use coflow_lp;
pub use coflow_matching;
pub use coflow_netsim;
pub use coflow_workloads;
