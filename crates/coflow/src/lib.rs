//! Coflow scheduling to minimize total weighted completion time — a full
//! reproduction of Qiu, Stein & Zhong (SPAA 2015).
//!
//! The paper gives the first polynomial-time constant-factor approximation
//! algorithms (deterministic 67/3, randomized 9 + 16√2/3) for scheduling
//! *coflows* — parallel flow collections on an `m × m` non-blocking switch —
//! with release dates. This crate implements the complete pipeline:
//!
//! 1. [`relax`] — the interval-indexed LP relaxation (§2.1), solved by the
//!    from-scratch simplex in `coflow-lp`, yielding fractional completion
//!    times `C̄_k` and the ordering (15); also the time-indexed (LP-EXP)
//!    lower bound;
//! 2. [`ordering`] — the ordering stage (`H_A`, `H_ρ`, `H_LP`);
//! 3. [`grouping`] — Step 2 of Algorithm 2: partition by cumulative maximum
//!    loads `V_k` into doubling intervals;
//! 4. [`sched`] — the scheduling stage: per-group Birkhoff–von Neumann
//!    schedules with optional backfilling ([`run`], [`run_with_order`]),
//!    the randomized grid variant ([`run_randomized`]), the `H_LP → H_ρ →
//!    H_A` fallback chain ([`run_resilient`]), and an exact solver for tiny
//!    instances. Every other scheduler — online, greedy, the successor
//!    papers' policies, the fault-aware replanner — is a [`Policy`] named
//!    in the [`PolicyRegistry`] and run by the engine ([`run_policy`],
//!    [`run_policy_with_faults`]);
//! 5. [`bounds`] / [`verify`] — lower bounds and end-to-end schedule
//!    verification.
//!
//! ```
//! use coflow::{Coflow, Instance};
//! use coflow::sched::{run, AlgorithmSpec};
//! use coflow_matching::IntMatrix;
//!
//! // Figure 1: one 2×2 MapReduce shuffle; Algorithm 2 completes it in the
//! // minimum possible 3 slots.
//! let shuffle = Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]));
//! let instance = Instance::new(2, vec![shuffle]);
//! let outcome = run(&instance, &AlgorithmSpec::algorithm2());
//! assert_eq!(outcome.completions, vec![3]);
//! ```

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod analysis;
pub mod bounds;
pub mod coflow;
pub mod diagnostics;
pub mod error;
pub mod grouping;
pub mod instance;
pub mod intervals;
pub mod ordering;
pub mod relax;
pub mod sched;
pub mod verify;

pub use crate::analysis::{analyze, serialization_overhead, ScheduleAnalysis};
pub use crate::coflow::{Coflow, CoflowLoads, Demand};
pub use crate::diagnostics::{
    diagnose, diagnose_faulty, Anomaly, CoflowReport, Detector, DiagnosticsConfig,
    ScheduleDiagnostics, Severity,
};
pub use crate::error::SchedError;
pub use crate::grouping::{group_by_doubling, group_by_grid, Groups};
pub use crate::instance::Instance;
pub use crate::intervals::GeometricGrid;
pub use crate::ordering::{
    compute_order, load_over_weight_order, permutation_by_key, port_primal_dual_order,
    try_compute_order, try_compute_order_with, OrderRule,
};
pub use crate::relax::{
    solve_interval_lp, solve_time_indexed_lp, solve_with_grid, try_solve_interval_lp,
    try_solve_interval_lp_with, LpExpRelaxation, LpRelaxation,
};
pub use crate::sched::engine::{
    greedy_match, run_policy, run_policy_with_faults, BvnBatchPolicy, Decision, Engine,
    EngineError, EpochState, HeartbeatPacer, OnlineOptions, OnlineRhoPolicy, Policy,
    ResilientPolicy,
};
pub use crate::sched::ordered::{GreedyPolicy, ImPurohitPolicy, ShafieeGhaderiPolicy};
pub use crate::sched::recovery::{verify_faulty_outcome, FaultyOutcome};
pub use crate::sched::registry::{PolicyCaps, PolicyEntry, PolicyRegistry};
pub use crate::sched::resilient::{fallback_chain, run_resilient, FailedAttempt, ResilientOutcome};
pub use crate::sched::snapshot::{ActiveBatchState, EngineSnapshot, PolicyState, SNAPSHOT_SCHEMA};
pub use crate::sched::watchdog::{WatchdogConfig, WatchdogPolicy, LADDER_TIER_BASE};
pub use crate::sched::{
    run, run_randomized, run_with_order, AlgorithmSpec, ExecOptions, ScheduleOutcome,
};
pub use crate::verify::{verify_outcome, VerifyError, VerifyReport};

/// The deterministic approximation ratio proven in Theorem 1.
pub const DETERMINISTIC_RATIO: f64 = 67.0 / 3.0;

/// The deterministic ratio for zero release dates (Corollary 1).
pub const DETERMINISTIC_RATIO_NO_RELEASE: f64 = 64.0 / 3.0;

/// The randomized approximation ratio of Theorem 2: `9 + 16√2/3`.
pub fn randomized_ratio() -> f64 {
    9.0 + 16.0 * std::f64::consts::SQRT_2 / 3.0
}

/// The randomized ratio for zero release dates (Corollary 2): `8 + 16√2/3`.
pub fn randomized_ratio_no_release() -> f64 {
    8.0 + 16.0 * std::f64::consts::SQRT_2 / 3.0
}
