//! A self-contained sparse LP solver (two-phase revised simplex).
//!
//! Built from scratch for the SPAA'15 coflow reproduction because the
//! offline crate set contains no LP solver. The engine is sized for the
//! paper's interval-indexed relaxation (LP) and time-indexed (LP-EXP):
//! thousands of rows/columns, very sparse, all-nonnegative data.
//!
//! * [`Model`] — build `min cᵀx` over `x ≥ 0` with `≤ / = / ≥` rows;
//! * [`solve`] / [`solve_with`] — presolve + two-phase revised simplex with
//!   sparse LU basis factors and a sparse product-form eta file;
//! * [`verify::certify`] — independent optimality certification via strong
//!   duality, used by the test suite on every optimum.
//!
//! ```
//! use coflow_lp::{Model, solve};
//!
//! // min  x + 2y   s.t.  x + y >= 4,  y >= 1
//! let mut m = Model::new();
//! let x = m.add_var(1.0);
//! let y = m.add_var(2.0);
//! m.add_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
//! m.add_ge(vec![(y, 1.0)], 1.0);
//! let sol = solve(&m);
//! assert!(sol.is_optimal());
//! assert!((sol.objective - 5.0).abs() < 1e-9); // x = 3, y = 1
//! ```

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod cache;
pub mod error;
pub mod lu;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod sparse;
pub mod verify;

pub use cache::{global_cache, try_solve_cached, BasisCache};
pub use error::LpError;
pub use model::{Constraint, Model, RowId, Sense, Solution, Status, VarId};
pub use simplex::{solve, solve_with, try_solve_with, SimplexOptions};
pub use sparse::{CscMatrix, TripletBuilder};
pub use verify::{certify, Certificate};
