//! Bipartite matching and Birkhoff–von Neumann decomposition.
//!
//! This crate is the matching-theory substrate of the SPAA'15 coflow
//! scheduling reproduction:
//!
//! * [`IntMatrix`] — dense nonnegative integer matrices (coflow demands)
//!   with row/column sums and the load `ρ(D)` of Eq. (18);
//! * [`BipartiteGraph`] + [`hopcroft_karp`] — maximum bipartite matching in
//!   `O(E √V)`;
//! * [`bvn`] — Algorithm 1 of the paper: augmentation of a matrix to equal
//!   row/column sums and its decomposition into at most `m²` scaled
//!   permutation matrices, which schedules a lone coflow in exactly `ρ(D)`
//!   matching slots (Lemma 4). It reads the matrix's nonzero entries and
//!   works on the augmented matrix's support, so its memory grows with the
//!   nonzeros, not with `m²`; [`bvn_decompose_keeping`] stores in each
//!   slot only the pairs its caller asks for.
//!
//! ```
//! use coflow_matching::{IntMatrix, bvn::bvn_decompose};
//!
//! // Figure 1 of the paper: the 2×2 MapReduce shuffle completes in 3 slots.
//! let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
//! let dec = bvn_decompose(d.dim(), d.nonzero_entries());
//! assert_eq!(dec.total_slots(), 3);
//! ```

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod bipartite;
pub mod bvn;
pub mod bvn_maxmin;
pub mod hopcroft_karp;
pub mod matrix;
#[cfg(test)]
mod reference;

pub use bipartite::BipartiteGraph;
pub use bvn::{bvn_decompose, bvn_decompose_keeping, BvnDecomposition};
pub use bvn_maxmin::bvn_decompose_maxmin;
pub use hopcroft_karp::{maximum_matching, HopcroftKarp, Matching};
pub use matrix::{IntMatrix, Permutation};
