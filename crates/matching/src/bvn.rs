//! Birkhoff–von Neumann decomposition of nonnegative integer matrices
//! (Algorithm 1 of the paper, proving Lemma 4).
//!
//! Given a coflow matrix `D` with load `ρ(D)` (maximum row/column sum), the
//! decomposition
//!
//! 1. *augments* `D` to `D̃ ≥ D` whose row and column sums all equal `ρ(D)`
//!    (Step 1 — at most `2m − 1` augmenting entries), and
//! 2. *decomposes* `D̃ = Σ_u q_u Π_u` into at most `m²` scaled permutation
//!    matrices, each found as a perfect matching of the support graph
//!    (Step 2 — existence guaranteed by Hall's theorem).
//!
//! Since `Σ_u q_u = ρ(D)`, processing the coflow with matching `Π_u` for
//! `q_u` consecutive slots finishes it in exactly `ρ(D)` slots — matching the
//! universal lower bound, i.e. the schedule is optimal for a lone coflow.

use crate::bipartite::BipartiteGraph;
use crate::hopcroft_karp::HopcroftKarp;
use crate::matrix::{IntMatrix, Permutation};

/// One term `q · Π` of the decomposition: run matching `perm` for `count`
/// consecutive time slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchingSlot {
    /// The permutation (perfect matching) to run.
    pub perm: Permutation,
    /// Number of consecutive slots it is run for (`q_u` in the paper).
    pub count: u64,
}

/// The full output of Algorithm 1 for one matrix.
#[derive(Clone, Debug)]
pub struct BvnDecomposition {
    /// The augmented matrix `D̃` (row/col sums all equal `load`).
    pub augmented: IntMatrix,
    /// The scaled permutations, in the order they were peeled off.
    pub slots: Vec<MatchingSlot>,
    /// `ρ(D)` — also `Σ_u q_u`.
    pub load: u64,
}

impl BvnDecomposition {
    /// Total number of time slots covered, `Σ_u q_u` (equals `load`).
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().map(|s| s.count).sum()
    }

    /// Reconstructs `Σ_u q_u Π_u`; equals `augmented` by construction.
    pub fn reconstruct(&self) -> IntMatrix {
        let m = self.augmented.dim();
        let mut out = IntMatrix::zeros(m);
        for slot in &self.slots {
            for (i, j) in slot.perm.pairs() {
                out[(i, j)] += slot.count;
            }
        }
        out
    }
}

/// Step 1 of Algorithm 1: augment `D` to `D̃ ≥ D` with all row and column
/// sums equal to `ρ(D)`.
///
/// Repeatedly picks the rows/columns with minimum sum and raises the entry at
/// their intersection until one of them saturates; each iteration saturates at
/// least one row or column, so at most `2m − 1` entries are touched.
pub fn augment_to_balanced(d: &IntMatrix) -> IntMatrix {
    let m = d.dim();
    let rho = d.load();
    let mut out = d.clone();
    if m == 0 || rho == 0 {
        return out;
    }
    let mut row_sums = out.row_sums();
    let mut col_sums = out.col_sums();
    loop {
        let (i_star, &r_min) = row_sums
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .unwrap_or_else(|| unreachable!("m > 0"));
        let (j_star, &c_min) = col_sums
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .unwrap_or_else(|| unreachable!("m > 0"));
        let eta = r_min.min(c_min);
        if eta >= rho {
            break;
        }
        let p = (rho - row_sums[i_star]).min(rho - col_sums[j_star]);
        debug_assert!(p > 0, "augmentation must make progress");
        out[(i_star, j_star)] += p;
        row_sums[i_star] += p;
        col_sums[j_star] += p;
    }
    debug_assert!(out.is_doubly_balanced(rho));
    debug_assert!(out.dominates(d));
    out
}

/// Step 2 of Algorithm 1: decompose a doubly-balanced matrix into scaled
/// permutation matrices by repeatedly peeling off a perfect matching of the
/// support graph.
///
/// The support graph is built once and maintained incrementally: peeling a
/// matching only ever *removes* edges (the matched entries that hit zero),
/// and [`BipartiteGraph::remove_edge`] preserves neighbor order, so the
/// graph seen by every round is identical — edge for edge, order for order —
/// to `BipartiteGraph::support_of(&work)` rebuilt from scratch. Combined
/// with the cold solver's pinned pair-for-pair behavior this makes the
/// decomposition *byte-identical* to the original per-round-rebuild
/// implementation while skipping the `O(m²)` matrix rescan per round.
///
/// Panics if the matrix is not doubly balanced (callers should augment
/// first); in that case a perfect matching need not exist.
pub fn decompose_balanced(balanced: &IntMatrix) -> Vec<MatchingSlot> {
    let rho = balanced.load();
    assert!(
        balanced.is_doubly_balanced(rho),
        "decompose_balanced requires equal row/column sums"
    );
    let m = balanced.dim();
    let mut work = balanced.clone();
    let mut slots = Vec::new();
    let mut hk = HopcroftKarp::new();
    let mut g = BipartiteGraph::support_of(&work);
    let mut remaining = rho;
    while remaining > 0 {
        let size = hk.run_cold(&g);
        assert!(
            size == m,
            "Hall's theorem violated: balanced matrix support must have a perfect matching"
        );
        let perm = Permutation::new(hk.left_assignment().to_vec());
        let q = perm
            .pairs()
            .map(|(i, j)| work[(i, j)])
            .min()
            .unwrap_or_else(|| unreachable!("nonempty matrix"));
        debug_assert!(q > 0);
        for (i, j) in perm.pairs() {
            work[(i, j)] -= q;
            if work[(i, j)] == 0 {
                g.remove_edge(i, j);
            }
        }
        remaining -= q;
        slots.push(MatchingSlot { perm, count: q });
    }
    debug_assert!(work.is_zero());
    slots
}

/// Publishes per-decomposition observability stats shared by the greedy
/// and max-min variants: permutation counts against the paper's
/// `m² − 2m + 2` bound (Theorem 3) and a per-matrix histogram.
pub(crate) fn record_decomposition_stats(dim: usize, num_slots: usize) {
    if !obs::enabled() {
        return;
    }
    let m = dim as u64;
    obs::counter_add("matching.bvn.decompositions", 1);
    obs::counter_add("matching.bvn.permutations", num_slots as u64);
    obs::counter_add("matching.bvn.perm_bound", (m * m).saturating_sub(2 * m) + 2);
    obs::record_value("matching.bvn.perms_per_matrix", num_slots as u64);
}

/// Runs both steps of Algorithm 1 on an arbitrary nonnegative integer matrix.
pub fn bvn_decompose(d: &IntMatrix) -> BvnDecomposition {
    let _span = obs::span("matching.bvn_decompose");
    let load = d.load();
    let augmented = augment_to_balanced(d);
    let slots = if load == 0 {
        Vec::new()
    } else {
        decompose_balanced(&augmented)
    };
    record_decomposition_stats(d.dim(), slots.len());
    BvnDecomposition {
        augmented,
        slots,
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_valid_decomposition(d: &IntMatrix) {
        let dec = bvn_decompose(d);
        // Lemma 4: total slot count equals rho(D).
        assert_eq!(dec.total_slots(), d.load());
        // Augmented matrix dominates D and is doubly balanced.
        assert!(dec.augmented.dominates(d));
        assert!(dec.augmented.is_doubly_balanced(d.load()));
        // Reconstruction equals the augmented matrix exactly.
        assert_eq!(dec.reconstruct(), dec.augmented);
        // Number of distinct matchings is at most m^2 (polynomial schedule).
        assert!(dec.slots.len() <= d.dim() * d.dim().max(1));
    }

    #[test]
    fn fig1_decomposes_in_three_slots() {
        // Paper Figure 1: [[1,2],[2,1]] completes in 3 slots.
        let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let dec = bvn_decompose(&d);
        assert_eq!(dec.total_slots(), 3);
        assert_eq!(dec.augmented, d); // already balanced
        check_valid_decomposition(&d);
    }

    #[test]
    fn zero_matrix_decomposes_trivially() {
        let d = IntMatrix::zeros(3);
        let dec = bvn_decompose(&d);
        assert_eq!(dec.total_slots(), 0);
        assert!(dec.slots.is_empty());
    }

    #[test]
    fn single_entry_matrix() {
        let mut d = IntMatrix::zeros(3);
        d[(1, 2)] = 7;
        check_valid_decomposition(&d);
        let dec = bvn_decompose(&d);
        assert_eq!(dec.total_slots(), 7);
    }

    #[test]
    fn skewed_matrix_augments() {
        // Row 0 dominates; augmentation must fill other rows/cols.
        let d = IntMatrix::from_nested(&[[5, 5, 5], [1, 0, 0], [0, 1, 0]]);
        assert_eq!(d.load(), 15);
        check_valid_decomposition(&d);
    }

    #[test]
    fn appendix_b_first_matrix() {
        let d = IntMatrix::from_nested(&[[9, 0, 9], [0, 9, 0], [9, 0, 9]]);
        let dec = bvn_decompose(&d);
        assert_eq!(dec.total_slots(), 18);
        check_valid_decomposition(&d);
    }

    #[test]
    fn appendix_b_aggregate() {
        let d1 = IntMatrix::from_nested(&[[9, 0, 9], [0, 9, 0], [9, 0, 9]]);
        let d2 = IntMatrix::from_nested(&[[1, 10, 1], [10, 1, 10], [1, 10, 1]]);
        let agg = &d1 + &d2;
        // Aggregate loads: every row/col sums to 30.
        assert_eq!(agg.load(), 30);
        check_valid_decomposition(&agg);
    }

    #[test]
    fn diagonal_matrix_uses_identity_like_slots() {
        let d = IntMatrix::diagonal(&[4, 2, 4]);
        let dec = bvn_decompose(&d);
        assert_eq!(dec.total_slots(), 4);
        // Every slot must cover all three diagonal positions after
        // augmentation; original diagonal demand is served within load slots.
        assert!(dec.augmented.dominates(&d));
    }

    #[test]
    #[should_panic(expected = "equal row/column sums")]
    fn decompose_rejects_unbalanced() {
        let d = IntMatrix::from_nested(&[[1, 0], [0, 2]]);
        let _ = decompose_balanced(&d);
    }

    /// The original per-round-rebuild implementation, kept as the faithful
    /// reference for the incremental-support fast path.
    fn decompose_balanced_reference(balanced: &IntMatrix) -> Vec<MatchingSlot> {
        let rho = balanced.load();
        assert!(balanced.is_doubly_balanced(rho));
        let mut work = balanced.clone();
        let mut slots = Vec::new();
        let mut hk = HopcroftKarp::new();
        let mut remaining = rho;
        while remaining > 0 {
            let g = BipartiteGraph::support_of(&work);
            let matching = hk.solve(&g);
            assert!(matching.is_left_perfect());
            let map: Vec<usize> = matching
                .pair_left
                .iter()
                .map(|v| v.unwrap_or_else(|| unreachable!("perfect matching")))
                .collect();
            let perm = Permutation::new(map);
            let q = perm
                .pairs()
                .map(|(i, j)| work[(i, j)])
                .min()
                .unwrap_or_else(|| unreachable!("nonempty matrix"));
            for (i, j) in perm.pairs() {
                work[(i, j)] -= q;
            }
            remaining -= q;
            slots.push(MatchingSlot { perm, count: q });
        }
        slots
    }

    fn random_balanced(m: usize, max: u64, seed: u64) -> IntMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = IntMatrix::zeros(m);
        for i in 0..m {
            for j in 0..m {
                if rng.gen_bool(0.6) {
                    d[(i, j)] = rng.gen_range(0..=max);
                }
            }
        }
        augment_to_balanced(&d)
    }

    #[test]
    fn incremental_decompose_is_slot_identical_to_reference() {
        // The acceptance contract of the fast path: not merely a valid
        // decomposition, but the *same* slot sequence the original
        // implementation produced — this is what keeps grouped/backfilled
        // schedules bit-identical.
        for seed in 0..40 {
            let m = 2 + (seed as usize % 7);
            let d = random_balanced(m, 12, seed);
            if d.load() == 0 {
                continue;
            }
            let fast = decompose_balanced(&d);
            let reference = decompose_balanced_reference(&d);
            assert_eq!(fast, reference, "seed {}", seed);
        }
    }
}
