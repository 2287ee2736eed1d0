//! Property-based tests for the Birkhoff–von Neumann decomposition and
//! Hopcroft–Karp, checking the Lemma 4 invariants on random matrices.

use coflow_matching::bipartite::BipartiteGraph;
use coflow_matching::bvn::bvn_decompose;
use coflow_matching::hopcroft_karp::maximum_matching;
use coflow_matching::IntMatrix;
use proptest::prelude::*;

/// Strategy: random m×m matrices with entries in 0..=max.
fn matrix_strategy(max_m: usize, max_entry: u64) -> impl Strategy<Value = IntMatrix> {
    (1..=max_m).prop_flat_map(move |m| {
        proptest::collection::vec(0..=max_entry, m * m)
            .prop_map(move |data| IntMatrix::from_rows(m, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lemma 4: the decomposition clears any matrix in exactly ρ(D) slots,
    /// the augmentation dominates and is doubly balanced, the reconstruction
    /// is exact, and the number of matchings is at most m².
    #[test]
    fn bvn_invariants(d in matrix_strategy(8, 12)) {
        let dec = bvn_decompose(d.dim(), d.nonzero_entries());
        prop_assert_eq!(dec.total_slots(), d.load());
        let augmented = dec.to_matrix();
        prop_assert!(augmented.dominates(&d));
        prop_assert!(augmented.is_doubly_balanced(d.load()));
        prop_assert!(dec.is_slot_sum());
        prop_assert!(dec.len() <= d.dim() * d.dim());
        // Each slot's count is positive and each slot is a bijection.
        for s in 0..dec.len() {
            prop_assert!(dec.count(s) > 0);
            let mut egress: Vec<usize> = dec.slot_pairs(s).map(|(_, j)| j).collect();
            egress.sort_unstable();
            prop_assert_eq!(egress, (0..d.dim()).collect::<Vec<_>>());
        }
    }

    /// The decomposed schedule really delivers the original demand: summing
    /// min(demand, permutation service) per pair covers everything.
    #[test]
    fn bvn_covers_all_demand(d in matrix_strategy(6, 9)) {
        let m = d.dim();
        let dec = bvn_decompose(m, d.nonzero_entries());
        // Service capacity per pair = sum of q over slots matching the pair.
        let mut capacity = IntMatrix::zeros(m);
        for s in 0..dec.len() {
            for (i, j) in dec.slot_pairs(s) {
                capacity[(i, j)] += dec.count(s);
            }
        }
        prop_assert!(capacity.dominates(&d));
    }

    /// Hopcroft–Karp matches a brute-force maximum on small random graphs.
    #[test]
    fn hopcroft_karp_is_maximum(edges in proptest::collection::vec((0usize..5, 0usize..5), 0..18)) {
        let mut g = BipartiteGraph::new(5, 5);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in edges {
            if seen.insert((u, v)) {
                g.add_edge(u, v);
            }
        }
        let hk = maximum_matching(&g);
        let brute = brute_force_max_matching(&g);
        prop_assert_eq!(hk.size, brute);
        // Matching consistency: pair_left and pair_right agree.
        for (u, v) in hk.pairs() {
            prop_assert_eq!(hk.pair_right[v], Some(u));
        }
    }
}

/// Exponential-time maximum matching for cross-checking.
fn brute_force_max_matching(g: &BipartiteGraph) -> usize {
    fn rec(g: &BipartiteGraph, u: usize, used: &mut Vec<bool>) -> usize {
        if u == g.left_count() {
            return 0;
        }
        // Skip u.
        let mut best = rec(g, u + 1, used);
        for &v in g.neighbors(u) {
            if !used[v] {
                used[v] = true;
                best = best.max(1 + rec(g, u + 1, used));
                used[v] = false;
            }
        }
        best
    }
    rec(g, 0, &mut vec![false; g.right_count()])
}
