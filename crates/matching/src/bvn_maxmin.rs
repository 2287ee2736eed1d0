//! A max-min variant of the Birkhoff–von Neumann decomposition (ablation).
//!
//! Step 2 of Algorithm 1 peels off *any* perfect matching of the support
//! graph; the paper's bound of `m²` matchings holds regardless. Each
//! matching switches the fabric's configuration, and real switches pay a
//! reconfiguration cost, so fewer/longer runs are preferable. This variant
//! greedily picks, in every round, the perfect matching whose minimum
//! matched entry is as large as possible (computed by binary search over
//! the distinct entry values), extracting the largest possible `q` per
//! round. The total slot count is unchanged — it is always `ρ(D)` — only
//! the number of distinct matchings shrinks.

use crate::bipartite::BipartiteGraph;
use crate::bvn::{augment_to_balanced, BvnDecomposition, MatchingSlot};
use crate::hopcroft_karp::HopcroftKarp;
use crate::matrix::{IntMatrix, Permutation};

/// Finds a perfect matching maximizing the minimum matched entry, or `None`
/// if no perfect matching exists at all.
///
/// The binary search only needs *feasibility* ("does a perfect matching
/// exist at this threshold?"), and maximum-matching cardinality is unique,
/// so the probes run warm-started: each one keeps the previous probe's
/// pairs that still clear the new threshold and augments the rest. The
/// permutation itself is extracted by one final *cold* solve at the chosen
/// threshold, which is exactly what the original probe-per-threshold
/// implementation returned — the output is unchanged, only the probe cost
/// collapses.
fn max_bottleneck_perfect_matching(work: &IntMatrix, hk: &mut HopcroftKarp) -> Option<Permutation> {
    let m = work.dim();
    // Candidate thresholds: the distinct nonzero entries.
    let mut values: Vec<u64> = work.nonzero_entries().map(|(_, _, v)| v).collect();
    values.sort_unstable();
    values.dedup();
    if values.is_empty() {
        return None;
    }

    let graph_at = |threshold: u64| -> BipartiteGraph {
        let mut g = BipartiteGraph::new(m, m);
        for (i, j, v) in work.nonzero_entries() {
            if v >= threshold {
                g.add_edge(i, j);
            }
        }
        g
    };
    let feasible_at = |threshold: u64, hk: &mut HopcroftKarp, cold: bool| -> bool {
        let g = graph_at(threshold);
        let size = if cold {
            hk.run_cold(&g)
        } else {
            // Drop carried-over pairs whose entry fell below the threshold;
            // everything else is still an edge of the new graph.
            for u in 0..m {
                if let Some(v) = hk.matched(u) {
                    if work[(u, v)] < threshold {
                        hk.unmatch(u, v);
                    }
                }
            }
            hk.run_warm(&g)
        };
        size == m
    };

    // Binary search the largest feasible threshold.
    let mut lo = 0usize; // index of highest known-feasible value
    let mut hi = values.len(); // exclusive upper bound of feasibility
    if !feasible_at(values[0], hk, true) {
        return None;
    }
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if feasible_at(values[mid], hk, false) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Cold extraction at the winning threshold reproduces the original
    // implementation's permutation bit for bit.
    let g = graph_at(values[lo]);
    let size = hk.run_cold(&g);
    debug_assert_eq!(size, m, "threshold {} was probed feasible", values[lo]);
    Some(Permutation::new(hk.left_assignment().to_vec()))
}

/// Max-min decomposition of a doubly-balanced matrix.
pub fn decompose_balanced_maxmin(balanced: &IntMatrix) -> Vec<MatchingSlot> {
    let rho = balanced.load();
    assert!(
        balanced.is_doubly_balanced(rho),
        "decompose_balanced_maxmin requires equal row/column sums"
    );
    let mut work = balanced.clone();
    let mut slots = Vec::new();
    let mut hk = HopcroftKarp::new();
    let mut remaining = rho;
    while remaining > 0 {
        let perm = max_bottleneck_perfect_matching(&work, &mut hk)
            .unwrap_or_else(|| unreachable!("balanced matrix must admit a perfect matching"));
        let q = perm
            .pairs()
            .map(|(i, j)| work[(i, j)])
            .min()
            .unwrap_or_else(|| unreachable!("nonempty matching"));
        debug_assert!(q > 0);
        for (i, j) in perm.pairs() {
            work[(i, j)] -= q;
        }
        remaining -= q;
        slots.push(MatchingSlot { perm, count: q });
    }
    slots
}

/// Runs augmentation + max-min decomposition on an arbitrary matrix.
pub fn bvn_decompose_maxmin(d: &IntMatrix) -> BvnDecomposition {
    let _span = obs::span("matching.bvn_decompose_maxmin");
    let load = d.load();
    let augmented = augment_to_balanced(d);
    let slots = if load == 0 {
        Vec::new()
    } else {
        decompose_balanced_maxmin(&augmented)
    };
    crate::bvn::record_decomposition_stats(d.dim(), slots.len());
    BvnDecomposition {
        augmented,
        slots,
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvn::bvn_decompose;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(m: usize, max: u64, seed: u64) -> IntMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = IntMatrix::zeros(m);
        for i in 0..m {
            for j in 0..m {
                if rng.gen_bool(0.5) {
                    d[(i, j)] = rng.gen_range(0..=max);
                }
            }
        }
        d
    }

    #[test]
    fn maxmin_satisfies_the_same_invariants() {
        for seed in 0..20 {
            let d = random_matrix(6, 9, seed);
            let dec = bvn_decompose_maxmin(&d);
            assert_eq!(dec.total_slots(), d.load(), "seed {}", seed);
            assert!(dec.augmented.dominates(&d));
            assert_eq!(dec.reconstruct(), dec.augmented);
            assert!(dec.slots.len() <= d.dim() * d.dim().max(1));
        }
    }

    #[test]
    fn maxmin_never_uses_more_matchings_on_uniform_matrices() {
        // On a constant matrix both variants need exactly m matchings... the
        // max-min variant takes them at full depth immediately.
        let mut d = IntMatrix::zeros(4);
        for i in 0..4 {
            for j in 0..4 {
                d[(i, j)] = 5;
            }
        }
        let maxmin = bvn_decompose_maxmin(&d);
        assert_eq!(maxmin.slots.len(), 4);
        for slot in &maxmin.slots {
            assert_eq!(slot.count, 5);
        }
    }

    #[test]
    fn maxmin_usually_shorter_than_arbitrary_order() {
        let mut wins = 0;
        let mut total = 0;
        for seed in 100..130 {
            let d = random_matrix(8, 20, seed);
            if d.load() == 0 {
                continue;
            }
            let a = bvn_decompose(&d).slots.len();
            let b = bvn_decompose_maxmin(&d).slots.len();
            total += 1;
            if b <= a {
                wins += 1;
            }
        }
        assert!(
            wins * 10 >= total * 7,
            "max-min should win at least 70% of the time: {}/{}",
            wins,
            total
        );
    }

    #[test]
    fn single_permutation_matrix_is_one_slot() {
        let d = IntMatrix::scaled_permutation(&Permutation::new(vec![2, 0, 1]), 7);
        let dec = bvn_decompose_maxmin(&d);
        assert_eq!(dec.slots.len(), 1);
        assert_eq!(dec.slots[0].count, 7);
    }
}
