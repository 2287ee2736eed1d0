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

use crate::bvn::{bvn_decompose_keeping, BvnDecomposition};
use crate::hopcroft_karp::HopcroftKarp;

/// Finds a perfect matching of the edges with `work` left that maximizes
/// the least `work` on a matched edge, and leaves it as the solver's
/// assignment; `false` if no perfect matching exists at all.
///
/// The binary search only needs *feasibility* ("does a perfect matching
/// exist at this threshold?"), and maximum-matching cardinality is unique,
/// so the probes run warm-started: each one keeps the previous probe's
/// pairs that still clear the new threshold and augments the rest. The
/// permutation itself is extracted by one final *cold* solve at the chosen
/// threshold, which is exactly what the original probe-per-threshold
/// implementation returned — the output is unchanged, only the probe cost
/// collapses.
fn max_bottleneck_perfect_matching(
    dec: &BvnDecomposition,
    work: &[u64],
    hk: &mut HopcroftKarp,
    values: &mut Vec<u64>,
) -> bool {
    let m = dec.ports();
    // Candidate thresholds: the distinct nonzero units left.
    values.clear();
    values.extend(work.iter().copied().filter(|&v| v > 0));
    values.sort_unstable();
    values.dedup();
    if values.is_empty() {
        return false;
    }
    let feasible_at = |threshold: u64, hk: &mut HopcroftKarp, cold: bool| -> bool {
        let g = dec.graph_at(work, threshold);
        let size = if cold {
            hk.run_cold(&g)
        } else {
            // Drop carried-over pairs whose edge fell below the threshold;
            // everything else is still an edge of the new graph.
            for u in 0..m {
                if let Some(v) = hk.matched(u) {
                    let e = dec
                        .find(u, v)
                        .unwrap_or_else(|| unreachable!("a matched pair is a support edge"));
                    if work[e] < threshold {
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
        return false;
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
    let size = hk.run_cold(&dec.graph_at(work, values[lo]));
    debug_assert_eq!(size, m, "threshold {} was probed feasible", values[lo]);
    true
}

/// The max-min peel of `dec`'s `D̃`: each round's permutation is the
/// perfect matching of the edges with work left whose least work is
/// largest, stored through the same [`BvnDecomposition::push_slot`] as the
/// plain peel.
pub(crate) fn peel_maxmin(dec: &mut BvnDecomposition, kept: &[bool]) {
    let mut work = dec.units().to_vec();
    let mut hk = HopcroftKarp::new();
    let mut values = Vec::new();
    let mut matched = Vec::with_capacity(dec.ports());
    let mut remaining = dec.load();
    while remaining > 0 {
        if !max_bottleneck_perfect_matching(dec, &work, &mut hk, &mut values) {
            unreachable!("balanced matrix must admit a perfect matching");
        }
        remaining -= dec.push_slot(hk.left_assignment(), &mut work, kept, &mut matched);
    }
}

/// Runs Algorithm 1's augmentation and the max-min peel on the `m × m`
/// matrix whose nonzero entries are `entries`, given as for
/// [`crate::bvn_decompose`]. Every slot stores all `m` edges of its
/// permutation.
pub fn bvn_decompose_maxmin(
    m: usize,
    entries: impl IntoIterator<Item = (usize, usize, u64)>,
) -> BvnDecomposition {
    bvn_decompose_keeping(m, entries, true, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvn::bvn_decompose;
    use crate::matrix::{IntMatrix, Permutation};
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
            let dec = bvn_decompose_maxmin(d.dim(), d.nonzero_entries());
            assert_eq!(dec.total_slots(), d.load(), "seed {}", seed);
            assert!(dec.to_matrix().dominates(&d));
            assert!(dec.is_slot_sum());
            assert!(dec.len() <= d.dim() * d.dim().max(1));
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
        let maxmin = bvn_decompose_maxmin(4, d.nonzero_entries());
        assert_eq!(maxmin.len(), 4);
        for s in 0..maxmin.len() {
            assert_eq!(maxmin.count(s), 5);
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
            let a = bvn_decompose(d.dim(), d.nonzero_entries()).len();
            let b = bvn_decompose_maxmin(d.dim(), d.nonzero_entries()).len();
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
        let dec = bvn_decompose_maxmin(3, d.nonzero_entries());
        assert_eq!(dec.len(), 1);
        assert_eq!(dec.count(0), 7);
    }
}
