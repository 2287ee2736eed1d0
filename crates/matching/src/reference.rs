//! The dense Birkhoff–von Neumann loops the edge-indexed decomposition
//! replaced, kept as the references its tests compare against pick for
//! pick: the augmentation by row and column scans over an `m × m` matrix,
//! the incremental peel, the per-round-rebuild peel before it, and the
//! max-min peel.

use crate::bipartite::BipartiteGraph;
use crate::hopcroft_karp::HopcroftKarp;
use crate::matrix::{IntMatrix, Permutation};

/// One term `q · Π` of a dense decomposition: run matching `perm` for
/// `count` consecutive time slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct MatchingSlot {
    /// The permutation (perfect matching) to run.
    pub perm: Permutation,
    /// Number of consecutive slots it is run for (`q_u` in the paper).
    pub count: u64,
}

/// Step 1 of Algorithm 1: augment `D` to `D̃ ≥ D` with all row and column
/// sums equal to `ρ(D)`.
///
/// Repeatedly picks the rows/columns with minimum sum and raises the entry at
/// their intersection until one of them saturates; each iteration saturates at
/// least one row or column, so at most `2m − 1` entries are touched.
pub(crate) fn augment_to_balanced(d: &IntMatrix) -> IntMatrix {
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

/// Step 2 of Algorithm 1 on a dense doubly-balanced matrix: peels perfect
/// matchings of an incrementally maintained support graph.
///
/// Panics if the matrix is not doubly balanced.
pub(crate) fn decompose_balanced(balanced: &IntMatrix) -> Vec<MatchingSlot> {
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
        assert!(size == m, "Hall's theorem violated");
        let perm = Permutation::new(hk.left_assignment().to_vec());
        let q = perm
            .pairs()
            .map(|(i, j)| work[(i, j)])
            .min()
            .unwrap_or_else(|| unreachable!("nonempty matrix"));
        for (i, j) in perm.pairs() {
            work[(i, j)] -= q;
            if work[(i, j)] == 0 {
                g.remove_edge(i, j);
            }
        }
        remaining -= q;
        slots.push(MatchingSlot { perm, count: q });
    }
    slots
}

/// The per-round-rebuild peel [`decompose_balanced`] replaced: the
/// support graph is rebuilt from the remaining matrix every round.
pub(crate) fn decompose_balanced_rebuilt(balanced: &IntMatrix) -> Vec<MatchingSlot> {
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

/// A perfect matching of `work`'s support maximizing the minimum matched
/// entry: a binary search over the distinct entries with warm feasibility
/// probes, then one cold solve at the chosen threshold.
fn max_bottleneck_perfect_matching(work: &IntMatrix, hk: &mut HopcroftKarp) -> Option<Permutation> {
    let m = work.dim();
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
    let mut lo = 0usize;
    let mut hi = values.len();
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
    let g = graph_at(values[lo]);
    hk.run_cold(&g);
    Some(Permutation::new(hk.left_assignment().to_vec()))
}

/// Max-min decomposition of a dense doubly-balanced matrix.
pub(crate) fn decompose_balanced_maxmin(balanced: &IntMatrix) -> Vec<MatchingSlot> {
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
        for (i, j) in perm.pairs() {
            work[(i, j)] -= q;
        }
        remaining -= q;
        slots.push(MatchingSlot { perm, count: q });
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "equal row/column sums")]
    fn decompose_rejects_unbalanced() {
        let d = IntMatrix::from_nested(&[[1, 0], [0, 2]]);
        let _ = decompose_balanced(&d);
    }
}
