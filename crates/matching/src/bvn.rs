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
//!
//! Both steps work on the support of `D̃`, never on an `m × m` array: the
//! input is `D`'s nonzero entries, the augmented matrix is a CSR over its
//! nonzero pairs (the *edges*), and each slot stores edges of its
//! permutation. [`bvn_decompose`] stores all `m`; a caller that needs only
//! some pairs ([`bvn_decompose_keeping`]: a batch scheduler keeps the pairs
//! some coflow demands) stores only theirs, and the peel, its permutations
//! and their counts are the same either way. A decomposition therefore
//! takes `O(nnz + m)` memory plus the kept edge ids, where `nnz` is the
//! number of nonzero entries. Each round zeroes at least one edge, so there
//! are at most `nnz + 2m − 1` slots, and kept slots can still hold
//! `Θ(m²)`: `m/2` independent balanced 2 × 2 blocks with distinct splits
//! have `2m` edges, every one of them demanded, and about `m/2` slots.

use crate::bipartite::BipartiteGraph;
use crate::hopcroft_karp::HopcroftKarp;
use crate::matrix::IntMatrix;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

/// The output of Algorithm 1 for one matrix, indexed by edge: edge `e` is
/// a nonzero pair of the augmented matrix `D̃`, numbered in row-major
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BvnDecomposition {
    m: usize,
    /// Edges of ingress `i`: `row_at[i]..row_at[i + 1]`.
    row_at: Vec<usize>,
    /// Egress of each edge, ascending within a row.
    egress: Vec<u32>,
    /// Ingress of each edge, so a stored edge id names its pair.
    ingress: Vec<u32>,
    /// Units of `D̃` on each edge.
    units: Vec<u64>,
    /// Slot `s` stores edges `slot_edges[slot_at[s]..slot_at[s + 1]]`: the
    /// kept edges of its permutation, ascending by ingress.
    slot_at: Vec<usize>,
    slot_edges: Vec<u32>,
    /// Slot `s` runs for `counts[s]` consecutive slots (`q_u`).
    counts: Vec<u64>,
    /// `ρ(D)`, also `Σ_u q_u`.
    load: u64,
}

impl BvnDecomposition {
    /// Step 1 of Algorithm 1 on `D`, given as its nonzero `(i, j, units)`
    /// entries in row-major order, each pair once (zero units are
    /// skipped): builds `D̃ ≥ D` with every row and column sum `ρ(D)`, and
    /// no slots yet.
    ///
    /// Each round picks the first row and the first column of minimum sum,
    /// as a scan of the sums would, and raises their crossing entry until
    /// one of them saturates. The minima are the tops of two min-heaps of
    /// the unsaturated lines keyed `(sum, index)`: a raised line's key
    /// grows in place, and a saturated line leaves its heap. Each round
    /// saturates a row or a column, so at most `2m − 1` entries are raised,
    /// each once, in `O(m log m)` time.
    ///
    /// Panics if the entries are not row-major, lie off the `m`-port
    /// fabric, or a row or column sums past `u64`.
    pub(crate) fn augmented(
        m: usize,
        entries: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Self {
        let entries = entries.into_iter();
        let mut given: Vec<(usize, usize, u64)> = Vec::with_capacity(entries.size_hint().0);
        let mut row_sums = vec![0u64; m];
        let mut col_sums = vec![0u64; m];
        let mut prev = None;
        for (i, j, units) in entries {
            assert!(i < m && j < m, "entry ({}, {}) outside {} ports", i, j, m);
            assert!(
                prev < Some((i, j)),
                "entries must be row-major, each pair once"
            );
            prev = Some((i, j));
            if units == 0 {
                continue;
            }
            for sum in [&mut row_sums[i], &mut col_sums[j]] {
                *sum = sum
                    .checked_add(units)
                    .unwrap_or_else(|| panic!("a row or column sums past u64"));
            }
            given.push((i, j, units));
        }
        let load = row_sums.iter().chain(&col_sums).copied().max().unwrap_or(0);

        // The unsaturated rows and columns, each in a min-heap keyed
        // `(sum, index)`: its top is the first line of least sum.
        let heap_of = |sums: &[u64]| {
            let mut lines = Vec::with_capacity(m);
            lines.extend(
                sums.iter()
                    .enumerate()
                    .filter(|&(_, &s)| s < load)
                    .map(|(k, &s)| Reverse((s, k))),
            );
            BinaryHeap::from(lines)
        };
        let mut rows = heap_of(&row_sums);
        let mut cols = heap_of(&col_sums);
        // Each round takes at least one line off the heaps and at most one
        // row and one column, so there are at least as many rounds as
        // lines on the larger heap and fewer than twice as many.
        let mut raised: Vec<(usize, usize, u64)> = Vec::with_capacity(rows.len().max(cols.len()));
        // Row and column sums total the same, so both heaps run dry
        // together: when every row is at ρ, so is every column.
        while let (Some(&Reverse((r, i))), Some(&Reverse((c, j)))) = (rows.peek(), cols.peek()) {
            let p = (load - r).min(load - c);
            debug_assert!(p > 0, "augmentation must make progress");
            raised.push((i, j, p));
            for heap in [&mut rows, &mut cols] {
                let Some(mut top) = heap.peek_mut() else {
                    unreachable!("both heaps were peeked above")
                };
                let Reverse((sum, k)) = *top;
                if sum + p < load {
                    *top = Reverse((sum + p, k));
                } else {
                    PeekMut::pop(top);
                }
            }
        }
        raised.sort_unstable();

        // Merge the raised entries into the given ones, row-major.
        let mut dec = BvnDecomposition::over_support(m, given.len() + raised.len());
        dec.load = load;
        let (mut a, mut b) = (given.into_iter().peekable(), raised.into_iter().peekable());
        loop {
            let (i, j, units) = match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) if (x.0, x.1) == (y.0, y.1) => {
                    a.next();
                    b.next();
                    (x.0, x.1, x.2 + y.2)
                }
                (Some(&x), Some(&y)) if (x.0, x.1) < (y.0, y.1) => {
                    a.next();
                    x
                }
                (_, Some(&y)) => {
                    b.next();
                    y
                }
                (Some(&x), None) => {
                    a.next();
                    x
                }
                (None, None) => break,
            };
            dec.push_edge(i, j, units);
        }
        dec.close_rows();
        dec
    }

    /// An empty decomposition of an `m × m` matrix with room for `edges`
    /// edges, to be filled row-major by `push_edge` and `close_rows`.
    fn over_support(m: usize, edges: usize) -> Self {
        assert!(
            u32::try_from(edges).is_ok() && u32::try_from(m).is_ok(),
            "edge ids and ports must fit in u32"
        );
        BvnDecomposition {
            m,
            row_at: vec![0; m + 1],
            egress: Vec::with_capacity(edges),
            ingress: Vec::with_capacity(edges),
            units: Vec::with_capacity(edges),
            slot_at: vec![0],
            slot_edges: Vec::new(),
            counts: Vec::new(),
            load: 0,
        }
    }

    /// Appends edge `(i, j)`; edges arrive in row-major order.
    fn push_edge(&mut self, i: usize, j: usize, units: u64) {
        self.row_at[i + 1] += 1;
        self.egress.push(j as u32);
        self.ingress.push(i as u32);
        self.units.push(units);
    }

    /// Turns the per-row edge counts into row offsets.
    fn close_rows(&mut self) {
        for i in 0..self.m {
            self.row_at[i + 1] += self.row_at[i];
        }
    }

    /// Rebuilds a decomposition from its dense form: the augmented matrix
    /// and each slot's ingress → egress map with its count, every edge
    /// kept. Returns `None` when a map is not `m` long or pairs an ingress
    /// with an egress off the augmented matrix's support, or when the
    /// counts sum past `u64`. The maps are not checked to be permutations,
    /// nor the augmented matrix to be their sum
    /// ([`BvnDecomposition::is_slot_sum`]), nor the slots to be its peel
    /// ([`BvnDecomposition::repeeled`]).
    pub fn from_dense(augmented: &IntMatrix, slots: &[(Vec<usize>, u64)]) -> Option<Self> {
        let m = augmented.dim();
        let mut dec = BvnDecomposition::over_support(m, augmented.nonzero_count());
        for (i, j, units) in augmented.nonzero_entries() {
            dec.push_edge(i, j, units);
        }
        dec.close_rows();
        for (map, count) in slots {
            if map.len() != m {
                return None;
            }
            for (i, &j) in map.iter().enumerate() {
                dec.slot_edges.push(dec.find(i, j)? as u32);
            }
            dec.slot_at.push(dec.slot_edges.len());
            dec.counts.push(*count);
            dec.load = dec.load.checked_add(*count)?;
        }
        Some(dec)
    }

    /// Fabric width `m`.
    #[inline]
    pub fn ports(&self) -> usize {
        self.m
    }

    /// `ρ(D)`: every row and column of `D̃` sums to it.
    #[inline]
    pub fn load(&self) -> u64 {
        self.load
    }

    /// Number of edges: the nonzero pairs of `D̃`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.egress.len()
    }

    /// Edges of ingress `i`, ascending by egress.
    #[inline]
    pub fn row(&self, i: usize) -> Range<usize> {
        self.row_at[i]..self.row_at[i + 1]
    }

    /// Egress port of edge `e`.
    #[inline]
    pub fn egress(&self, e: usize) -> usize {
        self.egress[e] as usize
    }

    /// Ingress port of edge `e`.
    #[inline]
    pub fn ingress(&self, e: usize) -> usize {
        self.ingress[e] as usize
    }

    /// Units of `D̃` on every edge.
    #[inline]
    pub(crate) fn units(&self) -> &[u64] {
        &self.units
    }

    /// The edge on pair `(i, j)`, if `D̃` is nonzero there: a binary search
    /// of row `i`.
    pub fn find(&self, i: usize, j: usize) -> Option<usize> {
        let row = self.row_at[i]..self.row_at[i + 1];
        let at = self.egress[row.clone()]
            .binary_search(&u32::try_from(j).ok()?)
            .ok()?;
        Some(row.start + at)
    }

    /// Number of slots (scaled permutations).
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when there are no slots (`D` is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Kept edges of slot `s`, ascending by ingress: all `m` edges of its
    /// permutation, the edge of ingress `i` at offset `i`, when every edge
    /// is kept.
    #[inline]
    pub fn slot(&self, s: usize) -> &[u32] {
        &self.slot_edges[self.slot_at[s]..self.slot_at[s + 1]]
    }

    /// Number of consecutive time slots slot `s` runs for (`q_u`).
    #[inline]
    pub fn count(&self, s: usize) -> u64 {
        self.counts[s]
    }

    /// Kept `(ingress, egress)` pairs of slot `s`, by ingress.
    pub fn slot_pairs(&self, s: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slot(s)
            .iter()
            .map(|&e| (self.ingress(e as usize), self.egress(e as usize)))
    }

    /// Total number of time slots covered, `Σ_u q_u` (equals `load`).
    pub fn total_slots(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when `D̃` is `Σ_u q_u Π_u` over the stored edges, edge by edge.
    /// A decomposition computed here with every edge kept always is; one
    /// rebuilt from outside bytes may not be.
    pub fn is_slot_sum(&self) -> bool {
        let mut sum = vec![0u64; self.edge_count()];
        for s in 0..self.len() {
            for &e in self.slot(s) {
                let Some(v) = sum[e as usize].checked_add(self.counts[s]) else {
                    return false;
                };
                sum[e as usize] = v;
            }
        }
        sum == self.units
    }

    /// `D̃` as a dense matrix.
    pub fn to_matrix(&self) -> IntMatrix {
        let mut out = IntMatrix::zeros(self.m);
        for i in 0..self.m {
            for e in self.row(i) {
                out[(i, self.egress(e))] = self.units[e];
            }
        }
        out
    }

    /// The support of `D̃` with every edge whose `work` clears
    /// `threshold`, in row-major order: the graph `support_of` builds from
    /// a dense matrix holding `work`.
    pub(crate) fn graph_at(&self, work: &[u64], threshold: u64) -> BipartiteGraph {
        let mut g = BipartiteGraph::with_capacity(self.m, self.m, self.edge_count());
        for i in 0..self.m {
            for e in self.row(i) {
                if work[e] >= threshold {
                    g.add_edge(i, self.egress(e));
                }
            }
        }
        g
    }

    /// Appends the perfect matching `assignment` (ingress → egress, all
    /// support edges) as a slot: its count `q` is the least `work` left on
    /// its `m` edges, `q` is taken from each of them, and the slot stores
    /// the ones `kept` marks. Leaves the `m` edges, by ingress, in
    /// `matched`. Returns `q`.
    pub(crate) fn push_slot(
        &mut self,
        assignment: &[usize],
        work: &mut [u64],
        kept: &[bool],
        matched: &mut Vec<usize>,
    ) -> u64 {
        matched.clear();
        let mut q = u64::MAX;
        for (i, &j) in assignment.iter().enumerate() {
            let e = self
                .find(i, j)
                .unwrap_or_else(|| unreachable!("a matched pair is a support edge"));
            q = q.min(work[e]);
            matched.push(e);
        }
        debug_assert!(q > 0 && q != u64::MAX);
        for &e in matched.iter() {
            work[e] -= q;
            if kept[e] {
                self.slot_edges.push(e as u32);
            }
        }
        self.slot_at.push(self.slot_edges.len());
        self.counts.push(q);
        q
    }

    /// Step 2 of Algorithm 1: peels perfect matchings of the support graph
    /// off `D̃` until its units are spent (the max-min peel of
    /// [`crate::bvn_maxmin`] when `maxmin`), storing the edges `kept`
    /// marks.
    ///
    /// The support graph is built once, in row-major order (the neighbour
    /// order `BipartiteGraph::support_of` gives), and loses an edge when
    /// the edge's units run out: [`BipartiteGraph::remove_edge`] keeps the
    /// remaining neighbours in order, so every round sees the graph a
    /// rebuild from the remaining units would give, and the cold
    /// Hopcroft–Karp solve finds the permutation the dense peel finds.
    /// `kept` changes only which edges a slot stores.
    fn peel(&mut self, kept: &[bool], maxmin: bool) {
        if maxmin {
            crate::bvn_maxmin::peel_maxmin(self, kept);
        } else {
            let m = self.m;
            let mut g = self.graph_at(&self.units, 1);
            let mut work = self.units.clone();
            let mut hk = HopcroftKarp::new();
            let mut matched = Vec::with_capacity(m);
            let mut remaining = self.load;
            while remaining > 0 {
                let size = hk.run_cold(&g);
                assert!(
                    size == m,
                    "Hall's theorem violated: balanced matrix support must have a perfect matching"
                );
                remaining -= self.push_slot(hk.left_assignment(), &mut work, kept, &mut matched);
                for (i, &e) in matched.iter().enumerate() {
                    if work[e] == 0 {
                        g.remove_edge(i, self.egress(e));
                    }
                }
            }
            debug_assert!(work.iter().all(|&w| w == 0));
        }
        // The slots are a batch's largest buffer and live while it
        // executes: drop their spare capacity.
        self.slot_at.shrink_to_fit();
        self.slot_edges.shrink_to_fit();
        self.counts.shrink_to_fit();
    }

    /// `D̃` peeled again with every edge kept (the max-min peel when
    /// `maxmin`): the slots [`bvn_decompose`] or [`bvn_decompose_maxmin`]
    /// find for any `D` that augments to `D̃`, since the peel reads only
    /// `D̃`. `D̃` must be doubly balanced at the load, as it is for a
    /// decomposition computed here or one that
    /// [`BvnDecomposition::is_slot_sum`] accepts.
    ///
    /// [`bvn_decompose_maxmin`]: crate::bvn_decompose_maxmin
    pub fn repeeled(&self, maxmin: bool) -> Self {
        let mut dec = BvnDecomposition {
            m: self.m,
            row_at: self.row_at.clone(),
            egress: self.egress.clone(),
            ingress: self.ingress.clone(),
            units: self.units.clone(),
            slot_at: vec![0],
            slot_edges: Vec::new(),
            counts: Vec::new(),
            load: self.load,
        };
        dec.peel(&vec![true; dec.edge_count()], maxmin);
        dec
    }

    /// Drops from every slot the stored edges `keep` refuses, keeping the
    /// rest in order and every count.
    pub fn retain_edges(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut out = 0;
        let mut from = 0;
        for s in 0..self.len() {
            let end = self.slot_at[s + 1];
            for x in from..end {
                let e = self.slot_edges[x];
                if keep(e as usize) {
                    self.slot_edges[out] = e;
                    out += 1;
                }
            }
            from = end;
            self.slot_at[s + 1] = out;
        }
        self.slot_edges.truncate(out);
        self.slot_edges.shrink_to_fit();
    }
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

/// Runs both steps of Algorithm 1 on the `m × m` matrix whose nonzero
/// entries are `entries`: `(i, j, units)` in row-major order, each pair
/// once (zero units are skipped), as [`IntMatrix::nonzero_entries`] gives
/// them. Every slot stores all `m` edges of its permutation.
///
/// Panics if the entries are not row-major or lie off the `m`-port fabric.
pub fn bvn_decompose(
    m: usize,
    entries: impl IntoIterator<Item = (usize, usize, u64)>,
) -> BvnDecomposition {
    bvn_decompose_keeping(m, entries, false, |_, _| true)
}

/// Runs both steps of Algorithm 1 on `entries`, given as for
/// [`bvn_decompose`], with the max-min peel when `maxmin`, and stores in
/// each slot only the edges of its permutation that `keep` accepts.
/// `keep(i, j)` is asked once for each edge of `D̃`, row-major, before the
/// peel. The peel does not read it: each slot is the one
/// [`bvn_decompose`] (or [`crate::bvn_decompose_maxmin`]) finds, with the
/// same count, less the refused edges.
pub fn bvn_decompose_keeping(
    m: usize,
    entries: impl IntoIterator<Item = (usize, usize, u64)>,
    maxmin: bool,
    mut keep: impl FnMut(usize, usize) -> bool,
) -> BvnDecomposition {
    let _span = obs::span(if maxmin {
        "matching.bvn_decompose_maxmin"
    } else {
        "matching.bvn_decompose"
    });
    let mut dec = BvnDecomposition::augmented(m, entries);
    let mut kept = Vec::with_capacity(dec.edge_count());
    for i in 0..m {
        kept.extend(dec.row(i).map(|e| keep(i, dec.egress(e))));
    }
    dec.peel(&kept, maxmin);
    record_decomposition_stats(m, dec.len());
    dec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvn_maxmin::bvn_decompose_maxmin;
    use crate::reference::{
        augment_to_balanced, decompose_balanced, decompose_balanced_maxmin,
        decompose_balanced_rebuilt, MatchingSlot,
    };
    use proptest::prelude::*;

    fn decompose(d: &IntMatrix) -> BvnDecomposition {
        bvn_decompose(d.dim(), d.nonzero_entries())
    }

    fn check_valid_decomposition(d: &IntMatrix) {
        let dec = decompose(d);
        // Lemma 4: total slot count equals rho(D).
        assert_eq!(dec.total_slots(), d.load());
        // Augmented matrix dominates D and is doubly balanced.
        let augmented = dec.to_matrix();
        assert!(augmented.dominates(d));
        assert!(augmented.is_doubly_balanced(d.load()));
        // Reconstruction equals the augmented matrix exactly.
        assert!(dec.is_slot_sum());
        // Number of distinct matchings is at most m^2 (polynomial schedule).
        assert!(dec.len() <= d.dim() * d.dim().max(1));
    }

    #[test]
    fn fig1_decomposes_in_three_slots() {
        // Paper Figure 1: [[1,2],[2,1]] completes in 3 slots.
        let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let dec = decompose(&d);
        assert_eq!(dec.total_slots(), 3);
        assert_eq!(dec.to_matrix(), d); // already balanced
        check_valid_decomposition(&d);
    }

    #[test]
    fn zero_matrix_decomposes_trivially() {
        let d = IntMatrix::zeros(3);
        let dec = decompose(&d);
        assert_eq!(dec.total_slots(), 0);
        assert!(dec.is_empty());
        assert_eq!(dec.edge_count(), 0);
    }

    #[test]
    fn single_entry_matrix() {
        let mut d = IntMatrix::zeros(3);
        d[(1, 2)] = 7;
        check_valid_decomposition(&d);
        let dec = decompose(&d);
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
        let dec = decompose(&d);
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
        let dec = decompose(&d);
        assert_eq!(dec.total_slots(), 4);
        // Every slot must cover all three diagonal positions after
        // augmentation; original diagonal demand is served within load slots.
        assert!(dec.to_matrix().dominates(&d));
    }

    #[test]
    fn a_wide_fabric_with_one_flow_decomposes_over_its_support() {
        // 50 001² cells would be 20 GB dense. Each augmenting round
        // saturates a row and a column at once, so the support is one
        // perfect matching, run for all 3 slots.
        let m = 50_001;
        let dec = bvn_decompose(m, [(0, 50_000, 3)]);
        assert_eq!(dec.load(), 3);
        assert_eq!(dec.edge_count(), m);
        assert_eq!((dec.len(), dec.count(0)), (1, 3));
        assert!(dec.is_slot_sum());
        assert_eq!(dec.slot_pairs(0).next(), Some((0, 50_000)));
        assert_eq!(dec.slot_pairs(0).nth(1), Some((1, 0)));
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn entries_out_of_row_major_order_are_refused() {
        let _ = bvn_decompose(2, [(1, 0, 1), (0, 1, 1)]);
    }

    #[test]
    fn from_dense_refuses_a_slot_off_the_support() {
        let d = IntMatrix::from_nested(&[[2, 0], [0, 2]]);
        let identity = vec![(vec![0, 1], 2)];
        let dec = BvnDecomposition::from_dense(&d, &identity).expect("on the support");
        assert!(dec.is_slot_sum());
        assert_eq!(dec, decompose(&d));
        assert!(BvnDecomposition::from_dense(&d, &[(vec![1, 0], 2)]).is_none());
        assert!(BvnDecomposition::from_dense(&d, &[(vec![0], 2)]).is_none());
        let short = BvnDecomposition::from_dense(&d, &[(vec![0, 1], 1)]).expect("on the support");
        assert!(!short.is_slot_sum());
    }

    /// Slots as `(ingress → egress map, count)`.
    fn sparse_slots(dec: &BvnDecomposition) -> Vec<(Vec<usize>, u64)> {
        (0..dec.len())
            .map(|s| (dec.slot_pairs(s).map(|(_, j)| j).collect(), dec.count(s)))
            .collect()
    }

    fn dense_slots(slots: &[MatchingSlot]) -> Vec<(Vec<usize>, u64)> {
        slots
            .iter()
            .map(|s| (s.perm.as_slice().to_vec(), s.count))
            .collect()
    }

    /// Matrices the decomposition must treat like the dense loop: random
    /// entries, some rows and columns zeroed, a lone entry, or a dense
    /// block in a corner of an otherwise empty fabric.
    fn matrix_case() -> impl Strategy<Value = IntMatrix> {
        (1usize..17, 0u8..4, any::<u64>()).prop_map(|(m, shape, seed)| {
            let mut z = seed;
            let mut draw = move |bound: u64| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (x ^ (x >> 31)) % bound
            };
            let mut d = IntMatrix::zeros(m);
            match shape {
                0 => {
                    for i in 0..m {
                        for j in 0..m {
                            if draw(5) < 3 {
                                d[(i, j)] = draw(13);
                            }
                        }
                    }
                }
                1 => {
                    let (row, col) = (draw(m as u64) as usize, draw(m as u64) as usize);
                    for i in 0..m {
                        for j in 0..m {
                            if i != row && j != col && draw(3) == 0 {
                                d[(i, j)] = 1 + draw(20);
                            }
                        }
                    }
                }
                2 => {
                    let (i, j) = (draw(m as u64) as usize, draw(m as u64) as usize);
                    d[(i, j)] = 1 + draw(50);
                }
                _ => {
                    let side = 1 + draw(m as u64) as usize;
                    for i in 0..side {
                        for j in 0..side {
                            d[(m - side + i, j)] = 1 + draw(9);
                        }
                    }
                }
            }
            d
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The edge-indexed decomposition is the dense loop's, pick for
        /// pick: the augmented units (the same first minimum row and
        /// column each round), the slots with their counts in peel order,
        /// and the load; so is the max-min variant against the dense
        /// max-min peel. The dense incremental peel also matches the
        /// per-round rebuild it replaced.
        #[test]
        fn incremental_decompose_is_slot_identical_to_reference(d in matrix_case()) {
            let augmented = augment_to_balanced(&d);
            let dense = if d.load() == 0 { Vec::new() } else { decompose_balanced(&augmented) };
            let dec = decompose(&d);
            prop_assert_eq!(dec.to_matrix(), augmented.clone());
            prop_assert_eq!(dec.load(), d.load());
            prop_assert_eq!(sparse_slots(&dec), dense_slots(&dense));
            if d.load() > 0 {
                prop_assert_eq!(decompose_balanced_rebuilt(&augmented), dense);
            }

            let maxmin = bvn_decompose_maxmin(d.dim(), d.nonzero_entries());
            let dense = if d.load() == 0 {
                Vec::new()
            } else {
                decompose_balanced_maxmin(&augmented)
            };
            prop_assert_eq!(maxmin.to_matrix(), augmented);
            prop_assert_eq!(maxmin.load(), d.load());
            prop_assert_eq!(sparse_slots(&maxmin), dense_slots(&dense));
        }

        /// Keeping some edges changes only what a slot stores: under a
        /// random mask, asked once per edge in row-major order, each slot
        /// of either peel is the keep-all slot less the refused edges, with
        /// the same count. Filtering the keep-all slots afterwards gives the
        /// same decomposition, and peeling its `D̃` again gives back the
        /// keep-all one.
        #[test]
        fn kept_slots_are_the_keep_all_slots_filtered(d in matrix_case(), seed in any::<u64>()) {
            let m = d.dim();
            let keep = |i: usize, j: usize| {
                let mut x = seed ^ (i * m + j) as u64;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                !(x ^ (x >> 31)).is_multiple_of(3)
            };
            for maxmin in [false, true] {
                let all = if maxmin {
                    bvn_decompose_maxmin(m, d.nonzero_entries())
                } else {
                    decompose(&d)
                };
                let mut asked = Vec::new();
                let kept = bvn_decompose_keeping(m, d.nonzero_entries(), maxmin, |i, j| {
                    asked.push((i, j));
                    keep(i, j)
                });
                let edges: Vec<(usize, usize)> =
                    (0..all.edge_count()).map(|e| (all.ingress(e), all.egress(e))).collect();
                prop_assert_eq!(asked, edges);
                prop_assert_eq!(kept.to_matrix(), all.to_matrix());
                prop_assert_eq!(kept.load(), all.load());
                prop_assert_eq!(kept.len(), all.len());
                for s in 0..all.len() {
                    prop_assert_eq!(kept.count(s), all.count(s));
                    let filtered: Vec<(usize, usize)> =
                        all.slot_pairs(s).filter(|&(i, j)| keep(i, j)).collect();
                    prop_assert_eq!(kept.slot_pairs(s).collect::<Vec<_>>(), filtered);
                }
                let mut retained = all.clone();
                retained.retain_edges(|e| keep(all.ingress(e), all.egress(e)));
                prop_assert_eq!(&retained, &kept);
                prop_assert_eq!(kept.repeeled(maxmin), all);
            }
        }
    }
}
