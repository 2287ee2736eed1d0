//! Remaining demand held over each coflow's nonzero port pairs.
//!
//! The paper writes a coflow as an `m × m` demand matrix but measures it
//! by `M0`, its number of nonzero flows, and the generated traces fill
//! well under 1% of the cells. [`SparseDemand`] keeps only the nonzero pairs,
//! in CSR form over coflows: the entries of coflow `k` are
//! `start[k]..start[k + 1]`, each a port pair `(i, j)` — stored as such,
//! in row-major order — with its units, plus a per-coflow total. It is
//! built in one pass over borrowed matrices; from then on the executors
//! drain it and the policies read it without touching a dense matrix.
//!
//! An entry keeps its place when it drains to zero, so an entry index is
//! stable for the life of the state. Cold paths look a pair up by
//! `(k, i, j)` ([`SparseDemand::find`], a binary search over the coflow's
//! pairs); hot paths resolve a pair's entry once and then read and take by
//! index in O(1). Iterating a coflow's entries with units left yields the
//! sequence [`IntMatrix::nonzero_entries`] yields on the dense matrix it
//! stands for, which is what keeps every decision made from it identical.

use coflow_matching::IntMatrix;
use std::ops::Range;

/// Per-coflow remaining demand over the coflows' nonzero port pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseDemand {
    m: usize,
    /// Entries of coflow `k`: `start[k]..start[k + 1]`.
    start: Vec<usize>,
    /// Port pair of each entry, row-major within each coflow.
    pairs: Vec<(usize, usize)>,
    /// Units left on each entry.
    units: Vec<u64>,
    /// Units left per coflow (the sum of its entries).
    totals: Vec<u64>,
}

impl SparseDemand {
    /// Builds the state in one row-major pass over `demands`, which must
    /// all be `m × m`. Rows with no demand are skipped after one OR-fold.
    pub fn new<'a>(m: usize, demands: impl IntoIterator<Item = &'a IntMatrix>) -> Self {
        let mut state = SparseDemand {
            m,
            start: vec![0],
            pairs: Vec::new(),
            units: Vec::new(),
            totals: Vec::new(),
        };
        for d in demands {
            assert_eq!(d.dim(), m, "demand matrix dimension mismatch");
            let mut total = 0;
            for i in 0..m {
                let row = d.row(i);
                if row.iter().fold(0, |acc, &v| acc | v) == 0 {
                    continue;
                }
                for (j, &v) in row.iter().enumerate().filter(|&(_, &v)| v > 0) {
                    state.pairs.push((i, j));
                    state.units.push(v);
                    total += v;
                }
            }
            state.totals.push(total);
            state.start.push(state.pairs.len());
        }
        state
    }

    /// Number of coflows.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True when the state holds no coflows.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Number of entries: the coflows' nonzero pairs, summed.
    pub fn nnz(&self) -> usize {
        self.pairs.len()
    }

    /// Entry indices of coflow `k`, in row-major pair order.
    #[inline]
    pub fn entries(&self, k: usize) -> Range<usize> {
        self.start[k]..self.start[k + 1]
    }

    /// Port pair `(ingress, egress)` of entry `e`.
    #[inline]
    pub fn pair(&self, e: usize) -> (usize, usize) {
        self.pairs[e]
    }

    /// Units left on entry `e`.
    #[inline]
    pub fn units(&self, e: usize) -> u64 {
        self.units[e]
    }

    /// Units left of coflow `k`.
    #[inline]
    pub fn total(&self, k: usize) -> u64 {
        self.totals[k]
    }

    /// The entry of coflow `k` on pair `(i, j)`, if `k` has one there.
    pub fn find(&self, k: usize, i: usize, j: usize) -> Option<usize> {
        let entries = self.entries(k);
        let first = entries.start;
        self.pairs[entries]
            .binary_search(&(i, j))
            .ok()
            .map(|p| first + p)
    }

    /// Units left of coflow `k` on pair `(i, j)` (0 off its pairs).
    pub fn get(&self, k: usize, i: usize, j: usize) -> u64 {
        self.find(k, i, j).map_or(0, |e| self.units[e])
    }

    /// Removes `amount ≤ units(e)` units from entry `e` of coflow `k`.
    #[inline]
    pub fn take(&mut self, k: usize, e: usize, amount: u64) {
        debug_assert!(
            self.entries(k).contains(&e),
            "entry {} is not coflow {}'s",
            e,
            k
        );
        self.units[e] -= amount;
        self.totals[k] -= amount;
    }

    /// Drops everything coflow `k` has left.
    pub fn clear(&mut self, k: usize) {
        let entries = self.entries(k);
        self.units[entries].fill(0);
        self.totals[k] = 0;
    }

    /// Coflow `k`'s remaining demand, borrowed.
    pub fn view(&self, k: usize) -> DemandView<'_> {
        let entries = self.entries(k);
        DemandView {
            m: self.m,
            pairs: &self.pairs[entries.clone()],
            units: &self.units[entries],
        }
    }

    /// Coflow `k`'s remaining demand as a dense `m × m` matrix.
    pub fn to_matrix(&self, k: usize) -> IntMatrix {
        self.view(k).to_matrix()
    }
}

/// The entry last resolved at each ingress port, for lookups that mostly
/// repeat: consecutive runs of a schedule tend to serve the same coflow on
/// the same pair, and a hit skips the binary search. It answers for one
/// [`SparseDemand`] only — the one its lookups are made in.
#[derive(Clone, Debug)]
pub struct EntryMemo {
    /// `(coflow, egress, entry)` per ingress port.
    last: Vec<(usize, usize, usize)>,
}

impl EntryMemo {
    /// A memo for an `m`-port fabric, remembering nothing yet.
    pub fn new(m: usize) -> Self {
        EntryMemo {
            last: vec![(usize::MAX, usize::MAX, 0); m],
        }
    }

    /// [`SparseDemand::find`] of `(k, i, j)` in `demand`, remembered at
    /// ingress `i < m`.
    #[inline]
    pub fn find(&mut self, demand: &SparseDemand, k: usize, i: usize, j: usize) -> Option<usize> {
        let last = &mut self.last[i];
        if (last.0, last.1) == (k, j) {
            return Some(last.2);
        }
        let e = demand.find(k, i, j)?;
        *last = (k, j, e);
        Some(e)
    }
}

/// One coflow's remaining demand, borrowed from a [`SparseDemand`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandView<'a> {
    m: usize,
    pairs: &'a [(usize, usize)],
    units: &'a [u64],
}

impl DemandView<'_> {
    /// `(i, j, units)` of every pair with units left, in row-major order:
    /// what [`IntMatrix::nonzero_entries`] yields on
    /// [`DemandView::to_matrix`].
    pub fn nonzero_entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.pairs
            .iter()
            .zip(self.units)
            .filter(|&(_, &v)| v > 0)
            .map(|(&(i, j), &v)| (i, j, v))
    }

    /// `ρ` of the remaining demand: its largest row or column sum.
    pub fn load(&self) -> u64 {
        let mut row = vec![0u64; self.m];
        let mut col = vec![0u64; self.m];
        for (i, j, v) in self.nonzero_entries() {
            row[i] += v;
            col[j] += v;
        }
        row.into_iter().chain(col).max().unwrap_or(0)
    }

    /// The remaining demand as a dense `m × m` matrix.
    pub fn to_matrix(&self) -> IntMatrix {
        let mut d = IntMatrix::zeros(self.m);
        for (i, j, v) in self.nonzero_entries() {
            d[(i, j)] = v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_follow_row_major_nonzeros() {
        let a = IntMatrix::from_nested(&[[0, 2, 0], [0, 0, 0], [1, 0, 5]]);
        let b = IntMatrix::zeros(3);
        let s = SparseDemand::new(3, [&a, &b]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.entries(0), 0..3);
        assert!(s.entries(1).is_empty());
        let pairs: Vec<_> = s.entries(0).map(|e| (s.pair(e), s.units(e))).collect();
        assert_eq!(pairs, vec![((0, 1), 2), ((2, 0), 1), ((2, 2), 5)]);
        assert_eq!((s.total(0), s.total(1)), (8, 0));
        assert_eq!(s.find(0, 2, 0), Some(1));
        assert_eq!(s.find(0, 1, 1), None);
        assert_eq!(s.get(1, 0, 0), 0);
        assert_eq!(s.to_matrix(0), a);
        assert_eq!(s.view(0).load(), 6);
    }

    #[test]
    fn drained_entries_keep_their_index() {
        let a = IntMatrix::from_nested(&[[1, 3], [0, 2]]);
        let mut s = SparseDemand::new(2, [&a]);
        s.take(0, 0, 1);
        assert_eq!(s.find(0, 0, 0), Some(0));
        assert_eq!(s.units(0), 0);
        assert_eq!(s.total(0), 5);
        let live: Vec<_> = s.view(0).nonzero_entries().collect();
        assert_eq!(live, vec![(0, 1, 3), (1, 1, 2)]);
        s.clear(0);
        assert_eq!(s.total(0), 0);
        assert_eq!(s.to_matrix(0), IntMatrix::zeros(2));
    }
}
