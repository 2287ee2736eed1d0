//! A coflow's demand, and the remaining demand of many, over nonzero port
//! pairs.
//!
//! The paper writes a coflow as an `m × m` demand matrix but measures it
//! by `M0`, its number of nonzero flows, and the generated traces fill
//! well under 1% of the cells. [`Demand`] is a coflow's demand as that
//! list: its nonzero `(ingress, egress, units)` in row-major order, each
//! pair once, with the fabric width and the total. It is immutable, it is
//! what `coflow::Coflow` holds, and every reader of an instance — the LP
//! builders, the orders, the generators and trace I/O, the executors and
//! replay checks — walks it instead of `m²` cells.
//!
//! [`SparseDemand`] is the remaining demand of a whole instance, in CSR
//! form over coflows: the entries of coflow `k` are `start[k]..start[k +
//! 1]`, each a port pair `(i, j)` with its units, plus a per-coflow total.
//! It is built by concatenating the coflows' [`Demand`] lists; from then
//! on the executors drain it and the policies read it without touching a
//! dense matrix.
//!
//! An entry keeps its place when it drains to zero, so an entry index is
//! stable for the life of the state. Cold paths look a pair up by
//! `(k, i, j)` ([`SparseDemand::find`], a binary search over the coflow's
//! pairs); hot paths resolve a pair's entry once and then read and take by
//! index in O(1). Iterating a coflow's entries with units left yields the
//! sequence [`IntMatrix::nonzero_entries`] yields on the dense matrix it
//! stands for, which is what keeps every decision made from it identical.

use coflow_matching::IntMatrix;
use std::fmt;
use std::ops::Range;

/// One coflow's demand: its nonzero flows `(ingress, egress, units)` on an
/// `m`-port fabric, in row-major order with each pair once — the sequence
/// [`IntMatrix::nonzero_entries`] yields on the matrix it stands for. Its
/// total fits in a `u64`, so every row, column and total sum does too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Demand {
    m: usize,
    flows: Vec<(usize, usize, u64)>,
    total: u64,
}

/// Why a flow list is not a [`Demand`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemandError {
    /// A flow names a port outside the `ports`-port fabric.
    Port {
        /// Ingress of the flow.
        src: usize,
        /// Egress of the flow.
        dst: usize,
        /// Fabric width.
        ports: usize,
    },
    /// The units, summed in the given order, exceed `u64::MAX` at this
    /// flow.
    Overflow {
        /// Ingress of the flow.
        src: usize,
        /// Egress of the flow.
        dst: usize,
    },
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DemandError::Port { src, dst, ports } => {
                write!(
                    f,
                    "flow ({}, {}) is outside the {}-port fabric",
                    src, dst, ports
                )
            }
            DemandError::Overflow { src, dst } => {
                write!(f, "demand units overflow u64 at flow ({}, {})", src, dst)
            }
        }
    }
}

impl std::error::Error for DemandError {}

impl Demand {
    /// Builds the demand of `flows`, given in any order: units on a
    /// repeated pair add up and zero-unit flows are dropped. Fails on a
    /// port `≥ m` or when the units, summed in the given order, overflow
    /// `u64`.
    pub fn from_flows(
        m: usize,
        flows: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Result<Self, DemandError> {
        let mut list = Vec::new();
        let mut total = 0u64;
        for (src, dst, units) in flows {
            if src >= m || dst >= m {
                return Err(DemandError::Port { src, dst, ports: m });
            }
            total = total
                .checked_add(units)
                .ok_or(DemandError::Overflow { src, dst })?;
            if units > 0 {
                list.push((src, dst, units));
            }
        }
        list.sort_unstable_by_key(|&(i, j, _)| (i, j));
        // No pair can overflow: each sums to at most `total`.
        list.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 += later.2;
            }
            same
        });
        Ok(Demand {
            m,
            flows: list,
            total,
        })
    }

    /// The demand of flows that are already nonzero, distinct and in
    /// row-major order, with a total that fits in a `u64`.
    fn from_row_major(m: usize, flows: impl Iterator<Item = (usize, usize, u64)>) -> Self {
        let flows: Vec<_> = flows.collect();
        let total = flows.iter().map(|&(_, _, u)| u).sum();
        Demand { m, flows, total }
    }

    /// Fabric width `m`.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Total units `Σ_ij d_ij`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of nonzero flows (the paper's `M0`).
    pub fn nonzero_count(&self) -> usize {
        self.flows.len()
    }

    /// `(i, j, units)` of every nonzero flow, in row-major order.
    pub fn nonzero_entries(&self) -> impl ExactSizeIterator<Item = (usize, usize, u64)> + '_ {
        self.flows.iter().copied()
    }

    /// Units on pair `(i, j)` (0 off the flows).
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.flows
            .binary_search_by_key(&(i, j), |&(a, b, _)| (a, b))
            .map_or(0, |p| self.flows[p].2)
    }

    /// Nonzero port loads, each list ascending by port: `(ingress,
    /// egress)` with ingress `(i, Σ_j d_ij)` and egress `(j, Σ_i d_ij)`.
    pub fn port_loads(&self) -> (PortLoads, PortLoads) {
        let (mut ingress, mut egress) = (Vec::new(), Vec::new());
        port_loads_into(self.nonzero_entries(), &mut ingress, &mut egress);
        (ingress, egress)
    }

    /// The load `ρ(D)` of Eq. (18): the largest row or column sum.
    pub fn load(&self) -> u64 {
        let (ingress, egress) = self.port_loads();
        ingress
            .into_iter()
            .chain(egress)
            .map(|(_, l)| l)
            .max()
            .unwrap_or(0)
    }
}

impl From<&IntMatrix> for Demand {
    /// The nonzero cells of `d`, in row-major order.
    fn from(d: &IntMatrix) -> Self {
        Demand::from_row_major(d.dim(), d.nonzero_entries())
    }
}

impl From<IntMatrix> for Demand {
    fn from(d: IntMatrix) -> Self {
        Demand::from(&d)
    }
}

impl From<DemandView<'_>> for Demand {
    /// The pairs with units left, in the view's row-major order.
    fn from(view: DemandView<'_>) -> Self {
        Demand::from_row_major(view.m, view.nonzero_entries())
    }
}

/// Nonzero per-port loads `(port, units)`, ascending by port.
pub type PortLoads = Vec<(usize, u64)>;

/// Fills `ingress` and `egress` (cleared first) with the nonzero per-port
/// loads of flows `(i, j, units)` given in any order, pairs repeated or
/// not, each list ascending by port. The lists grow by sorted insertion
/// in one pass, so neither is ever longer than its number of distinct
/// ports, and a caller refilling the same buffers allocates only when one
/// outgrows its capacity.
pub fn port_loads_into(
    flows: impl IntoIterator<Item = (usize, usize, u64)>,
    ingress: &mut PortLoads,
    egress: &mut PortLoads,
) {
    fn add(loads: &mut PortLoads, port: usize, units: u64) {
        match loads.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(pos) => loads[pos].1 += units,
            Err(pos) => loads.insert(pos, (port, units)),
        }
    }
    ingress.clear();
    egress.clear();
    for (i, j, units) in flows.into_iter().filter(|&(_, _, u)| u > 0) {
        add(ingress, i, units);
        add(egress, j, units);
    }
}

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
    /// Builds the state by concatenating the flow lists of `demands`,
    /// which must all be on an `m`-port fabric.
    pub fn new<'a>(m: usize, demands: impl IntoIterator<Item = &'a Demand>) -> Self {
        let mut state = SparseDemand {
            m,
            start: vec![0],
            pairs: Vec::new(),
            units: Vec::new(),
            totals: Vec::new(),
        };
        for d in demands {
            assert_eq!(d.dim(), m, "demand dimension mismatch");
            state.pairs.extend(d.flows.iter().map(|&(i, j, _)| (i, j)));
            state.units.extend(d.flows.iter().map(|&(_, _, u)| u));
            state.totals.push(d.total);
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
        let s = SparseDemand::new(3, [&Demand::from(&a), &Demand::from(IntMatrix::zeros(3))]);
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
        assert_eq!(Demand::from(s.view(0)).load(), 6);
    }

    #[test]
    fn drained_entries_keep_their_index() {
        let a = Demand::from(IntMatrix::from_nested(&[[1, 3], [0, 2]]));
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

    #[test]
    fn flows_merge_into_row_major_pairs() {
        let d = Demand::from_flows(3, [(2, 0, 1), (0, 1, 2), (2, 2, 0), (0, 1, 3), (1, 2, 4)])
            .expect("valid flows");
        let flows: Vec<_> = d.nonzero_entries().collect();
        assert_eq!(flows, vec![(0, 1, 5), (1, 2, 4), (2, 0, 1)]);
        assert_eq!((d.dim(), d.total(), d.nonzero_count()), (3, 10, 3));
        assert_eq!((d.get(0, 1), d.get(2, 2)), (5, 0));
        assert_eq!(
            d.port_loads(),
            (vec![(0, 5), (1, 4), (2, 1)], vec![(0, 1), (1, 5), (2, 4)])
        );
        assert_eq!(d.load(), 5);
        assert_eq!(
            Demand::from_flows(3, [(0, 0, 0)]),
            Ok(Demand::from(IntMatrix::zeros(3)))
        );
        assert_eq!(
            Demand::from_flows(2, [(0, 2, 1)]),
            Err(DemandError::Port {
                src: 0,
                dst: 2,
                ports: 2
            })
        );
        assert_eq!(
            Demand::from_flows(2, [(1, 1, u64::MAX), (0, 0, 1)]),
            Err(DemandError::Overflow { src: 0, dst: 0 })
        );
    }
}
