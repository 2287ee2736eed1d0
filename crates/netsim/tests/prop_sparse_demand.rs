//! Property tests of [`SparseDemand`] against dense `IntMatrix` reference
//! state: on random demands — empty coflows, one-port fabrics, full rows —
//! and random drains, every lookup, entry read, take and clear must leave
//! the sparse state equal to the dense matrices it stands for.

use coflow_matching::IntMatrix;
use coflow_netsim::{Demand, SparseDemand};
use proptest::prelude::*;

/// Random demands: fabric width, each coflow's cells (a zero-heavy mix
/// with some coflows empty and some rows full), and a drain script of
/// `(coflow, pair, units)` takes.
fn demand_case() -> impl Strategy<Value = (usize, Vec<IntMatrix>, Vec<(usize, usize, u64)>)> {
    (1usize..6, 0usize..6).prop_flat_map(|(m, n)| {
        let coflow = (proptest::collection::vec(0u64..3, m * m), 0u8..4, 0usize..m).prop_map(
            move |(cells, shape, row)| {
                let data = match shape {
                    0 => vec![0; m * m],
                    // A full row on top of sparse cells.
                    1 => {
                        let mut d: Vec<u64> = cells.iter().map(|&v| v / 2).collect();
                        for j in 0..m {
                            d[row * m + j] = 1 + (j as u64 % 3);
                        }
                        d
                    }
                    _ => cells.iter().map(|&v| v.saturating_sub(1)).collect(),
                };
                IntMatrix::from_rows(m, data)
            },
        );
        (
            Just(m),
            proptest::collection::vec(coflow, n),
            proptest::collection::vec((0usize..8, 0usize..36, 0u64..4), 0..24),
        )
    })
}

/// The demands of `dense`, as the state is built from them.
fn sparse_of(dense: &[IntMatrix]) -> Vec<Demand> {
    dense.iter().map(Demand::from).collect()
}

/// Asserts that `sparse` holds exactly `dense`: per-pair lookups, the
/// entries in row-major nonzero order, totals, views and the round trip.
fn assert_matches(sparse: &SparseDemand, dense: &[IntMatrix]) {
    assert_eq!(sparse.len(), dense.len());
    for (k, d) in dense.iter().enumerate() {
        let m = d.dim();
        for i in 0..m {
            for j in 0..m {
                assert_eq!(
                    sparse.get(k, i, j),
                    d[(i, j)],
                    "coflow {} ({}, {})",
                    k,
                    i,
                    j
                );
                if let Some(e) = sparse.find(k, i, j) {
                    assert_eq!(sparse.pair(e), (i, j));
                    assert_eq!(sparse.units(e), d[(i, j)]);
                }
            }
        }
        let live: Vec<_> = sparse
            .entries(k)
            .filter(|&e| sparse.units(e) > 0)
            .map(|e| (sparse.pair(e), sparse.units(e)))
            .collect();
        let want: Vec<_> = d.nonzero_entries().map(|(i, j, v)| ((i, j), v)).collect();
        assert_eq!(live, want, "coflow {}", k);
        let view: Vec<_> = sparse.view(k).nonzero_entries().collect();
        assert_eq!(view, d.nonzero_entries().collect::<Vec<_>>());
        assert_eq!(sparse.total(k), d.total());
        assert_eq!(Demand::from(sparse.view(k)).load(), d.load());
        assert_eq!(sparse.to_matrix(k), *d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Built from dense matrices, the sparse state answers every lookup as
    /// they do, and keeps answering as they are drained pair by pair and
    /// coflow by coflow.
    #[test]
    fn sparse_demand_tracks_dense_reference(case in demand_case()) {
        let (m, mut dense, script) = case;
        let mut sparse = SparseDemand::new(m, &sparse_of(&dense));
        prop_assert_eq!(sparse.is_empty(), dense.is_empty());
        for (k, d) in dense.iter().enumerate() {
            prop_assert_eq!(sparse.entries(k).len(), d.nonzero_count());
        }
        assert_matches(&sparse, &dense);
        let n = dense.len();
        for (step, &(k, p, amount)) in script.iter().enumerate().filter(|_| n > 0) {
            let k = k % n;
            let (i, j) = ((p / m) % m, p % m);
            if step % 7 == 6 {
                sparse.clear(k);
                dense[k] = IntMatrix::zeros(m);
            } else if let Some(e) = sparse.find(k, i, j) {
                let amount = amount.min(sparse.units(e));
                sparse.take(k, e, amount);
                dense[k][(i, j)] -= amount;
            } else {
                prop_assert_eq!(dense[k][(i, j)], 0);
            }
            assert_matches(&sparse, &dense);
        }
        // Round trip: drained entries keep their index here, and a rebuild
        // from the drained matrices keeps only the pairs with units left.
        let rebuilt = SparseDemand::new(m, &sparse_of(&dense));
        for (k, d) in dense.iter().enumerate() {
            prop_assert_eq!(rebuilt.entries(k).len(), d.nonzero_count());
            prop_assert_eq!(rebuilt.to_matrix(k), sparse.to_matrix(k));
            prop_assert_eq!(rebuilt.total(k), sparse.total(k));
        }
    }
}
