//! Property coverage for the windowed interval-LP solve: on random small
//! instances, sharding the LP by port-connected coflow groups must produce
//! the same fractional completion times — and therefore the same ordering
//! (15) — as the monolithic solve. This is the exactness claim of
//! `coflow::windowed`: the monolithic LP is block-diagonal over the groups,
//! so nothing is lost by solving the blocks separately.

use coflow::{solve_interval_lp, try_solve_windowed, Coflow, CoflowLoads, Instance};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use proptest::prelude::*;

/// A random sparse instance: a few coflows over a small fabric, each with a
/// handful of random flows, continuous weights (generic weights keep the LP
/// optimum unique, which the comparison relies on), and small releases.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (2usize..6, 1usize..7)
        .prop_flat_map(|(m, n)| {
            let coflow = (
                proptest::collection::vec(((0..m, 0..m), 1u64..8), 1..5),
                0u64..6,
                0.5f64..2.5,
            );
            (Just(m), proptest::collection::vec(coflow, n..=n))
        })
        .prop_map(|(m, specs)| {
            let coflows = specs
                .into_iter()
                .enumerate()
                .map(|(id, (flows, release, weight))| {
                    let mut d = IntMatrix::zeros(m);
                    for ((i, j), v) in flows {
                        d[(i, j)] += v;
                    }
                    Coflow::new(id, d).with_release(release).with_weight(weight)
                })
                .collect();
            Instance::new(m, coflows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windowed C̄ equals monolithic C̄, hence the same ordering.
    #[test]
    fn windowed_order_equals_monolithic(inst in arb_instance()) {
        let mono = solve_interval_lp(&inst);
        let loads: Vec<CoflowLoads> = inst.coflows().iter().map(Coflow::loads).collect();
        let win = try_solve_windowed(inst.ports(), &loads, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        for (k, (a, b)) in win
            .approx_completion
            .iter()
            .zip(&mono.approx_completion)
            .enumerate()
        {
            prop_assert!(
                (a - b).abs() < 1e-6,
                "C-bar mismatch at coflow {}: windowed {} vs monolithic {}",
                k, a, b
            );
        }
        prop_assert!((win.lower_bound - mono.lower_bound).abs() < 1e-6);
        // Exact order equality is only guaranteed away from ties; with
        // continuous random weights ties are vanishingly rare, but guard
        // against them rather than flake.
        let mut sorted = mono.approx_completion.clone();
        sorted.sort_by(f64::total_cmp);
        let tied = sorted.windows(2).any(|w| (w[1] - w[0]).abs() < 1e-5);
        if !tied {
            prop_assert_eq!(&win.order, &mono.order);
        }
    }
}
