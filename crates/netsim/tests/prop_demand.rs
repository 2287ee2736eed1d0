//! Property tests of [`Demand`] against dense `IntMatrix` accumulation:
//! random flow lists — repeated pairs, zero-unit flows, pairs in any
//! order — must build exactly the entries the dense matrix holds, and
//! every read (`get`, `total`, `load`, the row and column loads, the
//! row-major order of `nonzero_entries`) must answer as the matrix does.
//! A port outside the fabric or a units overflow must be an `Err`, never
//! a panic.

use coflow_matching::IntMatrix;
use coflow_netsim::{Demand, DemandError};
use proptest::prelude::*;

/// A fabric width and a flow list on it: ports in range, units from a
/// zero-heavy small range, pairs repeated and shuffled.
fn flows_case() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (1usize..6).prop_flat_map(|m| {
        (
            Just(m),
            proptest::collection::vec((0..m, 0..m, 0u64..4), 0..30),
        )
    })
}

/// Nonzero `(port, load)` of a dense per-port sum vector.
fn nonzero(sums: Vec<u64>) -> Vec<(usize, u64)> {
    sums.into_iter()
        .enumerate()
        .filter(|&(_, l)| l > 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Built from any flow list, the demand holds the dense accumulation.
    #[test]
    fn demand_matches_dense_accumulation(case in flows_case()) {
        let (m, flows) = case;
        let mut dense = IntMatrix::zeros(m);
        for &(i, j, u) in &flows {
            dense[(i, j)] += u;
        }
        let demand = Demand::from_flows(m, flows.iter().copied()).expect("in-range flows");
        prop_assert_eq!(demand.dim(), m);
        prop_assert_eq!(
            demand.nonzero_entries().collect::<Vec<_>>(),
            dense.nonzero_entries().collect::<Vec<_>>()
        );
        prop_assert_eq!(demand.nonzero_count(), dense.nonzero_count());
        prop_assert_eq!(demand.total(), dense.total());
        prop_assert_eq!(demand.load(), dense.load());
        prop_assert_eq!(
            demand.port_loads(),
            (nonzero(dense.row_sums()), nonzero(dense.col_sums()))
        );
        for i in 0..m {
            for j in 0..m {
                prop_assert_eq!(demand.get(i, j), dense[(i, j)], "({}, {})", i, j);
            }
        }
        // The dense matrix converts to the same demand, and reversing the
        // flow list builds it too.
        prop_assert_eq!(&Demand::from(&dense), &demand);
        let reversed = Demand::from_flows(m, flows.iter().rev().copied());
        prop_assert_eq!(reversed, Ok(demand));
    }

    /// A flow naming a port `≥ m` is refused, wherever it sits.
    #[test]
    fn out_of_range_ports_are_errors(case in flows_case(), at in 0usize..31, side in 0u8..3) {
        let (m, mut flows) = case;
        let at = at % (flows.len() + 1);
        let (src, dst) = match side {
            0 => (m, 0),
            1 => (0, m + at),
            _ => (m + 1, m),
        };
        flows.insert(at, (src, dst, 1));
        let first_bad = flows
            .iter()
            .find(|&&(i, j, _)| i >= m || j >= m)
            .map(|&(i, j, _)| (i, j))
            .expect("one flow is out of range");
        prop_assert_eq!(
            Demand::from_flows(m, flows),
            Err(DemandError::Port { src: first_bad.0, dst: first_bad.1, ports: m })
        );
    }

    /// Units whose sum overflows `u64` are refused; any list whose sum
    /// fits builds a demand with that total.
    #[test]
    fn units_overflow_is_an_error(
        case in flows_case(),
        big in proptest::collection::vec((0usize..5, 0usize..5, any::<u64>()), 1..4),
    ) {
        let (m, mut flows) = case;
        flows.extend(big.into_iter().map(|(i, j, u)| (i % m, j % m, u)));
        let sum: u128 = flows.iter().map(|&(_, _, u)| u128::from(u)).sum();
        match Demand::from_flows(m, flows.iter().copied()) {
            Ok(d) => {
                prop_assert!(sum <= u128::from(u64::MAX));
                prop_assert_eq!(u128::from(d.total()), sum);
            }
            Err(e) => {
                prop_assert!(sum > u128::from(u64::MAX), "{}", e);
                prop_assert!(matches!(e, DemandError::Overflow { .. }), "{}", e);
            }
        }
    }
}
