//! Property-based tests for trace generation, filtering, weighting, and
//! serialization.

use coflow_workloads::{
    assign_weights, filter_by_width, generate_trace, io, TraceConfig, WeightScheme,
};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = TraceConfig> {
    (
        2usize..12, // ports
        1usize..16, // coflows
        any::<u64>(),
        1u64..64, // max flow size
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(
            |(ports, num_coflows, seed, max_flow_size, zero_release)| TraceConfig {
                ports,
                num_coflows,
                seed,
                max_flow_size,
                zero_release,
                flow_size_mu: 0.8,
                flow_size_sigma: 0.9,
                ..TraceConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generation is deterministic, in-bounds, and structurally sound.
    #[test]
    fn generation_invariants(cfg in config_strategy()) {
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        prop_assert_eq!(a.len(), cfg.num_coflows);
        prop_assert_eq!(a.ports(), cfg.ports);
        for (x, y) in a.coflows().iter().zip(b.coflows()) {
            prop_assert_eq!(x, y);
        }
        for c in a.coflows() {
            prop_assert!(c.total_units() > 0);
            for (_, _, d) in c.demand.nonzero_entries() {
                prop_assert!(d <= cfg.max_flow_size);
            }
            if cfg.zero_release {
                prop_assert_eq!(c.release, 0);
            }
        }
    }

    /// Filtering keeps exactly the wide-enough coflows and preserves them.
    #[test]
    fn filter_invariants(cfg in config_strategy(), min_width in 0usize..30) {
        let trace = generate_trace(&cfg);
        let filtered = filter_by_width(&trace, min_width);
        prop_assert!(filtered.len() <= trace.len());
        for c in filtered.coflows() {
            prop_assert!(c.width() >= min_width);
        }
        let expected = trace.coflows().iter().filter(|c| c.width() >= min_width).count();
        prop_assert_eq!(filtered.len(), expected);
    }

    /// Random-permutation weights are exactly {1..n} and deterministic.
    #[test]
    fn weight_scheme_invariants(cfg in config_strategy(), wseed in any::<u64>()) {
        let trace = generate_trace(&cfg);
        let weighted = assign_weights(&trace, WeightScheme::RandomPermutation { seed: wseed });
        let mut ws: Vec<u64> = weighted.coflows().iter().map(|c| c.weight as u64).collect();
        ws.sort_unstable();
        let expected: Vec<u64> = (1..=trace.len() as u64).collect();
        prop_assert_eq!(ws, expected);
        // Demands untouched.
        for (a, b) in trace.coflows().iter().zip(weighted.coflows()) {
            prop_assert_eq!(&a.demand, &b.demand);
        }
    }

    /// JSON and CSV round trips are lossless.
    #[test]
    fn io_round_trips(cfg in config_strategy()) {
        let trace = assign_weights(
            &generate_trace(&cfg),
            WeightScheme::RandomPermutation { seed: cfg.seed },
        );
        let via_json = io::from_json(&io::to_json(&trace)).unwrap();
        prop_assert_eq!(via_json.len(), trace.len());
        for (a, b) in trace.coflows().iter().zip(via_json.coflows()) {
            prop_assert_eq!(a, b);
        }
        let via_csv = io::from_csv(trace.ports(), &io::to_csv(&trace)).unwrap();
        prop_assert_eq!(via_csv.len(), trace.len());
        for (a, b) in trace.coflows().iter().zip(via_csv.coflows()) {
            prop_assert_eq!(&a.demand, &b.demand);
            prop_assert_eq!(a.release, b.release);
            prop_assert!((a.weight - b.weight).abs() < 1e-9);
        }
    }
}
