//! Property tests for trace statistics and the flight recorder: on random
//! valid traces the capacity accounting identity
//! `offered_capacity == total_units + idle_pair_slots` must hold exactly,
//! the per-port busy totals must conserve units, and the recorder's
//! summary fields must agree with the trace.

use coflow_netsim::{record_flights, trace_stats, RecorderConfig, Run, ScheduleTrace, Transfer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random valid trace: non-overlapping runs, each a partial
/// matching, with per-pair transfer totals bounded by the run duration
/// (so no pair is oversubscribed). Returns the trace and the coflow count.
fn random_trace(m: usize, n: usize, runs: usize, seed: u64) -> (ScheduleTrace, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = ScheduleTrace::new(m);
    let mut start = 1u64;
    for _ in 0..runs {
        // Random gap between runs, random duration.
        start += rng.gen_range(0..3u64);
        let duration = rng.gen_range(1..=4u64);
        let mut transfers = Vec::new();
        let mut dsts: Vec<usize> = (0..m).collect();
        for i in (1..dsts.len()).rev() {
            let j = rng.gen_range(0..=i);
            dsts.swap(i, j);
        }
        for (src, &dst) in dsts.iter().enumerate().take(m) {
            if rng.gen_range(0..3) == 0 {
                continue; // leave this pair out of the matching
            }
            // Split up to `duration` units among a few coflows (possibly
            // fewer: idle pair-slots inside the run).
            let mut budget = rng.gen_range(0..=duration);
            while budget > 0 {
                let units = rng.gen_range(1..=budget);
                transfers.push(Transfer::new(src, dst, rng.gen_range(0..n), units).unwrap());
                budget -= units;
            }
        }
        if transfers.is_empty() {
            continue;
        }
        trace.push_run(Run {
            start,
            duration,
            transfers: transfers.into(),
        });
        start += duration;
    }
    (trace, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// offered_capacity == total_units + idle_pair_slots, exactly, and the
    /// per-port utilization vectors conserve the moved units.
    #[test]
    fn capacity_accounting_identity(
        m in 2usize..6,
        n in 1usize..5,
        runs in 0usize..8,
        seed in any::<u64>(),
    ) {
        let (trace, _) = random_trace(m, n, runs, seed);
        let s = trace_stats(&trace);
        prop_assert_eq!(
            s.offered_capacity,
            s.total_units + s.idle_pair_slots,
            "offered capacity must split exactly into moved + idle"
        );
        prop_assert_eq!(s.total_units, trace.total_units());
        // Port-side conservation: each unit leaves one ingress and enters
        // one egress.
        let makespan = s.makespan.max(1) as f64;
        let ingress_units: f64 =
            s.ingress_utilization.iter().map(|u| u * makespan).sum();
        let egress_units: f64 =
            s.egress_utilization.iter().map(|u| u * makespan).sum();
        prop_assert!((ingress_units - s.total_units as f64).abs() < 1e-6);
        prop_assert!((egress_units - s.total_units as f64).abs() < 1e-6);
        // No port can exceed unit capacity per slot.
        for u in s.ingress_utilization.iter().chain(&s.egress_utilization) {
            prop_assert!(*u <= 1.0 + 1e-12, "port over capacity: {}", u);
        }
    }

    /// The flight recorder's summaries agree with the trace: served units
    /// per coflow sum to the trace total, port-series busy counts conserve
    /// units, and completions are consistent with demand.
    #[test]
    fn recorder_agrees_with_trace(
        m in 2usize..6,
        n in 1usize..5,
        runs in 0usize..8,
        seed in any::<u64>(),
        bucket in 1u64..6,
    ) {
        let (trace, n) = random_trace(m, n, runs, seed);
        // Demand exactly what the trace serves, released at slot 0.
        let mut totals = vec![0u64; n];
        for run in &trace.runs {
            for t in &run.transfers {
                totals[t.coflow()] += t.units;
            }
        }
        let releases = vec![0u64; n];
        let cfg = RecorderConfig { bucket, max_events_per_coflow: 1 << 20 };
        let rec = record_flights(&trace, &totals, &releases, &[], &cfg);
        let served: u64 = rec.flights.iter().map(|f| f.served_units).sum();
        prop_assert_eq!(served, trace.total_units());
        let busy: u64 = rec.ports.ingress_busy.iter().flatten().sum();
        prop_assert_eq!(busy, trace.total_units());
        for f in &rec.flights {
            prop_assert_eq!(f.served_units, totals[f.coflow]);
            prop_assert_eq!(
                f.completion.is_some(),
                true,
                "every demanded coflow is served to completion"
            );
            prop_assert!(f.service_slots <= rec.makespan);
            if totals[f.coflow] > 0 {
                prop_assert!(f.first_service.is_some());
                prop_assert!(f.completion.unwrap() <= rec.makespan);
                prop_assert!(f.events_dropped == 0, "cap is generous here");
            }
        }
    }
}
