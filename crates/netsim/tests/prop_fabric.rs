//! Property-based tests tying the executor and the independent validator
//! together: on random instances and random (feasible) held matchings,
//! under the empty fault plan and under generated ones, both must agree
//! exactly.

#![allow(clippy::needless_range_loop)]

use coflow_matching::IntMatrix;
use coflow_netsim::{trace_stats, validate_trace, Demand, FaultPlan, FaultSim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random instance plus a seed for schedule generation.
fn instance_strategy() -> impl Strategy<Value = (usize, Vec<IntMatrix>, Vec<u64>, u64)> {
    (2usize..4, 1usize..4, 0u64..3, any::<u64>()).prop_flat_map(|(m, n, rmax, seed)| {
        let mats = proptest::collection::vec(
            proptest::collection::vec(0u64..4, m * m)
                .prop_map(move |data| IntMatrix::from_rows(m, data)),
            n,
        );
        let rels = proptest::collection::vec(0u64..=rmax, n);
        (Just(m), mats, rels, Just(seed))
    })
}

/// The demands of `dense` as the executors and the validator take them.
fn sparse(dense: &[IntMatrix]) -> Vec<Demand> {
    dense.iter().map(Demand::from).collect()
}

/// Drives the executor under `plan` until every coflow is settled, with
/// randomly chosen holds, serving pairs with priority lists in random
/// order. Returns the executed trace and the completion times (`None` for
/// a cancelled coflow).
fn random_execution(
    m: usize,
    demands: &[IntMatrix],
    releases: &[u64],
    plan: &FaultPlan,
    seed: u64,
) -> (coflow_netsim::ScheduleTrace, Vec<Option<u64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = FaultSim::new(m, &sparse(demands), releases, plan.clone());
    let mut guard = 0;
    while !sim.all_settled() {
        guard += 1;
        assert!(guard < 10_000, "random execution failed to converge");
        let now = sim.now();
        // Random partial matching among pairs with remaining released demand.
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];
        let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut ks: Vec<usize> = (0..demands.len()).collect();
        for i in (1..ks.len()).rev() {
            let j = rng.gen_range(0..=i);
            ks.swap(i, j);
        }
        for &k in &ks {
            if releases[k] > now || sim.remaining_total(k) == 0 {
                continue;
            }
            for i in 0..m {
                for j in 0..m {
                    if !src_used[i] && !dst_used[j] && sim.remaining(k, i, j) > 0 {
                        src_used[i] = true;
                        dst_used[j] = true;
                        // Everyone released may share the pair, k first.
                        let mut prio = vec![k];
                        prio.extend((0..demands.len()).filter(|&o| o != k && releases[o] <= now));
                        pairs.push((i, j, prio));
                    }
                }
            }
        }
        if pairs.is_empty() {
            // Wait for the next release.
            let next = releases
                .iter()
                .enumerate()
                .filter(|&(k, &r)| sim.remaining_total(k) > 0 && r > now)
                .map(|(_, &r)| r)
                .min()
                .expect("deadlock with no future release");
            sim.advance_to(next);
            continue;
        }
        let duration = rng.gen_range(1..=3);
        sim.apply_run(&pairs, duration).expect("a feasible hold");
    }
    let (trace, completions, ..) = sim.finish();
    (trace, completions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the executor reports, the independent validator
    /// reproduces.
    #[test]
    fn fabric_and_validator_agree((m, demands, releases, seed) in instance_strategy()) {
        let clean = FaultPlan::default();
        let (trace, times) = random_execution(m, &demands, &releases, &clean, seed);
        let validated = validate_trace(&sparse(&demands), &releases, &clean, &trace);
        prop_assert!(validated.is_ok(), "{:?}", validated);
        prop_assert_eq!(validated.unwrap(), times.clone());
        // Conservation: the trace moves exactly the demanded units.
        let total: u64 = demands.iter().map(IntMatrix::total).sum();
        prop_assert_eq!(trace_stats(&trace).total_units, total);
        // Completions respect release + remaining lower bounds.
        for (k, (&t, d)) in times.iter().zip(&demands).enumerate() {
            let t = t.expect("the empty plan cancels nothing");
            prop_assert!(t >= releases[k] + d.load(), "coflow {} too early", k);
        }
    }

    /// Under a generated fault plan — outages, degraded links and
    /// cancellations — the replay returns exactly the executor's
    /// completions, `None` for a coflow cancelled before completing.
    #[test]
    fn fabric_and_validator_agree_under_faults(
        (m, demands, releases, seed) in instance_strategy(),
        rate in 0.0f64..0.8,
        fseed in any::<u64>(),
    ) {
        let horizon = demands.iter().map(IntMatrix::total).sum::<u64>().max(1);
        let plan = FaultPlan::generate(m, demands.len(), horizon, rate, fseed);
        let (trace, times) = random_execution(m, &demands, &releases, &plan, seed);
        let validated = validate_trace(&sparse(&demands), &releases, &plan, &trace);
        prop_assert_eq!(validated, Ok(times));
    }
}
