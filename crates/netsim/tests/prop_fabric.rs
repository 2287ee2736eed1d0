//! Property-based tests tying the run-length executor, the slot-level
//! executor, and the independent validator together: on random instances
//! and random (feasible) schedules all three must agree exactly.

#![allow(clippy::needless_range_loop)]

use coflow_matching::IntMatrix;
use coflow_netsim::{trace_stats, validate_trace, Demand, Fabric, SlotSim};
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

/// Drives a Fabric to completion with randomly chosen runs, serving pairs
/// with priority lists in random order. Returns the completion times.
fn random_execution(
    m: usize,
    demands: &[IntMatrix],
    releases: &[u64],
    seed: u64,
) -> (coflow_netsim::ScheduleTrace, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = Fabric::new(m, &sparse(demands), releases);
    let mut guard = 0;
    while !fabric.all_done() {
        guard += 1;
        assert!(guard < 10_000, "random execution failed to converge");
        let now = fabric.now();
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
            if releases[k] > now || fabric.remaining_total(k) == 0 {
                continue;
            }
            for i in 0..m {
                for j in 0..m {
                    if !src_used[i] && !dst_used[j] && fabric.remaining(k, i, j) > 0 {
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
                .filter(|&(k, &r)| fabric.remaining_total(k) > 0 && r > now)
                .map(|(_, &r)| r)
                .min()
                .expect("deadlock with no future release");
            fabric.advance_to(next);
            continue;
        }
        let duration = rng.gen_range(1..=3);
        fabric.apply_run(&pairs, duration);
    }
    fabric.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the Fabric reports, the independent validator reproduces.
    #[test]
    fn fabric_and_validator_agree((m, demands, releases, seed) in instance_strategy()) {
        let (trace, times) = random_execution(m, &demands, &releases, seed);
        let validated = validate_trace(&sparse(&demands), &releases, &trace);
        prop_assert!(validated.is_ok(), "{:?}", validated);
        prop_assert_eq!(validated.unwrap(), times.clone());
        // Conservation: the trace moves exactly the demanded units.
        let total: u64 = demands.iter().map(IntMatrix::total).sum();
        prop_assert_eq!(trace_stats(&trace).total_units, total);
        // Completions respect release + remaining lower bounds.
        for (k, (&t, d)) in times.iter().zip(&demands).enumerate() {
            prop_assert!(t >= releases[k] + d.load(), "coflow {} too early", k);
        }
    }

    /// Replaying a run-length trace slot by slot gives identical times.
    #[test]
    fn slot_sim_agrees_with_fabric((m, demands, releases, seed) in instance_strategy()) {
        let (trace, times) = random_execution(m, &demands, &releases, seed);
        let mut sim = SlotSim::new(m, &demands, &releases);
        for run in &trace.runs {
            // Within a run, expand each pair's transfers into unit moves at
            // their exact offsets.
            let mut by_slot: Vec<Vec<(usize, usize, usize)>> =
                vec![Vec::new(); run.duration as usize];
            let mut pair_used: std::collections::HashMap<(usize, usize), u64> =
                std::collections::HashMap::new();
            for t in &run.transfers {
                let used = pair_used.entry((t.src(), t.dst())).or_insert(0);
                for u in 0..t.units {
                    by_slot[(*used + u) as usize].push((t.src(), t.dst(), t.coflow()));
                }
                *used += t.units;
            }
            // Idle until the run starts.
            while sim.now() + 1 < run.start {
                sim.step(&[]);
            }
            for moves in &by_slot {
                sim.step(moves);
            }
        }
        prop_assert!(sim.all_done());
        let sim_times: Vec<u64> = sim
            .completion_times()
            .iter()
            .map(|c| c.unwrap())
            .collect();
        prop_assert_eq!(sim_times, times);
    }
}
