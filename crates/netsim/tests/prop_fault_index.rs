//! [`FaultIndex`] answers every lookup exactly as the [`FaultPlan`] it was
//! compiled from: `pair_open` and `cancellation` on every in-range pair,
//! coflow and slot, `first_closed` on every slot range as the first slot
//! of the range the plan closes, and the same `boundaries` — on generated
//! plans and on
//! hand-rolled ones with events outside the instance, repeated
//! cancellations of one coflow, strides 0 and 1, empty windows and
//! overlapping windows on one port.

use coflow_netsim::{FaultEvent, FaultIndex, FaultPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A plan of `events` random events over slots `0..24`. Ports range up to
/// `m + 1` and coflows up to `n + 1`, so some events fall outside the
/// instance; with few ports, windows on one port overlap. Ends may precede
/// starts (empty windows), strides run from 0 to 4, and coflows are drawn
/// with repetition, so some are cancelled more than once.
fn random_plan(m: usize, n: usize, events: usize, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::default();
    for _ in 0..events {
        let port = rng.gen_range(0..m + 2);
        let start = rng.gen_range(0..24u64);
        let end = (start + rng.gen_range(0..10u64)).saturating_sub(2);
        plan.events.push(match rng.gen_range(0..4) {
            0 => FaultEvent::IngressOutage { port, start, end },
            1 => FaultEvent::EgressOutage { port, start, end },
            2 => FaultEvent::LinkDegraded {
                src: port,
                dst: rng.gen_range(0..m + 2),
                start,
                end,
                stride: rng.gen_range(0..5u64),
            },
            _ => FaultEvent::CoflowCancelled {
                coflow: rng.gen_range(0..n + 2),
                at: start,
            },
        });
    }
    plan
}

/// Asserts that `index` agrees with `plan` on every in-range lookup.
fn assert_agrees(plan: &FaultPlan, m: usize, n: usize) {
    let index = FaultIndex::new(plan, m, n);
    assert_eq!(index.boundaries(), plan.boundaries().as_slice());
    for i in 0..m {
        for j in 0..m {
            let open: Vec<bool> = (0..30).map(|slot| plan.pair_open(i, j, slot)).collect();
            for (slot, &open) in open.iter().enumerate() {
                let slot = slot as u64;
                assert_eq!(
                    index.pair_open(i, j, slot),
                    open,
                    "pair ({}, {}) slot {}",
                    i,
                    j,
                    slot
                );
            }
            for first in 0..30u64 {
                for last in first..30u64 {
                    assert_eq!(
                        index.first_closed(i, j, first, last),
                        (first..=last).find(|&slot| !open[slot as usize]),
                        "pair ({}, {}) slots {}..={}",
                        i,
                        j,
                        first,
                        last
                    );
                }
            }
        }
    }
    for k in 0..n {
        assert_eq!(index.cancellation(k), plan.cancellation(k), "coflow {}", k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hand-rolled plans, events outside the instance included.
    #[test]
    fn index_agrees_with_random_plans(
        m in 1usize..5,
        n in 1usize..5,
        events in 0usize..16,
        seed in 0u64..1 << 32,
    ) {
        assert_agrees(&random_plan(m, n, events, seed), m, n);
    }

    /// Plans from `FaultPlan::generate`, as the engine and the benchmark
    /// draw them.
    #[test]
    fn index_agrees_with_generated_plans(
        m in 1usize..6,
        n in 1usize..6,
        horizon in 1u64..30,
        rate in 0.0f64..1.0,
        seed in 0u64..1 << 32,
    ) {
        assert_agrees(&FaultPlan::generate(m, n, horizon, rate, seed), m, n);
    }
}
