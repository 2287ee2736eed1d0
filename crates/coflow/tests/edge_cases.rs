//! Edge-case coverage for the scheduling pipeline: degenerate fabrics,
//! empty demands, extreme weights, and pathological structures.

use coflow::ordering::OrderRule;
use coflow::sched::{run, run_with_order, AlgorithmSpec, ExecOptions};
use coflow::{
    compute_order, run_policy, solve_interval_lp, verify_outcome, Coflow, GreedyPolicy, Instance,
    OnlineOptions, OnlineRhoPolicy,
};
use coflow_matching::IntMatrix;

fn all_specs() -> Vec<AlgorithmSpec> {
    let mut specs = Vec::new();
    for order in [
        OrderRule::Arrival,
        OrderRule::LoadOverWeight,
        OrderRule::LpBased,
        OrderRule::SizeOverWeight,
    ] {
        for grouping in [false, true] {
            for backfill in [false, true] {
                specs.push(AlgorithmSpec {
                    order,
                    grouping,
                    backfill,
                });
            }
        }
    }
    specs
}

#[test]
fn single_port_fabric() {
    // m = 1: single-machine preemptive scheduling.
    let inst = Instance::new(
        1,
        vec![
            Coflow::new(0, IntMatrix::diagonal(&[4])),
            Coflow::new(1, IntMatrix::diagonal(&[1])).with_weight(5.0),
        ],
    );
    for spec in all_specs() {
        let out = run(&inst, &spec);
        verify_outcome(&inst, &out).expect("valid");
        // Total work 5 on one port: makespan exactly 5.
        assert_eq!(out.makespan(), 5);
    }
}

#[test]
fn zero_demand_coflow_among_real_ones() {
    let inst = Instance::new(
        2,
        vec![
            Coflow::new(0, IntMatrix::zeros(2)).with_release(3),
            Coflow::new(1, IntMatrix::from_nested(&[[2, 0], [0, 2]])),
        ],
    );
    for spec in all_specs() {
        let out = run(&inst, &spec);
        verify_outcome(&inst, &out).expect("valid");
        assert_eq!(out.completions[0], 3, "empty coflow completes at release");
        // The zero-demand coflow never gates a batch, so coflow 1 runs
        // immediately regardless of order or grouping.
        assert_eq!(out.completions[1], 2, "{:?}", spec);
    }
}

#[test]
fn all_zero_demand_instance() {
    let inst = Instance::new(
        2,
        vec![
            Coflow::new(0, IntMatrix::zeros(2)),
            Coflow::new(1, IntMatrix::zeros(2)).with_release(7),
        ],
    );
    let out = run(&inst, &AlgorithmSpec::algorithm2());
    verify_outcome(&inst, &out).expect("valid");
    assert_eq!(out.completions, vec![0, 7]);
    assert_eq!(out.objective, 7.0);
}

#[test]
fn identical_coflows_tie_break_deterministically() {
    let mk = |id| Coflow::new(id, IntMatrix::from_nested(&[[1, 1], [1, 1]]));
    let inst = Instance::new(2, vec![mk(0), mk(1), mk(2)]);
    let o1 = compute_order(&inst, OrderRule::LpBased);
    let o2 = compute_order(&inst, OrderRule::LpBased);
    assert_eq!(o1, o2, "LP ordering must be deterministic");
    let out = run(&inst, &AlgorithmSpec::algorithm2());
    verify_outcome(&inst, &out).expect("valid");
}

#[test]
fn extreme_weight_ratios_do_not_break_the_lp() {
    let heavy = Coflow::new(0, IntMatrix::diagonal(&[1, 0])).with_weight(1e9);
    let light = Coflow::new(1, IntMatrix::diagonal(&[50, 0])).with_weight(1e-6);
    let inst = Instance::new(2, vec![heavy, light]);
    let lp = solve_interval_lp(&inst);
    assert_eq!(lp.order[0], 0, "astronomically heavy coflow first");
    let out = run(&inst, &AlgorithmSpec::algorithm2());
    verify_outcome(&inst, &out).expect("valid");
    assert_eq!(out.completions[0], 1);
}

#[test]
fn widest_possible_coflow() {
    // Full m x m demand.
    let m = 5;
    let mut d = IntMatrix::zeros(m);
    for i in 0..m {
        for j in 0..m {
            d[(i, j)] = 2;
        }
    }
    let inst = Instance::new(m, vec![Coflow::new(0, d)]);
    let out = run(&inst, &AlgorithmSpec::algorithm2());
    verify_outcome(&inst, &out).expect("valid");
    // rho = 2m: the doubly-balanced matrix clears at its load exactly.
    assert_eq!(out.completions[0], 2 * m as u64);
}

#[test]
fn deeply_staggered_releases() {
    let coflows: Vec<Coflow> = (0..5)
        .map(|k| {
            Coflow::new(k, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(100 * k as u64)
        })
        .collect();
    let inst = Instance::new(2, coflows);
    for spec in all_specs() {
        let out = run(&inst, &spec);
        verify_outcome(&inst, &out).expect("valid");
        if spec.grouping {
            // Faithful Algorithm 2: a group waits for ALL its members'
            // releases, so coflows sharing a V_k interval with a later
            // arrival are delayed to that arrival.
            for (k, &c) in out.completions.iter().enumerate() {
                assert!(c > 100 * k as u64, "completion before earliest possible");
                assert!(c <= 401, "never past the last arrival + 1");
            }
        } else {
            for (k, &c) in out.completions.iter().enumerate() {
                assert_eq!(
                    c,
                    100 * k as u64 + 1,
                    "isolated arrivals finish immediately"
                );
            }
        }
    }
    // Online and greedy agree here too.
    let online = run_policy(
        &inst,
        &mut OnlineRhoPolicy::new(&inst, OnlineOptions::default()),
    );
    let online = online.unwrap();
    assert_eq!(online.completions, vec![1, 101, 201, 301, 401]);
    let greedy = run_policy(&inst, &mut GreedyPolicy::new(&inst, (0..5).collect())).unwrap();
    assert_eq!(greedy.completions, online.completions);
}

#[test]
fn permutation_demand_matrices() {
    // Coflows that are scaled permutation matrices: perfectly parallel.
    let p1 = IntMatrix::scaled_permutation(&coflow_matching::Permutation::new(vec![1, 2, 0]), 4);
    let p2 = IntMatrix::scaled_permutation(&coflow_matching::Permutation::new(vec![2, 0, 1]), 4);
    let inst = Instance::new(3, vec![Coflow::new(0, p1), Coflow::new(1, p2)]);
    let grouped = run_with_order(&inst, vec![0, 1], true, ExecOptions::paper(true));
    verify_outcome(&inst, &grouped).expect("valid");
    // Disjoint pair sets: both can run simultaneously; the aggregate has
    // row/col sums 8, but each coflow's own units finish by slot 8.
    assert!(grouped.makespan() <= 8);
}

#[test]
fn order_permutation_is_always_valid() {
    let inst = Instance::new(
        3,
        vec![
            Coflow::new(0, IntMatrix::diagonal(&[1, 2, 3])),
            Coflow::new(1, IntMatrix::diagonal(&[3, 2, 1])).with_weight(2.0),
            Coflow::new(2, IntMatrix::diagonal(&[2, 2, 2])).with_weight(0.5),
        ],
    );
    for rule in [
        OrderRule::Arrival,
        OrderRule::LoadOverWeight,
        OrderRule::LpBased,
        OrderRule::SizeOverWeight,
    ] {
        let mut order = compute_order(&inst, rule);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2], "{:?} must be a permutation", rule);
    }
}
