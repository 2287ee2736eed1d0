//! Appendix A: a coflow instance whose matrices are diagonal *is* a
//! concurrent open shop. Machine `i` is the port pair `(i, i)`, a job's
//! processing on machine `i` is the entry `d_ii`, and the matching
//! constraints decouple into independent unit-speed machines.
//!
//! These tests hold `coflow`'s own orders, exact optimum and greedy engine
//! policy to the open-shop facts the paper leans on: a permutation schedule
//! is optimal (Ahmadi et al.), WSPT is optimal on one machine (Smith), the
//! Mastrolilli et al. primal–dual (`H_pd`) is a 2-approximation, and the
//! interval-LP order (`H_LP`) is within Wang–Cheng's 16/3.

use coflow::ordering::OrderRule;
use coflow::sched::optimal::optimal_objective;
use coflow::sched::{run, AlgorithmSpec};
use coflow::{
    compute_order, permutation_by_key, run_policy, verify_outcome, Coflow, GreedyPolicy, Instance,
};
use coflow_matching::IntMatrix;
use coflow_workloads::random_diagonal_instance;
use proptest::prelude::*;

/// A diagonal instance: coflow `k` needs `processing[k][i]` units on the
/// port pair `(i, i)` and weighs `weights[k]`.
fn diagonal(processing: &[&[u64]], weights: &[f64]) -> Instance {
    let coflows = processing
        .iter()
        .zip(weights)
        .enumerate()
        .map(|(k, (p, &w))| Coflow::new(k, IntMatrix::diagonal(p)).with_weight(w))
        .collect();
    Instance::new(processing[0].len(), coflows)
}

/// The open shop's permutation schedule of a diagonal instance: every
/// machine processes the coflows in `order`, none before its release, and a
/// coflow completes when its last machine finishes it. Returns each
/// coflow's completion. Panics on off-diagonal demand, which no open shop
/// has.
fn list_schedule(inst: &Instance, order: &[usize]) -> Vec<u64> {
    let mut clock = vec![0u64; inst.ports()];
    let mut completions = vec![0u64; inst.len()];
    for &k in order {
        let c = inst.coflow(k);
        let mut done = c.release;
        for (i, j, p) in c.demand.nonzero_entries() {
            assert_eq!(i, j, "coflow {} has off-diagonal demand", c.id);
            clock[i] = clock[i].max(c.release) + p;
            done = done.max(clock[i]);
        }
        completions[k] = done;
    }
    completions
}

fn list_objective(inst: &Instance, order: &[usize]) -> f64 {
    inst.objective(&list_schedule(inst, order))
}

/// The best permutation schedule, by brute force. With zero releases it is
/// the open-shop optimum.
fn best_permutation_objective(inst: &Instance) -> f64 {
    fn permute(order: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
        if k == order.len() {
            visit(order);
            return;
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, visit);
            order.swap(k, i);
        }
    }
    assert!(inst.len() <= 8, "factorial search capped at 8 coflows");
    let mut order: Vec<usize> = (0..inst.len()).collect();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut |perm| {
        best = best.min(list_objective(inst, perm))
    });
    best
}

#[test]
fn list_schedule_is_the_permutation_schedule() {
    // A coflow completes when its last machine finishes it.
    assert_eq!(list_schedule(&diagonal(&[&[3, 5]], &[1.0]), &[0]), vec![5]);
    // A machine a coflow does not use does not hold it back.
    let disjoint = diagonal(&[&[2, 0], &[0, 3]], &[1.0, 1.0]);
    assert_eq!(list_schedule(&disjoint, &[1, 0]), vec![2, 3]);
    // Releases stall the machines.
    let unit = |k| Coflow::new(k, IntMatrix::diagonal(&[1]));
    let released = Instance::new(1, vec![unit(0), unit(1).with_release(10)]);
    assert_eq!(list_schedule(&released, &[0, 1]), vec![1, 11]);
}

#[test]
#[should_panic(expected = "off-diagonal")]
fn off_diagonal_demand_is_not_an_open_shop() {
    let c = Coflow::new(0, IntMatrix::from_nested(&[[0, 1], [0, 0]]));
    list_schedule(&Instance::new(2, vec![c]), &[0]);
}

#[test]
fn open_shop_optimum_equals_coflow_optimum_on_diagonals() {
    // A permutation schedule is optimal for concurrent open shop, so the
    // best one is the optimum of the exact coflow search.
    let mut instances: Vec<Instance> = (0..8)
        .map(|seed| random_diagonal_instance(2, 3, 0.8, 3, seed))
        .collect();
    instances.push(diagonal(&[&[2, 1], &[1, 2]], &[1.0, 2.0]));
    for (case, inst) in instances.iter().enumerate() {
        let best_perm = best_permutation_objective(inst);
        let exact = optimal_objective(inst);
        assert_eq!(
            best_perm, exact,
            "case {}: permutation optimum {} != coflow optimum {}",
            case, best_perm, exact
        );
    }
}

#[test]
fn single_machine_case_matches_wspt_theory() {
    // m = 1 is 1 | | Σ wC, where Smith's WSPT order is optimal. The ratios
    // p / w are 2, 1/3 and 3/2, so WSPT is [1, 2, 0]: 3·1 + 2·4 + 1·6 = 17.
    let one = diagonal(&[&[2], &[1], &[3]], &[1.0, 3.0, 2.0]);
    for rule in [
        OrderRule::LoadOverWeight,
        OrderRule::SizeOverWeight,
        OrderRule::PortPrimalDual,
    ] {
        let order = compute_order(&one, rule);
        assert_eq!(order, vec![1, 2, 0], "{} is WSPT", rule.name());
        assert_eq!(list_objective(&one, &order), 17.0);
    }
    assert_eq!(best_permutation_objective(&one), 17.0);

    // Preemption does not help on one machine, and H_ρ run sequentially is
    // WSPT: job 1 (p/w 0.25), job 2 (1.0), job 0 (3.0) gives
    // 4·1 + 2·3 + 1·6 = 16.
    let inst = diagonal(&[&[3], &[1], &[2]], &[1.0, 4.0, 2.0]);
    assert_eq!(optimal_objective(&inst), 16.0);
    let out = run(
        &inst,
        &AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: false,
            backfill: true,
        },
    );
    verify_outcome(&inst, &out).expect("valid");
    assert_eq!(
        out.objective, 16.0,
        "H_rho sequential = WSPT on one machine"
    );
}

#[test]
fn wspt_heuristic_is_near_optimal_on_diagonals() {
    for seed in 0..8 {
        let inst = random_diagonal_instance(2, 4, 0.8, 4, seed);
        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        let h_rho = list_objective(&inst, &order);
        let best = best_permutation_objective(&inst);
        assert!(
            h_rho <= 2.0 * best,
            "seed {}: H_rho at {} vs optimum {}",
            seed,
            h_rho,
            best
        );
    }
}

#[test]
fn bottleneck_and_total_orders_differ() {
    // Coflow 0: bottleneck 4, total 4. Coflow 1: bottleneck 3, total 6.
    let inst = diagonal(&[&[4, 0], &[3, 3]], &[1.0, 1.0]);
    assert_eq!(compute_order(&inst, OrderRule::LoadOverWeight), vec![1, 0]);
    assert_eq!(compute_order(&inst, OrderRule::SizeOverWeight), vec![0, 1]);
}

#[test]
fn interval_lp_order_is_within_wang_cheng_bound() {
    // H_LP list-scheduled is Wang and Cheng's algorithm for concurrent open
    // shop: within 16/3 of the optimum.
    let mut instances: Vec<Instance> = (0..6)
        .map(|seed| random_diagonal_instance(3, 4, 0.7, 5, seed))
        .collect();
    instances.push(diagonal(&[&[4, 1], &[1, 1], &[2, 3]], &[1.0, 2.0, 1.5]));
    for (case, inst) in instances.iter().enumerate() {
        let h_lp = list_objective(inst, &compute_order(inst, OrderRule::LpBased));
        let best = best_permutation_objective(inst);
        assert!(
            h_lp <= 16.0 / 3.0 * best,
            "case {}: H_LP at {} vs optimum {}",
            case,
            h_lp,
            best
        );
    }
}

#[test]
fn coflow_approximation_stays_within_ratio_on_open_shop_instances() {
    for seed in 0..6 {
        let inst = random_diagonal_instance(2, 3, 0.8, 3, seed);
        let exact = optimal_objective(&inst);
        let approx = run(&inst, &AlgorithmSpec::algorithm2());
        verify_outcome(&inst, &approx).expect("valid");
        assert!(
            approx.objective <= coflow::DETERMINISTIC_RATIO_NO_RELEASE * exact,
            "seed {}: ratio {}",
            seed,
            approx.objective / exact
        );
    }
}

#[test]
fn primal_dual_order_is_pinned_where_the_dual_update_matters() {
    // The last place goes to coflow 1 (w / p = 3/5 on the busiest machine,
    // 0), which leaves residual weights 0.8 and 0.2 to coflows 0 and 2. On
    // machine 1 coflow 2 then has the least ratio, 0.1. Without the dual
    // update it would be coflow 0 (2/3 against 1), giving [2, 0, 1]: still
    // within 2× of the optimum, so only the order shows the difference.
    let inst = diagonal(&[&[2, 3], &[5, 3], &[3, 2]], &[2.0, 3.0, 2.0]);
    assert_eq!(
        compute_order(&inst, OrderRule::PortPrimalDual),
        vec![0, 2, 1]
    );
}

#[test]
fn primal_dual_orders_empty_coflows_and_dense_shops() {
    // An empty coflow is placed like any other and completes at once.
    let inst = diagonal(&[&[0, 0], &[3, 1]], &[1.0, 1.0]);
    let order = compute_order(&inst, OrderRule::PortPrimalDual);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1]);
    assert_eq!(list_schedule(&inst, &order), vec![0, 3]);

    // Eight coflows on two machines take many dual updates; debug builds
    // check that each one leaves the residual weights nonnegative.
    let processing: Vec<[u64; 2]> = (0..8u64).map(|k| [k % 4 + 1, 4 - k % 4]).collect();
    let rows: Vec<&[u64]> = processing.iter().map(|p| &p[..]).collect();
    let inst = diagonal(&rows, &[1.0; 8]);
    let pd = list_objective(&inst, &compute_order(&inst, OrderRule::PortPrimalDual));
    let best = best_permutation_objective(&inst);
    assert!(pd <= 2.0 * best, "H_pd at {} vs optimum {}", pd, best);
}

/// Diagonal instances on 1–3 machines with 1–5 coflows, processing times
/// 0–5 (every coflow has work somewhere), weights 1–4 and releases up to
/// `max_release`.
fn shop_strategy(max_release: u64) -> impl Strategy<Value = Instance> {
    (1usize..4, 1usize..6).prop_flat_map(move |(m, n)| {
        let job = (
            proptest::collection::vec(0u64..6, m),
            1u64..5,
            0..=max_release,
        );
        proptest::collection::vec(job, n..=n).prop_map(move |jobs| {
            let coflows = jobs
                .into_iter()
                .enumerate()
                .map(|(k, (mut p, w, r))| {
                    if p.iter().all(|&x| x == 0) {
                        p[0] = 1;
                    }
                    Coflow::new(k, IntMatrix::diagonal(&p))
                        .with_weight(w as f64)
                        .with_release(r)
                })
                .collect();
            Instance::new(m, coflows)
        })
    })
}

/// A zero-release shop and a random permutation of its coflows.
fn shop_and_order() -> impl Strategy<Value = (Instance, Vec<usize>)> {
    shop_strategy(0).prop_flat_map(|inst| {
        let n = inst.len();
        (
            Just(inst),
            proptest::collection::vec(0.0..1.0, n..=n)
                .prop_map(move |key| permutation_by_key(n, &key)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `H_pd` is the primal–dual 2-approximation for concurrent open shop
    /// with zero releases, and no order beats the optimum.
    #[test]
    fn primal_dual_within_factor_two(inst in shop_strategy(0)) {
        let pd = list_objective(&inst, &compute_order(&inst, OrderRule::PortPrimalDual));
        let opt = best_permutation_objective(&inst);
        prop_assert!(pd <= 2.0 * opt + 1e-9, "{} > 2 * {}", pd, opt);
        prop_assert!(pd >= opt - 1e-9, "{} below the optimum {}", pd, opt);
    }

    /// Every order is a permutation, and its list schedule completes each
    /// coflow no earlier than r + ρ, runs each machine at least as long as
    /// its load, and has the objective Σ w·C.
    #[test]
    fn list_schedule_invariants(inst in shop_strategy(6)) {
        for rule in [
            OrderRule::PortPrimalDual,
            OrderRule::LoadOverWeight,
            OrderRule::SizeOverWeight,
            OrderRule::LpBased,
        ] {
            let order = compute_order(&inst, rule);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..inst.len()).collect::<Vec<_>>(), "{}", rule.name());
            let completions = list_schedule(&inst, &order);
            for (c, &done) in inst.coflows().iter().zip(&completions) {
                prop_assert!(done >= c.earliest_completion(), "{} below r + rho", done);
            }
            let makespan = completions.iter().copied().max().unwrap_or(0);
            prop_assert!(inst.ingress_loads().iter().all(|&load| makespan >= load));
            let recomputed: f64 = inst
                .coflows()
                .iter()
                .zip(&completions)
                .map(|(c, &done)| c.weight * done as f64)
                .sum();
            prop_assert!((recomputed - inst.objective(&completions)).abs() < 1e-9);
        }
    }

    /// With zero releases the engine's greedy policy is the permutation
    /// schedule: each port pair serves the first coflow in the order that
    /// still needs it. Releases are left out: there the greedy policy
    /// preempts, and a permutation schedule does not.
    #[test]
    fn greedy_policy_is_the_list_schedule((inst, random) in shop_and_order()) {
        for order in [
            compute_order(&inst, OrderRule::PortPrimalDual),
            compute_order(&inst, OrderRule::LoadOverWeight),
            random,
        ] {
            let out = run_policy(&inst, &mut GreedyPolicy::new(&inst, order.clone()))
                .expect("greedy schedules every instance");
            prop_assert_eq!(out.completions, list_schedule(&inst, &order), "order {:?}", order);
        }
    }
}
