//! Statistical checks of the randomized algorithm (Theorem 2 / Proposition
//! 2) and of the port primal–dual order.

use coflow::ordering::OrderRule;
use coflow::sched::run_randomized;
use coflow::{verify_outcome, Coflow, Instance};
use coflow_matching::IntMatrix;
use coflow_workloads::random_instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn proposition_2_monte_carlo() {
    // E[C_k(A')] <= max_{g<=k} r_g + (3/2 + sqrt(2)) V_k. Estimate the
    // expectation over many grid draws and allow 10% sampling slack. All
    // releases zero here, so the bound is (3/2 + sqrt 2) V_k per coflow.
    let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [2, 4]]));
    let c1 = Coflow::new(1, IntMatrix::from_nested(&[[5, 0], [0, 5]])).with_weight(2.0);
    let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 7], [7, 0]])).with_weight(0.5);
    let inst = Instance::new(2, vec![c0, c1, c2]);

    let samples = 400;
    let mut rng = StdRng::seed_from_u64(777);
    let mut sums = vec![0.0f64; inst.len()];
    let mut order_used = None;
    for _ in 0..samples {
        let out = run_randomized(&inst, OrderRule::LpBased, false, &mut rng);
        for (k, &c) in out.completions.iter().enumerate() {
            sums[k] += c as f64;
        }
        order_used.get_or_insert(out.order);
    }
    let order = order_used.unwrap();
    let v = inst.cumulative_loads(&order);
    let factor = 1.5 + std::f64::consts::SQRT_2;
    for (p, &k) in order.iter().enumerate() {
        let mean = sums[k] / samples as f64;
        let bound = factor * v[p] as f64;
        assert!(
            mean <= bound * 1.10,
            "coflow {}: E[C] ~= {:.2} > bound {:.2}",
            k,
            mean,
            bound
        );
    }
}

#[test]
fn randomized_structural_bound_per_sample() {
    // Every sample satisfies C_k <= (a/(a-1)) * tau'_{r(k)} <= a^2/(a-1) V_k
    // (the inside of Proposition 2's expectation argument, worst case over
    // T0): with a = 1 + sqrt2, a^2/(a-1) = (3 + 2 sqrt 2)/sqrt 2 ~= 4.12.
    let inst = random_instance(2, 4, 0.7, 4, 51);
    let a = 1.0 + std::f64::consts::SQRT_2;
    let worst_factor = a * a / (a - 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        let out = run_randomized(&inst, OrderRule::LoadOverWeight, false, &mut rng);
        verify_outcome(&inst, &out).expect("valid");
        let v = inst.cumulative_loads(&out.order);
        for (p, &k) in out.order.iter().enumerate() {
            assert!(
                out.completions[k] as f64 <= worst_factor * v[p] as f64 + 1e-9,
                "per-sample structural bound violated: C={} V={}",
                out.completions[k],
                v[p]
            );
        }
    }
}

#[test]
fn port_primal_dual_order_schedules_competitively() {
    for seed in 40..48 {
        let inst = random_instance(3, 6, 0.5, 5, seed);
        let pd = coflow::sched::run(
            &inst,
            &coflow::AlgorithmSpec {
                order: OrderRule::PortPrimalDual,
                grouping: true,
                backfill: true,
            },
        );
        verify_outcome(&inst, &pd).expect("valid");
        let rho = coflow::sched::run(
            &inst,
            &coflow::AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
        );
        // Neither rule dominates; require the primal-dual order to stay in
        // the same ballpark as H_rho.
        assert!(
            pd.objective <= 2.0 * rho.objective,
            "seed {}: H_pd {} vs H_rho {}",
            seed,
            pd.objective,
            rho.objective
        );
    }
}
