//! Medium-scale stress tests for the simplex: interval-LP-shaped models
//! (prefix-sum load rows + assignment rows) at sizes comparable to the
//! experiment harness, with full duality certification.

#![allow(clippy::needless_range_loop)]

use coflow_lp::{certify, solve, solve_with, Model, SimplexOptions, Status, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an interval-LP-shaped instance: `n` entities each pick one of `l`
/// intervals (assignment rows), subject to cumulative capacity rows per
/// resource, minimizing interval-indexed costs.
fn interval_shaped_lp(n: usize, l: usize, resources: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new();
    // vars[k][u]
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(n);
    let tau: Vec<f64> = (0..=l)
        .map(|i| if i == 0 { 0.0 } else { (1 << (i - 1)) as f64 })
        .collect();
    for _ in 0..n {
        let weight = rng.gen_range(1.0..5.0);
        let per: Vec<VarId> = (1..=l)
            .map(|u| {
                let v = model.add_var(weight * tau[u - 1]);
                model.set_implied_upper(v, 1.0);
                v
            })
            .collect();
        vars.push(per);
    }
    for per in &vars {
        model.add_eq(per.iter().map(|&v| (v, 1.0)).collect(), 1.0);
    }
    // Resource loads.
    let loads: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..resources)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        rng.gen_range(1.0..4.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    for r in 0..resources {
        for cut in 1..=l {
            let mut terms = Vec::new();
            let mut eligible = 0.0;
            for k in 0..n {
                if loads[k][r] == 0.0 {
                    continue;
                }
                eligible += loads[k][r];
                for u in 1..=cut {
                    terms.push((vars[k][u - 1], loads[k][r]));
                }
            }
            if eligible > tau[cut] {
                model.add_le(terms, tau[cut]);
            }
        }
    }
    model
}

#[test]
fn interval_shaped_lp_solves_and_certifies() {
    for seed in 0..4 {
        let model = interval_shaped_lp(30, 8, 12, seed);
        let sol = solve(&model);
        assert_eq!(sol.status, Status::Optimal, "seed {}", seed);
        let cert = certify(&model, &sol);
        assert!(cert.holds(1e-5), "seed {}: {:?}", seed, cert);
    }
}

#[test]
fn pricing_rules_agree_at_scale() {
    let model = interval_shaped_lp(25, 7, 10, 99);
    let dantzig = solve(&model);
    let bland = solve_with(
        &model,
        &SimplexOptions {
            always_bland: true,
            max_iterations: 2_000_000,
            ..Default::default()
        },
    );
    assert_eq!(dantzig.status, Status::Optimal);
    assert_eq!(bland.status, Status::Optimal);
    assert!(
        (dantzig.objective - bland.objective).abs() < 1e-6 * (1.0 + dantzig.objective.abs()),
        "{} vs {}",
        dantzig.objective,
        bland.objective
    );
    // Bland is expected to pivot more — sanity that both terminated.
    assert!(dantzig.iterations > 0 && bland.iterations > 0);
}

#[test]
fn tight_refactor_period_stays_accurate() {
    let model = interval_shaped_lp(20, 6, 8, 7);
    let loose = solve(&model);
    let tight = solve_with(
        &model,
        &SimplexOptions {
            refactor_period: 2,
            ..Default::default()
        },
    );
    assert_eq!(loose.status, Status::Optimal);
    assert_eq!(tight.status, Status::Optimal);
    assert!((loose.objective - tight.objective).abs() < 1e-6 * (1.0 + loose.objective.abs()));
    let cert = certify(&model, &tight);
    assert!(cert.holds(1e-5), "{:?}", cert);
}

#[test]
fn duals_price_capacity_correctly() {
    // A tiny economy: maximize value (min negative) under one capacity row;
    // the dual of the capacity row must equal the marginal value.
    let mut m = Model::new();
    let x = m.add_var(-3.0); // value 3 per unit
    let y = m.add_var(-1.0);
    let cap = m.add_le(vec![(x, 1.0), (y, 1.0)], 10.0);
    m.add_le(vec![(x, 1.0)], 4.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Optimal);
    // Optimal: x = 4, y = 6, objective -18. Capacity dual = -1 (one more
    // unit of capacity lowers cost by 1 via y).
    assert!((sol.objective + 18.0).abs() < 1e-9);
    assert!(
        (sol.duals[cap.0] + 1.0).abs() < 1e-9,
        "dual {}",
        sol.duals[cap.0]
    );
}
