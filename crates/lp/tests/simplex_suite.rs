//! Integration suite for the revised simplex engine: textbook LPs,
//! degenerate and pathological cases, and randomized self-certification
//! through strong duality.

#![allow(clippy::needless_range_loop)]

use coflow_lp::{certify, solve, solve_with, Model, SimplexOptions, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_opt(model: &Model, expected: f64) {
    let sol = solve(model);
    assert_eq!(sol.status, Status::Optimal, "expected optimal");
    assert!(
        (sol.objective - expected).abs() <= 1e-7 * (1.0 + expected.abs()),
        "objective {} != expected {}",
        sol.objective,
        expected
    );
    let cert = certify(model, &sol);
    assert!(cert.holds(1e-6), "certificate failed: {:?}", cert);
}

#[test]
fn production_planning_classic() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative)
    let mut m = Model::new();
    let x = m.add_var(-3.0);
    let y = m.add_var(-5.0);
    m.add_le(vec![(x, 1.0)], 4.0);
    m.add_le(vec![(y, 2.0)], 12.0);
    m.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
    assert_opt(&m, -36.0); // x=2, y=6
}

#[test]
fn diet_problem_with_ge_rows() {
    // min 0.6x + y s.t. 10x + 4y >= 20, 5x + 5y >= 20, 2x + 6y >= 12
    let mut m = Model::new();
    let x = m.add_var(0.6);
    let y = m.add_var(1.0);
    m.add_ge(vec![(x, 10.0), (y, 4.0)], 20.0);
    m.add_ge(vec![(x, 5.0), (y, 5.0)], 20.0);
    m.add_ge(vec![(x, 2.0), (y, 6.0)], 12.0);
    // Optimal vertex: rows 2 & 3 tight -> x + y = 4, x + 3y = 6 -> x = 3,
    // y = 1 (row 1: 34 >= 20 slack). Objective 0.6*3 + 1 = 2.8.
    assert_opt(&m, 2.8);
}

#[test]
fn equality_constraints() {
    // min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1.
    let mut m = Model::new();
    let x = m.add_var(1.0);
    let y = m.add_var(1.0);
    m.add_eq(vec![(x, 1.0), (y, 2.0)], 4.0);
    m.add_eq(vec![(x, 1.0), (y, -1.0)], 1.0);
    assert_opt(&m, 3.0);
}

#[test]
fn negative_rhs_rows_are_flipped() {
    // min x s.t. -x <= -3  (i.e. x >= 3)
    let mut m = Model::new();
    let x = m.add_var(1.0);
    m.add_le(vec![(x, -1.0)], -3.0);
    assert_opt(&m, 3.0);
}

#[test]
fn infeasible_detected() {
    let mut m = Model::new();
    let x = m.add_var(1.0);
    m.add_le(vec![(x, 1.0)], 1.0);
    m.add_ge(vec![(x, 1.0)], 2.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Infeasible);
}

#[test]
fn unbounded_detected() {
    // min -x with x only bounded below.
    let mut m = Model::new();
    let x = m.add_var(-1.0);
    m.add_ge(vec![(x, 1.0)], 1.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Unbounded);
}

#[test]
fn unbounded_with_no_rows() {
    let mut m = Model::new();
    let _ = m.add_var(-1.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Unbounded);
}

#[test]
fn trivial_no_rows_optimum_zero() {
    let mut m = Model::new();
    let _ = m.add_var(2.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.objective, 0.0);
}

#[test]
fn beale_cycling_example_terminates() {
    // Beale's classic cycling LP (degenerate); Bland fallback must terminate.
    // min -0.75x1 + 150x2 - 0.02x3 + 6x4
    // s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
    //      0.5x1  - 90x2 - 0.02x3 + 3x4 <= 0
    //      x3 <= 1
    let mut m = Model::new();
    let x1 = m.add_var(-0.75);
    let x2 = m.add_var(150.0);
    let x3 = m.add_var(-0.02);
    let x4 = m.add_var(6.0);
    m.add_le(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
    m.add_le(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
    m.add_le(vec![(x3, 1.0)], 1.0);
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - (-0.05)).abs() < 1e-9, "{}", sol.objective);
    let cert = certify(&m, &sol);
    assert!(cert.holds(1e-7), "{:?}", cert);
}

#[test]
fn beale_terminates_under_pure_bland() {
    let mut m = Model::new();
    let x1 = m.add_var(-0.75);
    let x2 = m.add_var(150.0);
    let x3 = m.add_var(-0.02);
    let x4 = m.add_var(6.0);
    m.add_le(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
    m.add_le(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
    m.add_le(vec![(x3, 1.0)], 1.0);
    let opts = SimplexOptions {
        always_bland: true,
        ..SimplexOptions::default()
    };
    let sol = solve_with(&m, &opts);
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - (-0.05)).abs() < 1e-9);
}

#[test]
fn redundant_equalities_handled() {
    // x + y = 2 stated twice: the second row is linearly dependent and its
    // artificial can never be pivoted out; the solver must still finish.
    let mut m = Model::new();
    let x = m.add_var(1.0);
    let y = m.add_var(3.0);
    m.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0);
    m.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0);
    assert_opt(&m, 2.0); // all weight on x
}

#[test]
fn transportation_problem() {
    // 2 supplies (3, 4), 3 demands (2, 2, 3); costs row-major.
    let costs = [[4.0, 6.0, 8.0], [5.0, 3.0, 2.0]];
    let supply = [3.0, 4.0];
    let demand = [2.0, 2.0, 3.0];
    let mut m = Model::new();
    let mut vars = [[None; 3]; 2];
    for (i, row) in costs.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            vars[i][j] = Some(m.add_var(c));
        }
    }
    for (i, &s) in supply.iter().enumerate() {
        let terms = (0..3).map(|j| (vars[i][j].unwrap(), 1.0)).collect();
        m.add_le(terms, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let terms = (0..2).map(|i| (vars[i][j].unwrap(), 1.0)).collect();
        m.add_ge(terms, d);
    }
    // Optimal: x00=2, x01=1, x11=1, x12=3 -> 8 + 6 + 3 + 6 = 23.
    assert_opt(&m, 23.0);
}

#[test]
fn forces_many_refactorizations() {
    // A chain LP big enough to exceed the refactor period several times.
    let n = 120;
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.add_var(1.0 + (i % 7) as f64)).collect();
    for i in 0..n {
        let mut terms = vec![(vars[i], 1.0)];
        if i + 1 < n {
            terms.push((vars[i + 1], 1.0));
        }
        m.add_ge(terms, 1.0);
    }
    let opts = SimplexOptions {
        refactor_period: 8, // stress eta/LU interleaving
        ..SimplexOptions::default()
    };
    let sol = solve_with(&m, &opts);
    assert_eq!(sol.status, Status::Optimal);
    let cert = certify(&m, &sol);
    assert!(cert.holds(1e-6), "{:?}", cert);
    // Cross-check against default options.
    let sol2 = solve(&m);
    assert!((sol.objective - sol2.objective).abs() < 1e-6);
}

#[test]
fn random_feasible_lps_certify() {
    // Random LPs constructed to be feasible by design: pick a random
    // nonnegative x*, random nonnegative A, set b = A x* (as <= rows, so x*
    // is feasible). Certify every optimum via duality.
    let mut rng = StdRng::seed_from_u64(0xC0F1);
    for trial in 0..40 {
        let n = rng.gen_range(2..10);
        let rows = rng.gen_range(1..8);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(rng.gen_range(-3.0..5.0)))
            .collect();
        let xstar: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
        for _ in 0..rows {
            let mut terms = Vec::new();
            let mut act = 0.0;
            for (j, &v) in vars.iter().enumerate() {
                if rng.gen_bool(0.7) {
                    let a = rng.gen_range(0.1..3.0);
                    terms.push((v, a));
                    act += a * xstar[j];
                }
            }
            if terms.is_empty() {
                continue;
            }
            m.add_le(terms, act + rng.gen_range(0.0..2.0));
        }
        // Keep it bounded: cap every variable.
        for &v in &vars {
            m.add_le(vec![(v, 1.0)], 10.0);
        }
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal, "trial {}", trial);
        let cert = certify(&m, &sol);
        assert!(cert.holds(1e-5), "trial {}: {:?}", trial, cert);
    }
}

#[test]
fn random_equality_lps_certify() {
    // Feasible-by-construction equality-constrained LPs.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..30 {
        let n = rng.gen_range(3..9);
        let rows = rng.gen_range(1..n);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(rng.gen_range(0.0..5.0))).collect();
        let xstar: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
        for _ in 0..rows {
            let mut terms = Vec::new();
            let mut act = 0.0;
            for (j, &v) in vars.iter().enumerate() {
                let a = rng.gen_range(0.1..2.0);
                terms.push((v, a));
                act += a * xstar[j];
            }
            m.add_eq(terms, act);
        }
        let sol = solve(&m);
        assert_eq!(sol.status, Status::Optimal, "trial {}", trial);
        let cert = certify(&m, &sol);
        assert!(cert.holds(1e-5), "trial {}: {:?}", trial, cert);
    }
}

#[test]
fn presolve_matches_no_presolve() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for _ in 0..20 {
        let n = rng.gen_range(2..7);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(rng.gen_range(0.5..4.0))).collect();
        for &v in &vars {
            m.set_implied_upper(v, 1.0);
            m.add_le(vec![(v, 1.0)], 1.0); // makes the implied bound real
        }
        // A few random >= rows to make it nontrivial + some redundant rows.
        for _ in 0..3 {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.1..1.0))).collect();
            m.add_ge(terms, 0.3);
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_le(terms, n as f64 + 5.0); // redundant given x <= 1
        let with = solve(&m);
        let without = solve_with(
            &m,
            &SimplexOptions {
                presolve: false,
                ..SimplexOptions::default()
            },
        );
        assert_eq!(with.status, Status::Optimal);
        assert_eq!(without.status, Status::Optimal);
        assert!(
            (with.objective - without.objective).abs() < 1e-7,
            "{} vs {}",
            with.objective,
            without.objective
        );
        assert!(with.presolve_rows_removed >= 1);
    }
}

#[test]
fn degenerate_assignment_polytope() {
    // Assignment LP (Birkhoff polytope) is highly degenerate; check we get
    // the optimal permutation value.
    let cost = [
        [9.0, 2.0, 7.0, 8.0],
        [6.0, 4.0, 3.0, 7.0],
        [5.0, 8.0, 1.0, 8.0],
        [7.0, 6.0, 9.0, 4.0],
    ];
    let n = 4;
    let mut m = Model::new();
    let mut vars = vec![vec![]; n];
    for (i, row) in cost.iter().enumerate() {
        for &c in row {
            vars[i].push(m.add_var(c));
        }
    }
    for i in 0..n {
        m.add_eq((0..n).map(|j| (vars[i][j], 1.0)).collect(), 1.0);
    }
    for j in 0..n {
        m.add_eq((0..n).map(|i| (vars[i][j], 1.0)).collect(), 1.0);
    }
    let sol = solve(&m);
    assert_eq!(sol.status, Status::Optimal);
    // Optimal assignment: (0,1),(1,0),(2,2),(3,3) = 2+6+1+4 = 13.
    assert!((sol.objective - 13.0).abs() < 1e-7, "{}", sol.objective);
    let cert = certify(&m, &sol);
    assert!(cert.holds(1e-6), "{:?}", cert);
}

#[test]
fn iteration_limit_reported() {
    let mut m = Model::new();
    let x = m.add_var(1.0);
    let y = m.add_var(1.0);
    m.add_ge(vec![(x, 1.0), (y, 2.0)], 4.0);
    m.add_ge(vec![(x, 2.0), (y, 1.0)], 4.0);
    let opts = SimplexOptions {
        max_iterations: 0,
        ..SimplexOptions::default()
    };
    let sol = solve_with(&m, &opts);
    assert_eq!(sol.status, Status::IterationLimit);
}
