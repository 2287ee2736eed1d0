//! Linear-program relaxations of the coflow scheduling problem (§2 of the
//! paper): the polynomial-size interval-indexed (LP) and the exponential-size
//! time-indexed (LP-EXP).
//!
//! Both drop the matching constraints (2)–(3) of problem (O) and keep only
//! aggregate *load* constraints per port: the work completed through any
//! prefix of time cannot exceed the elapsed time. (LP) additionally coarsens
//! time into doubling intervals, trading a small relaxation gap for
//! polynomial size; its optimal value is still a valid lower bound on
//! `Σ w_k C_k(OPT)` (Lemma 1), and its fractional completion times
//! `C̄_k = Σ_l τ_{l-1} x̄_l^{(k)}` drive the ordering (15) used by both
//! approximation algorithms.

// Index-based loops are deliberate in these numeric kernels: they mirror
// the textbook algorithms and keep row/column index arithmetic explicit.
#![allow(clippy::needless_range_loop)]

use crate::coflow::{Coflow, CoflowLoads};
use crate::instance::Instance;
use crate::intervals::GeometricGrid;
use coflow_lp::{solve_with, LpError, Model, SimplexOptions, Status, VarId};

/// Result of solving the interval-indexed relaxation (LP).
#[derive(Clone, Debug)]
pub struct LpRelaxation {
    /// Fractional completion time `C̄_k` per coflow (Eq. (14)).
    pub approx_completion: Vec<f64>,
    /// Coflow indices sorted by `C̄_k` (ties broken by instance index) —
    /// the ordering (15).
    pub order: Vec<usize>,
    /// Optimal LP objective: a lower bound on the optimal total weighted
    /// completion time.
    pub lower_bound: f64,
    /// Simplex pivot count (diagnostics).
    pub iterations: usize,
    /// Rows the lp crate's presolve removed (`Solution::presolve_rows_removed`).
    /// Rows that cannot bind are never built, so they are not counted here.
    pub rows_pruned: usize,
}

/// Builds the interval-indexed model. Exposed separately so tests can
/// certify the optimum via duality.
///
/// Returns `(model, var_map, grid)` where `var_map[k]` lists
/// `(interval_index, VarId)` for coflow `k`'s feasible intervals.
pub fn build_interval_model(
    instance: &Instance,
) -> (Model, Vec<Vec<(usize, VarId)>>, GeometricGrid) {
    let _span = obs::span("lp.build_model");
    let grid = GeometricGrid::doubling(instance.naive_horizon());
    let loads: Vec<CoflowLoads> = instance.coflows().iter().map(Coflow::loads).collect();
    let (model, vars) = build_interval_model_loads(instance.ports(), loads.iter(), &grid);
    (model, vars, grid)
}

/// [`build_interval_model`] over an arbitrary geometric grid.
///
/// Refining the grid (ratio → 1) interpolates between the paper's
/// polynomial interval-indexed (LP) and the exponential time-indexed
/// (LP-EXP): the objective coefficient of completing in `(τ_{l-1}, τ_l]`
/// is `τ_{l-1}`, so a finer grid yields a tighter lower bound at more rows.
/// This answers empirically the "benefit of the time-indexed versus the
/// interval-indexed linear program" question the paper leaves open; see the
/// `gridsweep` experiment.
pub fn build_interval_model_with_grid(
    instance: &Instance,
    grid: &GeometricGrid,
) -> (Model, Vec<Vec<(usize, VarId)>>) {
    let _span = obs::span("lp.build_model");
    let loads: Vec<CoflowLoads> = instance.coflows().iter().map(Coflow::loads).collect();
    build_interval_model_loads(instance.ports(), loads.iter(), grid)
}

/// The interval-indexed model of coflows on an `m`-port fabric, from
/// their port loads: the one model builder behind every LP solve.
pub(crate) fn build_interval_model_loads<'a>(
    m: usize,
    coflows: impl Iterator<Item = &'a CoflowLoads> + Clone,
    grid: &GeometricGrid,
) -> (Model, Vec<Vec<(usize, VarId)>>) {
    let big_l = grid.num_intervals();
    let mut model = Model::new();

    // Variables x_{k,l}, restricted by the feasibility constraints (13):
    // x_{k,l} = 0 unless τ_l ≥ r_k + ρ_k, where ρ_k is coflow k's largest
    // row or column sum, i.e. its largest port load.
    let mut first = Vec::new();
    let mut vars: Vec<Vec<(usize, VarId)>> = Vec::new();
    for c in coflows.clone() {
        let first_k = grid.first_feasible(c.earliest_completion() as f64);
        let mut per_coflow = Vec::with_capacity(big_l - first_k + 1);
        for l in first_k..=big_l {
            let cost = c.weight * grid.point(l - 1);
            let v = model.add_var(cost);
            model.set_implied_upper(v, 1.0); // implied by Σ_l x_{k,l} = 1
            per_coflow.push((l, v));
        }
        first.push(first_k);
        vars.push(per_coflow);
    }

    // Assignment rows: Σ_l x_{k,l} = 1.
    for per_coflow in &vars {
        let terms = per_coflow.iter().map(|&(_, v)| (v, 1.0)).collect();
        model.add_eq(terms, 1.0);
    }

    // Load rows (11)–(12): for each port p (ingress ports, then egress
    // ports) and interval l,
    //   Σ_{u ≤ l} Σ_k (port load of k) · x_{k,u} ≤ τ_l.
    // A row can bind only if the coflows with a variable at or before l
    // carry more than τ_l units through the port. That eligible load is a
    // prefix sum over the coflows' first feasible intervals; rows that
    // cannot bind are never built. The u64 sum is exact, and below 2^53 it
    // equals the same loads summed in f64 in any order.
    let mut eligible = vec![0u64; big_l + 1];
    for per_port in Postings::new(m, coflows).ports() {
        eligible.fill(0);
        for &(k, d) in per_port {
            eligible[first[k]] += d;
        }
        let mut load = 0u64;
        for l in 1..=big_l {
            load += eligible[l];
            let tau_l = grid.point(l);
            if load as f64 <= tau_l {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &(k, d) in per_port {
                if first[k] > l {
                    continue;
                }
                let upto = &vars[k][..=l - first[k]];
                terms.extend(upto.iter().map(|&(_, v)| (v, d as f64)));
            }
            model.add_le(terms, tau_l);
        }
    }
    (model, vars)
}

/// The coflows loading each port, as `(k, load)` ascending by `k`:
/// ingress ports `0..m`, then egress ports `m..2m`, in one CSR list.
pub(crate) struct Postings {
    /// Postings of port `p`: `start[p]..start[p + 1]`.
    start: Vec<usize>,
    entries: Vec<(usize, u64)>,
}

impl Postings {
    /// Posts the loads of `coflows`, numbered in iteration order.
    pub(crate) fn new<'a>(
        m: usize,
        coflows: impl Iterator<Item = &'a CoflowLoads> + Clone,
    ) -> Self {
        let ports_of = |c: &'a CoflowLoads| {
            let egress = c.egress.iter().map(move |&(p, d)| (m + p, d));
            c.ingress.iter().copied().chain(egress)
        };
        let mut start = vec![0usize; 2 * m + 1];
        for (p, _) in coflows.clone().flat_map(ports_of) {
            start[p + 1] += 1;
        }
        for p in 0..2 * m {
            start[p + 1] += start[p];
        }
        let mut next = start[..2 * m].to_vec();
        let mut entries = vec![(0, 0); start[2 * m]];
        for (k, c) in coflows.enumerate() {
            for (p, d) in ports_of(c) {
                entries[next[p]] = (k, d);
                next[p] += 1;
            }
        }
        Postings { start, entries }
    }

    /// The postings of each port, ingress ports first.
    pub(crate) fn ports(&self) -> impl Iterator<Item = &[(usize, u64)]> {
        self.start.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// The postings of port `p`.
    pub(crate) fn port(&self, p: usize) -> &[(usize, u64)] {
        &self.entries[self.start[p]..self.start[p + 1]]
    }
}

/// Solves the relaxation over a custom grid, returning the lower bound and
/// the fractional completion times.
pub fn solve_with_grid(instance: &Instance, grid: &GeometricGrid) -> LpRelaxation {
    let (model, vars) = build_interval_model_with_grid(instance, grid);
    let sol = solve_with(&model, &SimplexOptions::default());
    assert_eq!(
        sol.status,
        Status::Optimal,
        "interval LP must be solvable (status {:?})",
        sol.status
    );
    extract_relaxation(instance, grid, &vars, &sol)
}

fn extract_relaxation(
    instance: &Instance,
    grid: &GeometricGrid,
    vars: &[Vec<(usize, VarId)>],
    sol: &coflow_lp::Solution,
) -> LpRelaxation {
    let approx: Vec<f64> = vars
        .iter()
        .map(|per_coflow| {
            per_coflow
                .iter()
                .map(|&(l, v)| grid.point(l - 1) * sol.x[v.0])
                .sum()
        })
        .collect();
    let order = crate::ordering::permutation_by_key(instance.len(), &approx);
    LpRelaxation {
        approx_completion: approx,
        order,
        lower_bound: sol.objective,
        iterations: sol.iterations,
        rows_pruned: sol.presolve_rows_removed,
    }
}

/// Solves the interval-indexed relaxation (LP) and extracts the ordering
/// (15).
///
/// Panics if the LP is not optimal — the relaxation of a well-formed
/// instance is always feasible and bounded, so anything else is a bug.
pub fn solve_interval_lp(instance: &Instance) -> LpRelaxation {
    solve_interval_lp_with(instance, &SimplexOptions::default())
}

/// [`solve_interval_lp`] with custom simplex options (used by ablations).
pub fn solve_interval_lp_with(instance: &Instance, opts: &SimplexOptions) -> LpRelaxation {
    match try_solve_interval_lp_with(instance, opts) {
        Ok(lp) => lp,
        Err(e) => panic!("interval LP must be solvable ({})", e),
    }
}

/// Fallible variant of [`solve_interval_lp`]: surfaces solver budget and
/// numerical-health failures as [`LpError`] instead of panicking, so the
/// scheduling pipeline can degrade to a heuristic order.
pub fn try_solve_interval_lp(instance: &Instance) -> Result<LpRelaxation, LpError> {
    try_solve_interval_lp_with(instance, &SimplexOptions::default())
}

/// [`try_solve_interval_lp`] with custom simplex options (budgets, health
/// monitoring).
pub fn try_solve_interval_lp_with(
    instance: &Instance,
    opts: &SimplexOptions,
) -> Result<LpRelaxation, LpError> {
    let (model, vars, grid) = build_interval_model(instance);
    // The experiment grid and `resilient` replans re-solve exactly the same
    // model (the four `H_LP` cells, a residual model already solved); the
    // cache returns the stored solution verbatim on an exact hit, so the
    // result is bit-identical to an uncached solve.
    let sol = coflow_lp::try_solve_cached(&model, opts, coflow_lp::global_cache())?;
    Ok(extract_relaxation(instance, &grid, &vars, &sol))
}

/// Result of solving the time-indexed relaxation (LP-EXP).
#[derive(Clone, Debug)]
pub struct LpExpRelaxation {
    /// Optimal objective: a (tighter) lower bound on the optimum.
    pub lower_bound: f64,
    /// Fractional completion time per coflow under LP-EXP.
    pub approx_completion: Vec<f64>,
    /// Simplex pivot count.
    pub iterations: usize,
    /// Number of time-indexed variables created.
    pub num_vars: usize,
}

/// Builds and solves the time-indexed relaxation (LP-EXP).
///
/// The model has `Θ(n·T)` variables where `T` is the naive horizon, so this
/// is only tractable for small instances — exactly the caveat the paper
/// notes ("extremely time consuming"). Use it for lower bounds on scaled
/// experiments and in tests.
pub fn solve_time_indexed_lp(instance: &Instance) -> LpExpRelaxation {
    let n = instance.len();
    let horizon = instance.naive_horizon();
    let mut model = Model::new();

    // z_{k,t}: coflow k completes in slot t; t ranges over
    // [r_k + rho_k, horizon].
    let mut vars: Vec<Vec<(u64, VarId)>> = Vec::with_capacity(n);
    let loads: Vec<CoflowLoads> = instance.coflows().iter().map(Coflow::loads).collect();
    for (k, c) in loads.iter().enumerate() {
        let first = c.earliest_completion().max(1);
        let mut per = Vec::new();
        for t in first..=horizon {
            let v = model.add_var(c.weight * t as f64);
            model.set_implied_upper(v, 1.0);
            per.push((t, v));
        }
        assert!(!per.is_empty(), "horizon too short for coflow {}", k);
        vars.push(per);
    }
    let num_vars = model.num_vars();

    for per in &vars {
        model.add_eq(per.iter().map(|&(_, v)| (v, 1.0)).collect(), 1.0);
    }

    // Load constraints (8)–(9) at every time point, pruned when they cannot
    // bind.
    for per_port in Postings::new(instance.ports(), loads.iter()).ports() {
        for t in 1..=horizon {
            let mut eligible = 0u64;
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &(k, d) in per_port {
                let mut any = false;
                for &(s, v) in &vars[k] {
                    if s <= t {
                        terms.push((v, d as f64));
                        any = true;
                    } else {
                        break;
                    }
                }
                if any {
                    eligible += d;
                }
            }
            if eligible as f64 > t as f64 {
                model.add_le(terms, t as f64);
            }
        }
    }

    let sol = solve_with(&model, &SimplexOptions::default());
    assert_eq!(
        sol.status,
        Status::Optimal,
        "time-indexed LP must be solvable (status {:?})",
        sol.status
    );
    let approx = vars
        .iter()
        .map(|per| per.iter().map(|&(t, v)| t as f64 * sol.x[v.0]).sum())
        .collect();
    LpExpRelaxation {
        lower_bound: sol.objective,
        approx_completion: approx,
        iterations: sol.iterations,
        num_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_lp::certify;
    use coflow_matching::IntMatrix;

    fn single_fig1() -> Instance {
        Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        )
    }

    #[test]
    fn single_coflow_lp_lower_bound() {
        // One coflow with rho = 3: it can only finish in an interval with
        // tau_l >= 3, i.e. interval (2,4]; C-bar = tau_{l-1} = 2.
        let inst = single_fig1();
        let lp = solve_interval_lp(&inst);
        assert_eq!(lp.order, vec![0]);
        assert!((lp.approx_completion[0] - 2.0).abs() < 1e-7);
        assert!((lp.lower_bound - 2.0).abs() < 1e-7);
    }

    #[test]
    fn interval_model_certifies() {
        let inst = single_fig1();
        let (model, _, _) = build_interval_model(&inst);
        let sol = coflow_lp::solve(&model);
        assert!(sol.is_optimal());
        let cert = certify(&model, &sol);
        assert!(cert.holds(1e-6), "{:?}", cert);
    }

    #[test]
    fn time_indexed_tighter_than_interval() {
        // LP-EXP uses exact completion slots, so its bound is at least the
        // interval bound here: single coflow completes at slot >= 3.
        let inst = single_fig1();
        let lp = solve_interval_lp(&inst);
        let lpexp = solve_time_indexed_lp(&inst);
        assert!(lpexp.lower_bound >= lp.lower_bound - 1e-9);
        assert!((lpexp.lower_bound - 3.0).abs() < 1e-7);
    }

    #[test]
    fn ordering_prefers_small_heavy_coflows() {
        // A tiny coflow with huge weight should be ordered first.
        let big = Coflow::new(0, IntMatrix::from_nested(&[[40, 0], [0, 40]]));
        let small = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_weight(50.0);
        let inst = Instance::new(2, vec![big, small]);
        let lp = solve_interval_lp(&inst);
        assert_eq!(lp.order[0], 1, "heavy small coflow must come first");
    }

    #[test]
    fn release_dates_delay_feasible_intervals() {
        let c = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(10);
        let inst = Instance::new(2, vec![c]);
        let lp = solve_interval_lp(&inst);
        // earliest completion 11 -> first feasible interval (8, 16]:
        // C-bar = 8.
        assert!((lp.approx_completion[0] - 8.0).abs() < 1e-7);
    }

    #[test]
    fn finer_grids_tighten_the_bound() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]])).with_weight(2.0);
        let inst = Instance::new(2, vec![c0, c1]);
        let horizon = inst.naive_horizon();
        let coarse = solve_with_grid(&inst, &crate::GeometricGrid::scaled(horizon, 1.0, 2.0));
        let fine = solve_with_grid(&inst, &crate::GeometricGrid::scaled(horizon, 1.0, 1.2));
        let lpexp = solve_time_indexed_lp(&inst);
        assert!(
            coarse.lower_bound <= fine.lower_bound + 1e-7,
            "refinement must not loosen the bound: {} vs {}",
            coarse.lower_bound,
            fine.lower_bound
        );
        assert!(fine.lower_bound <= lpexp.lower_bound + 1e-7);
    }

    #[test]
    fn custom_grid_matches_default_for_base_two() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[2, 1], [1, 2]]));
        let inst = Instance::new(2, vec![c0]);
        let default = solve_interval_lp(&inst);
        let grid = crate::GeometricGrid::doubling(inst.naive_horizon());
        let custom = solve_with_grid(&inst, &grid);
        assert!((default.lower_bound - custom.lower_bound).abs() < 1e-9);
    }

    /// The builder the one-pass build replaced, kept as the reference: the
    /// doubling grid from `Instance::naive_horizon`, ρ_k and the port loads
    /// from each densified matrix's row and column sums, and for every port
    /// and interval a row filled term by term before its eligible load is
    /// compared with τ_l.
    fn reference_model(
        instance: &Instance,
        grid: &GeometricGrid,
    ) -> (Model, Vec<Vec<(usize, VarId)>>) {
        let n = instance.len();
        let m = instance.ports();
        let big_l = grid.num_intervals();
        let mut model = Model::new();
        let mut vars: Vec<Vec<(usize, VarId)>> = Vec::with_capacity(n);
        for k in 0..n {
            let c = instance.coflow(k);
            let first = grid.first_feasible(c.earliest_completion() as f64);
            let mut per_coflow = Vec::with_capacity(big_l - first + 1);
            for l in first..=big_l {
                let cost = c.weight * grid.point(l - 1);
                let v = model.add_var(cost);
                model.set_implied_upper(v, 1.0);
                per_coflow.push((l, v));
            }
            vars.push(per_coflow);
        }
        for per_coflow in &vars {
            let terms = per_coflow.iter().map(|&(_, v)| (v, 1.0)).collect();
            model.add_eq(terms, 1.0);
        }
        // Densified here: the reference reads every cell.
        let dense: Vec<IntMatrix> = instance
            .coflows()
            .iter()
            .map(|c| {
                let mut d = IntMatrix::zeros(m);
                for (i, j, u) in c.demand.nonzero_entries() {
                    d[(i, j)] = u;
                }
                d
            })
            .collect();
        let ingress_loads: Vec<u64> = dense.iter().flat_map(IntMatrix::row_sums).collect();
        let egress_loads: Vec<u64> = dense.iter().flat_map(IntMatrix::col_sums).collect();
        for loads in [&ingress_loads, &egress_loads] {
            for p in 0..m {
                for l in 1..=big_l {
                    let tau_l = grid.point(l);
                    let mut eligible: f64 = 0.0;
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for k in 0..n {
                        let d = loads[k * m + p];
                        if d == 0 {
                            continue;
                        }
                        let mut any = false;
                        for &(u, v) in &vars[k] {
                            if u <= l {
                                terms.push((v, d as f64));
                                any = true;
                            } else {
                                break;
                            }
                        }
                        if any {
                            eligible += d as f64;
                        }
                    }
                    if eligible <= tau_l {
                        continue;
                    }
                    model.add_le(terms, tau_l);
                }
            }
        }
        (model, vars)
    }

    /// Same variables, costs, bounds, rows, term order and right-hand
    /// sides, compared bit for bit.
    fn assert_same_model(got: &Model, want: &Model, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.costs()), bits(want.costs()), "{what}: costs");
        assert_eq!(
            bits(got.implied_upper()),
            bits(want.implied_upper()),
            "{what}: bounds"
        );
        assert_eq!(
            got.num_constraints(),
            want.num_constraints(),
            "{what}: row count"
        );
        for (r, (g, w)) in got.constraints().iter().zip(want.constraints()).enumerate() {
            assert_eq!(g.sense, w.sense, "{what}: row {r} sense");
            assert_eq!(g.rhs.to_bits(), w.rhs.to_bits(), "{what}: row {r} rhs");
            let terms = |c: &coflow_lp::Constraint| {
                c.terms
                    .iter()
                    .map(|&(v, a)| (v, a.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(terms(g), terms(w), "{what}: row {r} terms");
        }
    }

    /// A random instance mixing zero-demand coflows, coflows on a single
    /// ingress port, single-pair coflows and spread coflows, on a fabric
    /// whose last `idle` ports carry nothing, with and without releases.
    fn random_instance(rng: &mut impl rand::Rng, m: usize, n: usize, idle: usize) -> Instance {
        let busy = m - idle;
        let coflows = (0..n)
            .map(|k| {
                let mut d = IntMatrix::zeros(m);
                match rng.gen_range(0..4usize) {
                    0 => {}
                    1 => {
                        let i = rng.gen_range(0..busy);
                        for _ in 0..rng.gen_range(1..4usize) {
                            d[(i, rng.gen_range(0..busy))] += rng.gen_range(1..40u64);
                        }
                    }
                    2 => {
                        d[(rng.gen_range(0..busy), rng.gen_range(0..busy))] =
                            rng.gen_range(1..200u64)
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..3 * busy + 1) {
                            d[(rng.gen_range(0..busy), rng.gen_range(0..busy))] +=
                                rng.gen_range(1..25u64);
                        }
                    }
                }
                let release = if rng.gen_bool(0.5) {
                    rng.gen_range(0..300u64)
                } else {
                    0
                };
                Coflow::new(k, d)
                    .with_release(release)
                    .with_weight(rng.gen_range(1..9u64) as f64 / 2.0)
            })
            .collect();
        Instance::new(m, coflows)
    }

    #[test]
    fn one_pass_build_matches_the_nested_loop_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a7e_2015);
        let a = 1.0 + std::f64::consts::SQRT_2;
        let mut built = 0;
        for &(m, n, idle) in &[
            (1, 0, 0),
            (1, 3, 0),
            (2, 5, 1),
            (3, 8, 0),
            (6, 12, 2),
            (10, 30, 3),
        ] {
            for _ in 0..12 {
                let inst = random_instance(&mut rng, m, n, idle);
                let horizon = inst.naive_horizon();
                let what = format!("m={m} n={n}");

                let (model, vars, grid) = build_interval_model(&inst);
                assert_eq!(
                    grid.points(),
                    GeometricGrid::doubling(horizon).points(),
                    "{what}"
                );
                let (want, want_vars) = reference_model(&inst, &grid);
                assert_same_model(&model, &want, &what);
                assert_eq!(vars, want_vars, "{what}: variables");

                // The randomized algorithm's grid (T₀ ∈ [1, a], a = 1 + √2)
                // and the gridsweep experiment's (T₀ = 1, ratios above and
                // below 2).
                let t0 = rng.gen_range(1.0..a);
                for grid in [
                    GeometricGrid::scaled(horizon, t0, a),
                    GeometricGrid::scaled(horizon, 1.0, 1.25),
                    GeometricGrid::scaled(horizon, 1.0, 4.0),
                ] {
                    let (model, vars) = build_interval_model_with_grid(&inst, &grid);
                    let (want, want_vars) = reference_model(&inst, &grid);
                    let what = format!("{what} grid {:?}", &grid.points()[..2]);
                    assert_same_model(&model, &want, &what);
                    assert_eq!(vars, want_vars, "{what}: variables");
                }
                built += 4;
            }
        }
        assert_eq!(built, 6 * 12 * 4);
    }

    #[test]
    fn lp_lower_bounds_released_pair() {
        // Two identical unit coflows on the same pair: optimal completions
        // are slots 1 and 2 (total 3). The LP bound must not exceed it.
        let mk = |id| Coflow::new(id, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let inst = Instance::new(2, vec![mk(0), mk(1)]);
        let lp = solve_interval_lp(&inst);
        assert!(lp.lower_bound <= 3.0 + 1e-9);
        let lpexp = solve_time_indexed_lp(&inst);
        assert!(lpexp.lower_bound <= 3.0 + 1e-9);
        assert!(lpexp.lower_bound >= lp.lower_bound - 1e-9);
    }
}
