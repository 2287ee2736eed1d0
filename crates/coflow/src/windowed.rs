//! Windowed (sharded) solves of the interval-indexed LP.
//!
//! The monolithic model of [`crate::relax`] couples coflows only through the
//! per-port load rows (11)–(12). Coflows that share no ingress or egress
//! port therefore live in *independent blocks* of the LP: the constraint
//! matrix is block-diagonal over the port-connected components of the
//! coflow set, and the relaxation factors exactly — solving each block
//! separately and concatenating the solutions solves the monolithic model.
//!
//! [`try_solve_interval_lp_windowed`] exploits this: it detects the
//! components ([`coflow_components`]), builds one sub-model per component
//! *on the global interval grid* (so each sub-model is literally the
//! monolithic model restricted to the block — same feasible intervals, same
//! pruning, same within-row term order), solves the blocks one after another
//! through [`coflow_lp::try_solve_cached`], and merges `C̄` by original
//! coflow index. With at most one component it delegates to the monolithic
//! path verbatim.
//!
//! The module also provides a *sparse* model builder
//! ([`build_interval_model_sparse`]) that constructs the identical model
//! from per-coflow port-load lists in `O(nnz · L)` instead of `O(n·m·L)`,
//! which is what the million-coflow scale runner feeds from streamed
//! coflows without ever materializing dense `m × m` demand matrices.

use crate::instance::Instance;
use crate::intervals::GeometricGrid;
use crate::ordering::permutation_by_key;
use crate::relax::{build_interval_model_with_grid, try_solve_interval_lp_with, LpRelaxation};
use coflow_lp::{LpError, Model, SimplexOptions, VarId};

/// Minimal union-find over port nodes (ingress `i` ↔ node `i`, egress `j`
/// ↔ node `m + j`).
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] as usize != r {
            r = self.parent[r] as usize;
        }
        let mut c = x;
        while self.parent[c] as usize != r {
            let next = self.parent[c] as usize;
            self.parent[c] = r as u32;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo as u32;
        }
    }
}

/// Groups coflow indices by port-connected component: two coflows belong to
/// the same group iff they are linked through a chain of shared ingress or
/// egress ports. Groups are ordered by smallest member index; members are
/// ascending. Coflows with empty demand form singleton groups.
fn components_from_ports<F, I>(n: usize, m: usize, ports_of: F) -> Vec<Vec<usize>>
where
    F: Fn(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    let mut uf = UnionFind::new(2 * m);
    // Anchor port of each coflow (any of its ports), or None if empty.
    let mut anchor: Vec<Option<usize>> = Vec::with_capacity(n);
    for k in 0..n {
        let mut first: Option<usize> = None;
        for p in ports_of(k) {
            match first {
                None => first = Some(p),
                Some(f) => uf.union(f, p),
            }
        }
        anchor.push(first);
    }
    let mut group_of_root: Vec<Option<usize>> = vec![None; 2 * m];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, a) in anchor.iter().enumerate() {
        match a {
            None => groups.push(vec![k]),
            Some(p) => {
                let root = uf.find(*p);
                match group_of_root[root] {
                    Some(g) => groups[g].push(k),
                    None => {
                        group_of_root[root] = Some(groups.len());
                        groups.push(vec![k]);
                    }
                }
            }
        }
    }
    groups
}

/// Port-connected components of an instance's coflows (see
/// [`components_from_ports`] for the ordering contract).
pub fn coflow_components(instance: &Instance) -> Vec<Vec<usize>> {
    let m = instance.ports();
    components_from_ports(instance.len(), m, |k| {
        let d = &instance.coflow(k).demand;
        d.nonzero_entries()
            .flat_map(move |(i, j, _)| [i, m + j])
            .collect::<Vec<_>>()
    })
}

/// Windowed variant of [`crate::relax::try_solve_interval_lp_with`]: solves
/// the interval-indexed LP per port-connected coflow group instead of
/// monolithically. Because the monolithic LP is block-diagonal
/// over the groups and every sub-model is built on the *global* grid, the
/// result — fractional completions, ordering, and lower bound — matches the
/// monolithic solve (bit-identical per-block solutions; the lower bound is
/// the sum of block optima). With at most one group this *is* the
/// monolithic path.
pub fn try_solve_interval_lp_windowed(
    instance: &Instance,
    opts: &SimplexOptions,
) -> Result<LpRelaxation, LpError> {
    let groups = coflow_components(instance);
    if groups.len() <= 1 {
        return try_solve_interval_lp_with(instance, opts);
    }
    let _span = obs::span("lp.windowed");
    obs::counter_add("lp.windowed.groups", groups.len() as u64);
    let grid = GeometricGrid::doubling(instance.naive_horizon());
    let m = instance.ports();
    solve_blocks(instance.len(), &groups, &grid, opts, |group| {
        let coflows = group.iter().map(|&k| instance.coflow(k).clone()).collect();
        build_interval_model_with_grid(&Instance::new(m, coflows), &grid)
    })
}

/// Builds and solves each group's sub-model in group order, merging the
/// block solutions by original coflow index: `C̄` per coflow, the sum of
/// block optima as the lower bound, and the summed solver statistics.
fn solve_blocks(
    n: usize,
    groups: &[Vec<usize>],
    grid: &GeometricGrid,
    opts: &SimplexOptions,
    mut build: impl FnMut(&[usize]) -> (Model, Vec<Vec<(usize, VarId)>>),
) -> Result<LpRelaxation, LpError> {
    let mut approx = vec![0.0f64; n];
    let mut lower_bound = 0.0f64;
    let mut iterations = 0usize;
    let mut rows_pruned = 0usize;
    for group in groups {
        let (model, vars) = build(group);
        let sol = coflow_lp::try_solve_cached(&model, opts, coflow_lp::global_cache())?;
        for (local, &k) in group.iter().enumerate() {
            approx[k] = vars[local]
                .iter()
                .map(|&(l, v)| grid.point(l - 1) * sol.x[v.0])
                .sum();
        }
        lower_bound += sol.objective;
        iterations += sol.iterations;
        rows_pruned += sol.presolve_rows_removed;
    }
    let order = permutation_by_key(n, &approx);
    Ok(LpRelaxation {
        approx_completion: approx,
        order,
        lower_bound,
        iterations,
        rows_pruned,
    })
}

/// Per-coflow port loads in sparse form: what the interval model needs from
/// a coflow, without its dense `m × m` demand matrix.
#[derive(Clone, Debug)]
pub struct SparseCoflowLoads {
    /// Release date `r_k`.
    pub release: u64,
    /// Weight `w_k` (positive, finite).
    pub weight: f64,
    /// Load `ρ_k` (maximum row/column sum of the demand matrix).
    pub rho: u64,
    /// Nonzero ingress-port loads `(i, Σ_j d_{ij})`, ascending by port.
    pub ingress: Vec<(usize, u64)>,
    /// Nonzero egress-port loads `(j, Σ_i d_{ij})`, ascending by port.
    pub egress: Vec<(usize, u64)>,
}

impl SparseCoflowLoads {
    /// Earliest possible completion `r_k + ρ_k` (at least 1).
    pub fn earliest_completion(&self) -> u64 {
        (self.release + self.rho).max(1)
    }

    /// Total demand units `Σ_{ij} d_{ij}`.
    pub fn total_units(&self) -> u64 {
        self.ingress.iter().map(|&(_, d)| d).sum()
    }
}

/// Horizon bound matching [`Instance::naive_horizon`]: latest release plus
/// total demand units across all coflows.
pub fn sparse_naive_horizon(coflows: &[SparseCoflowLoads]) -> u64 {
    let released = coflows.iter().map(|c| c.release).max().unwrap_or(0);
    let total: u64 = coflows.iter().map(|c| c.total_units()).sum();
    (released + total).max(1)
}

/// Port-connected components of a sparse window: coflows sharing an
/// ingress or egress port land in one group, ordered by smallest member
/// index (the grouping [`try_solve_windowed_sparse`] shards its solves
/// by; exposed so the scale runner can report how much block sharding a
/// window actually yields).
pub fn sparse_components(m: usize, coflows: &[SparseCoflowLoads]) -> Vec<Vec<usize>> {
    components_from_ports(coflows.len(), m, |k| {
        let c = &coflows[k];
        c.ingress
            .iter()
            .map(|&(i, _)| i)
            .chain(c.egress.iter().map(|&(j, _)| m + j))
            .collect::<Vec<_>>()
    })
}

/// Sparse twin of [`crate::relax::build_interval_model_with_grid`]: builds
/// the *identical* model (same variables, same rows in the same order, same
/// pruning) from per-coflow port-load lists. Cost is `O(nnz · L)` in the
/// number of nonzero (coflow, port) loads rather than `O(n · m · L)`.
pub fn build_interval_model_sparse(
    m: usize,
    coflows: &[SparseCoflowLoads],
    grid: &GeometricGrid,
) -> (Model, Vec<Vec<(usize, VarId)>>) {
    let _span = obs::span("lp.build_model");
    let n = coflows.len();
    let big_l = grid.num_intervals();
    let mut model = Model::new();

    let mut vars: Vec<Vec<(usize, VarId)>> = Vec::with_capacity(n);
    for c in coflows {
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

    // Postings per port: (k, load) ascending by k — pushing in coflow order
    // preserves exactly the ascending-k term order of the dense builder.
    let mut ingress_postings: Vec<Vec<(usize, u64)>> = vec![Vec::new(); m];
    let mut egress_postings: Vec<Vec<(usize, u64)>> = vec![Vec::new(); m];
    for (k, c) in coflows.iter().enumerate() {
        for &(p, d) in &c.ingress {
            ingress_postings[p].push((k, d));
        }
        for &(p, d) in &c.egress {
            egress_postings[p].push((k, d));
        }
    }

    for postings in [&ingress_postings, &egress_postings] {
        for per_port in postings.iter() {
            for l in 1..=big_l {
                let tau_l = grid.point(l);
                let mut eligible: f64 = 0.0;
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &(k, d) in per_port {
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

/// Windowed solve over sparse coflow loads: shards by port-connected
/// component, solves the blocks in component order, and returns the merged
/// relaxation. This is the ordering stage of the streaming scale runner —
/// it never touches a dense demand matrix.
pub fn try_solve_windowed_sparse(
    m: usize,
    coflows: &[SparseCoflowLoads],
    opts: &SimplexOptions,
) -> Result<LpRelaxation, LpError> {
    let _span = obs::span("lp.windowed");
    let grid = GeometricGrid::doubling(sparse_naive_horizon(coflows));
    let groups = sparse_components(m, coflows);
    obs::counter_add("lp.windowed.groups", groups.len() as u64);
    solve_blocks(coflows.len(), &groups, &grid, opts, |group| {
        let members: Vec<SparseCoflowLoads> = group.iter().map(|&k| coflows[k].clone()).collect();
        build_interval_model_sparse(m, &members, &grid)
    })
}

/// Extracts [`SparseCoflowLoads`] from a dense instance (tests and small
/// cells; the streaming path constructs them directly from sparse flows).
pub fn sparse_loads_of(instance: &Instance) -> Vec<SparseCoflowLoads> {
    let m = instance.ports();
    (0..instance.len())
        .map(|k| {
            let c = instance.coflow(k);
            let ingress: Vec<(usize, u64)> = (0..m)
                .filter_map(|i| {
                    let d = c.demand.row_sum(i);
                    (d > 0).then_some((i, d))
                })
                .collect();
            let egress: Vec<(usize, u64)> = c
                .demand
                .col_sums()
                .into_iter()
                .enumerate()
                .filter(|&(_, d)| d > 0)
                .collect();
            SparseCoflowLoads {
                release: c.release,
                weight: c.weight,
                rho: c.demand.load(),
                ingress,
                egress,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::relax::{build_interval_model, solve_interval_lp};
    use coflow_matching::IntMatrix;

    fn two_disjoint_pairs() -> Instance {
        // Coflows 0,2 share ingress port 0; coflow 1 lives on ports {2,3}.
        let mut a = IntMatrix::zeros(4);
        a[(0, 1)] = 3;
        let mut b = IntMatrix::zeros(4);
        b[(2, 3)] = 2;
        let mut c = IntMatrix::zeros(4);
        c[(0, 0)] = 4;
        Instance::new(
            4,
            vec![
                Coflow::new(0, a),
                Coflow::new(1, b).with_weight(2.0),
                Coflow::new(2, c),
            ],
        )
    }

    #[test]
    fn components_group_by_shared_ports() {
        let inst = two_disjoint_pairs();
        let groups = coflow_components(&inst);
        assert_eq!(groups, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn windowed_matches_monolithic_on_disjoint_groups() {
        let inst = two_disjoint_pairs();
        let mono = solve_interval_lp(&inst);
        let win = try_solve_interval_lp_windowed(&inst, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.order, mono.order);
        for (a, b) in win
            .approx_completion
            .iter()
            .zip(&mono.approx_completion)
        {
            assert!((a - b).abs() < 1e-9, "C-bar mismatch: {} vs {}", a, b);
        }
        assert!((win.lower_bound - mono.lower_bound).abs() < 1e-9);
    }

    #[test]
    fn windowed_delegates_on_single_component() {
        // Both coflows share port 0: one group, literally the monolithic path.
        let mut a = IntMatrix::zeros(2);
        a[(0, 1)] = 1;
        let mut b = IntMatrix::zeros(2);
        b[(0, 0)] = 2;
        let inst = Instance::new(2, vec![Coflow::new(0, a), Coflow::new(1, b)]);
        assert_eq!(coflow_components(&inst).len(), 1);
        let mono = solve_interval_lp(&inst);
        let win = try_solve_interval_lp_windowed(&inst, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.order, mono.order);
        assert_eq!(win.approx_completion, mono.approx_completion);
        assert_eq!(win.lower_bound.to_bits(), mono.lower_bound.to_bits());
    }

    #[test]
    fn sparse_model_is_identical_to_dense() {
        let inst = two_disjoint_pairs();
        let (dense_model, dense_vars, grid) = build_interval_model(&inst);
        let sparse = sparse_loads_of(&inst);
        let (sparse_model, sparse_vars) = build_interval_model_sparse(4, &sparse, &grid);
        assert_eq!(sparse_model, dense_model);
        assert_eq!(sparse_vars, dense_vars);
    }

    #[test]
    fn sparse_windowed_matches_dense_windowed() {
        let inst = two_disjoint_pairs();
        let dense = try_solve_interval_lp_windowed(&inst, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("dense windowed failed: {}", e));
        let sparse = sparse_loads_of(&inst);
        let win = try_solve_windowed_sparse(4, &sparse, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("sparse windowed failed: {}", e));
        assert_eq!(win.order, dense.order);
        for (a, b) in win.approx_completion.iter().zip(&dense.approx_completion) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_demand_coflow_is_a_singleton_group() {
        let z = IntMatrix::zeros(2);
        let mut a = IntMatrix::zeros(2);
        a[(0, 0)] = 1;
        let inst = Instance::new(2, vec![Coflow::new(0, z), Coflow::new(1, a)]);
        let groups = coflow_components(&inst);
        assert_eq!(groups, vec![vec![0], vec![1]]);
        let win = try_solve_interval_lp_windowed(&inst, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.approx_completion.len(), 2);
    }
}
