//! Windowed (sharded) solves of the interval-indexed LP.
//!
//! The monolithic model of [`crate::relax`] couples coflows only through the
//! per-port load rows (11)–(12). Coflows that share no ingress or egress
//! port therefore live in *independent blocks* of the LP: the constraint
//! matrix is block-diagonal over the port-connected components of the
//! coflow set, and the relaxation factors exactly — solving each block
//! separately and concatenating the solutions solves the monolithic model.
//!
//! [`try_solve_windowed`] exploits this: it finds the components
//! ([`coflow_components`]), builds one sub-model per component with the
//! one model builder (`relax::build_interval_model_loads`) *on the global
//! interval grid* (so each sub-model is literally the monolithic
//! model restricted to the block — same feasible intervals, same pruning,
//! same within-row term order), solves the blocks one after another through
//! [`coflow_lp::try_solve_cached`], and merges `C̄` by original coflow
//! index. It reads only the coflows' port loads ([`CoflowLoads`]), which
//! the streaming scale runs build from generated flow lists, so a window
//! of the million-coflow sweep is ordered without an `Instance`.

use crate::coflow::CoflowLoads;
use crate::instance::horizon;
use crate::intervals::GeometricGrid;
use crate::ordering::permutation_by_key;
use crate::relax::{build_interval_model_loads, LpRelaxation};
use coflow_lp::{LpError, SimplexOptions};

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

/// Port-connected components of coflows on an `m`-port fabric: two
/// coflows share a group iff they are linked through a chain of shared
/// ingress or egress ports (ingress `i` is node `i`, egress `j` node
/// `m + j`). Groups are ordered by smallest member index; members are
/// ascending. Coflows with no load form singleton groups.
pub fn coflow_components(m: usize, coflows: &[CoflowLoads]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(2 * m);
    // Anchor port of each coflow (any of its ports), or None if empty.
    let anchors: Vec<Option<usize>> = coflows
        .iter()
        .map(|c| {
            let mut ports = c
                .ingress
                .iter()
                .map(|&(i, _)| i)
                .chain(c.egress.iter().map(|&(j, _)| m + j));
            let first = ports.next()?;
            for p in ports {
                uf.union(first, p);
            }
            Some(first)
        })
        .collect();
    let mut group_of_root: Vec<Option<usize>> = vec![None; 2 * m];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, anchor) in anchors.into_iter().enumerate() {
        match anchor {
            None => groups.push(vec![k]),
            Some(p) => {
                let root = uf.find(p);
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

/// Solves the interval-indexed LP of coflows on an `m`-port fabric one
/// port-connected group at a time, on the doubling grid of the paper's
/// horizon `T`. Because the monolithic LP is block-diagonal over the
/// groups and every sub-model is built on that global grid, the result —
/// fractional completions, ordering, and lower bound — matches the
/// monolithic solve (bit-identical per-block solutions; the lower bound is
/// the sum of block optima).
pub fn try_solve_windowed(
    m: usize,
    coflows: &[CoflowLoads],
    opts: &SimplexOptions,
) -> Result<LpRelaxation, LpError> {
    let _span = obs::span("lp.windowed");
    let grid = GeometricGrid::doubling(horizon(
        coflows.iter().map(|c| (c.release, c.total_units())),
    ));
    let groups = coflow_components(m, coflows);
    obs::counter_add("lp.windowed.groups", groups.len() as u64);
    let n = coflows.len();
    let mut approx = vec![0.0f64; n];
    let mut lower_bound = 0.0f64;
    let mut iterations = 0usize;
    let mut rows_pruned = 0usize;
    for group in &groups {
        let (model, vars) = {
            let _span = obs::span("lp.build_model");
            build_interval_model_loads(m, group.iter().map(|&k| &coflows[k]), &grid)
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::instance::Instance;
    use crate::relax::solve_interval_lp;
    use coflow_matching::IntMatrix;

    fn loads(inst: &Instance) -> Vec<CoflowLoads> {
        inst.coflows().iter().map(Coflow::loads).collect()
    }

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
        let groups = coflow_components(4, &loads(&inst));
        assert_eq!(groups, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn windowed_matches_monolithic_on_disjoint_groups() {
        let inst = two_disjoint_pairs();
        let mono = solve_interval_lp(&inst);
        let win = try_solve_windowed(4, &loads(&inst), &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.order, mono.order);
        for (a, b) in win.approx_completion.iter().zip(&mono.approx_completion) {
            assert!((a - b).abs() < 1e-9, "C-bar mismatch: {} vs {}", a, b);
        }
        assert!((win.lower_bound - mono.lower_bound).abs() < 1e-9);
    }

    #[test]
    fn one_component_is_the_monolithic_solve() {
        // Both coflows share port 0: one group, the monolithic model.
        let mut a = IntMatrix::zeros(2);
        a[(0, 1)] = 1;
        let mut b = IntMatrix::zeros(2);
        b[(0, 0)] = 2;
        let inst = Instance::new(2, vec![Coflow::new(0, a), Coflow::new(1, b)]);
        assert_eq!(coflow_components(2, &loads(&inst)).len(), 1);
        let mono = solve_interval_lp(&inst);
        let win = try_solve_windowed(2, &loads(&inst), &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.order, mono.order);
        assert_eq!(win.approx_completion, mono.approx_completion);
        assert_eq!(win.lower_bound.to_bits(), mono.lower_bound.to_bits());
    }

    #[test]
    fn empty_demand_coflow_is_a_singleton_group() {
        let z = IntMatrix::zeros(2);
        let mut a = IntMatrix::zeros(2);
        a[(0, 0)] = 1;
        let inst = Instance::new(2, vec![Coflow::new(0, z), Coflow::new(1, a)]);
        let groups = coflow_components(2, &loads(&inst));
        assert_eq!(groups, vec![vec![0], vec![1]]);
        let win = try_solve_windowed(2, &loads(&inst), &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("windowed solve failed: {}", e));
        assert_eq!(win.approx_completion.len(), 2);
    }
}
