//! Coflow grouping (Step 2 of Algorithm 2).
//!
//! Given an ordered list of coflows, compute the cumulative maximum loads
//! `V_k` (§2.2) and partition the coflows by which geometric interval
//! `(τ_{s−1}, τ_s]` their `V_k` lands in. Each group is later consolidated
//! into one aggregated coflow and cleared by a single Birkhoff–von Neumann
//! schedule — the "dovetailing" that makes skewed matrices uniform and is
//! the largest experimental win in §4.2.

use crate::instance::Instance;
use crate::intervals::GeometricGrid;

/// A partition of an ordered coflow list into interval groups.
#[derive(Clone, Debug)]
pub struct Groups {
    /// Groups in time order; each is a list of coflow indices, preserving
    /// the global order within the group.
    pub groups: Vec<Vec<usize>>,
    /// For each group, the grid point `τ_{s_u}` capping its cumulative load
    /// (Lemma 4 then clears the group within `τ_{s_u}` slots).
    pub group_caps: Vec<f64>,
    /// `V_k` for every prefix of the order (aligned with the input order).
    pub cumulative_loads: Vec<u64>,
}

impl Groups {
    /// Total number of coflows across all groups.
    pub fn total_coflows(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// Groups `order` by the deterministic doubling grid (Algorithm 2).
pub fn group_by_doubling(instance: &Instance, order: &[usize]) -> Groups {
    let v = instance.cumulative_loads(order);
    let horizon = v.iter().copied().max().unwrap_or(1);
    group_by_loads(order, v, &GeometricGrid::doubling(horizon))
}

/// Groups `order` by an arbitrary geometric grid (the randomized algorithm
/// passes its randomly shifted grid here).
pub fn group_by_grid(instance: &Instance, order: &[usize], grid: &GeometricGrid) -> Groups {
    group_by_loads(order, instance.cumulative_loads(order), grid)
}

/// Groups `order` by `grid`, given its cumulative loads `v` (aligned with
/// `order`).
fn group_by_loads(order: &[usize], v: Vec<u64>, grid: &GeometricGrid) -> Groups {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut caps: Vec<f64> = Vec::new();
    let mut current_interval = usize::MAX;
    for (pos, &k) in order.iter().enumerate() {
        let vk = v[pos];
        if vk == 0 {
            // Zero-demand coflows: attach to the earliest group (they cost
            // nothing to schedule). Put them in interval 1.
            let interval = 1;
            if current_interval != interval || groups.is_empty() {
                // Only open a new group if none exists yet for interval 1 at
                // the front; since V is nondecreasing, vk == 0 can only
                // happen at the start.
                if groups.is_empty() {
                    groups.push(Vec::new());
                    caps.push(grid.point(1));
                    current_interval = interval;
                }
            }
            push_to_last(&mut groups, k);
            continue;
        }
        let interval = grid.interval_of(vk as f64);
        if interval != current_interval {
            groups.push(Vec::new());
            caps.push(grid.point(interval));
            current_interval = interval;
        }
        push_to_last(&mut groups, k);
    }
    Groups {
        groups,
        group_caps: caps,
        cumulative_loads: v,
    }
}

/// Appends `k` to the most recently opened group. Both call sites run only
/// after a group has been pushed, so the list is never empty here.
fn push_to_last(groups: &mut [Vec<usize>], k: usize) {
    groups
        .last_mut()
        .unwrap_or_else(|| unreachable!("a group is always opened before a coflow is placed"))
        .push(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_matching::IntMatrix;

    fn diag(id: usize, d: u64) -> Coflow {
        Coflow::new(id, IntMatrix::diagonal(&[d, 0]))
    }

    #[test]
    fn doubling_groups_by_cumulative_load() {
        // Loads on port 0: 1, 1, 2, 8 -> V = 1, 2, 4, 12.
        // Intervals: (0,1], (1,2], (2,4], (8,16] -> 4 distinct groups.
        let inst = Instance::new(2, vec![diag(0, 1), diag(1, 1), diag(2, 2), diag(3, 8)]);
        let g = group_by_doubling(&inst, &[0, 1, 2, 3]);
        assert_eq!(g.cumulative_loads, vec![1, 2, 4, 12]);
        assert_eq!(g.groups, vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(g.group_caps, vec![1.0, 2.0, 4.0, 16.0]);
    }

    #[test]
    fn coflows_in_same_interval_share_a_group() {
        // V values 3, 4 both in (2, 4].
        let inst = Instance::new(2, vec![diag(0, 3), diag(1, 1)]);
        let g = group_by_doubling(&inst, &[0, 1]);
        assert_eq!(g.cumulative_loads, vec![3, 4]);
        assert_eq!(g.groups, vec![vec![0, 1]]);
        assert_eq!(g.total_coflows(), 2);
    }

    #[test]
    fn order_is_respected_within_groups() {
        let inst = Instance::new(2, vec![diag(0, 3), diag(1, 1)]);
        let g = group_by_doubling(&inst, &[1, 0]);
        // V = 1, 4: coflow 1 in (0,1], coflow 0 in (2,4].
        assert_eq!(g.groups, vec![vec![1], vec![0]]);
    }

    #[test]
    fn zero_demand_coflows_join_first_group() {
        let empty = Coflow::new(0, IntMatrix::zeros(2));
        let inst = Instance::new(2, vec![empty, diag(1, 1), diag(2, 2)]);
        let g = group_by_doubling(&inst, &[0, 1, 2]);
        // V = 0, 1, 3: the empty coflow joins coflow 1 in interval (0, 1];
        // coflow 2 (V = 3) opens interval (2, 4].
        assert_eq!(g.groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn scaled_grid_changes_boundaries() {
        // With ratio a = 3 and t0 = 1: points 0, 1, 3, 9, ...
        let inst = Instance::new(2, vec![diag(0, 2), diag(1, 1)]);
        let grid = GeometricGrid::scaled(4, 1.0, 3.0);
        let g = group_by_grid(&inst, &[0, 1], &grid);
        // V = 2, 3 -> both in (1, 3] -> one group capped at 3.
        assert_eq!(g.groups, vec![vec![0, 1]]);
        assert_eq!(g.group_caps, vec![3.0]);
    }
}
