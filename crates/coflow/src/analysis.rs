//! Post-hoc analysis of schedule outcomes.
//!
//! Quantifies *why* a schedule costs what it costs: per-coflow slowdown
//! against the `r_k + ρ_k` ideal, utilization, and the group-serialization
//! overhead `Σ_u ρ(group_u) / V_max` that drives the gap between
//! Algorithm 2 and fluid lower bounds (see EXPERIMENTS.md).

use crate::grouping::Groups;
use crate::instance::Instance;
use crate::sched::ScheduleOutcome;
use coflow_netsim::trace_stats;

/// Per-coflow and aggregate diagnostics for a schedule.
#[derive(Clone, Debug)]
pub struct ScheduleAnalysis {
    /// Per-coflow slowdown `C_k / (r_k + ρ_k)` (1.0 = individually optimal).
    pub slowdowns: Vec<f64>,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Maximum slowdown and the coflow attaining it.
    pub max_slowdown: (f64, usize),
    /// Weighted mean slowdown (weights = objective weights).
    pub weighted_mean_slowdown: f64,
    /// Fabric utilization over the makespan (`moved / (makespan · m)`).
    pub fabric_utilization: f64,
    /// Schedule makespan.
    pub makespan: u64,
    /// The coflow permutation the scheduler committed to (priority order,
    /// indices into the instance) — surfaced so reports can show *which*
    /// ordering produced these numbers.
    pub order: Vec<usize>,
}

/// Analyzes `outcome` against `instance`.
pub fn analyze(instance: &Instance, outcome: &ScheduleOutcome) -> ScheduleAnalysis {
    let slowdowns: Vec<f64> = instance
        .coflows()
        .iter()
        .zip(&outcome.completions)
        .map(|(c, &t)| {
            let ideal = c.earliest_completion().max(1);
            t as f64 / ideal as f64
        })
        .collect();
    let n = slowdowns.len().max(1);
    let mean = slowdowns.iter().sum::<f64>() / n as f64;
    let (max_idx, &max_val) = slowdowns
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap_or((0, &1.0));
    let wsum: f64 = instance.coflows().iter().map(|c| c.weight).sum();
    let wmean = instance
        .coflows()
        .iter()
        .zip(&slowdowns)
        .map(|(c, &s)| c.weight * s)
        .sum::<f64>()
        / wsum.max(f64::MIN_POSITIVE);
    let stats = trace_stats(&outcome.trace);
    ScheduleAnalysis {
        slowdowns,
        mean_slowdown: mean,
        max_slowdown: (max_val, max_idx),
        weighted_mean_slowdown: wmean,
        fabric_utilization: stats.fabric_utilization,
        makespan: stats.makespan,
        order: outcome.order.clone(),
    }
}

/// The group-serialization overhead of a grouping: `Σ_u ρ(aggregate_u)`
/// relative to `V_max` (1.0 = no overhead; Algorithm 2 guarantees ≤ 2 for
/// doubling grids by the geometric-sum argument in Proposition 1).
pub fn serialization_overhead(instance: &Instance, groups: &Groups) -> f64 {
    let v_max = groups
        .cumulative_loads
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    let rho_sum: u64 = groups
        .groups
        .iter()
        .map(|g| instance.aggregate_load(g))
        .sum();
    rho_sum as f64 / v_max as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::grouping::group_by_doubling;
    use crate::sched::{run, AlgorithmSpec};
    use coflow_matching::IntMatrix;

    #[test]
    fn lone_coflow_has_unit_slowdown() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        );
        let out = run(&inst, &AlgorithmSpec::algorithm2());
        let a = analyze(&inst, &out);
        assert_eq!(a.slowdowns, vec![1.0]);
        assert_eq!(a.mean_slowdown, 1.0);
        assert_eq!(a.makespan, 3);
        assert!(a.fabric_utilization > 0.99);
    }

    #[test]
    fn contended_coflows_slow_down() {
        let mk = |id| Coflow::new(id, IntMatrix::from_nested(&[[2, 0], [0, 0]]));
        let inst = Instance::new(2, vec![mk(0), mk(1)]);
        let out = run(&inst, &AlgorithmSpec::algorithm2());
        let a = analyze(&inst, &out);
        // One of them completes at 4 on a pair of load 2: slowdown 2.
        assert!((a.max_slowdown.0 - 2.0).abs() < 1e-9);
        assert!(a.mean_slowdown > 1.0);
    }

    #[test]
    fn serialization_overhead_is_bounded_for_doubling_grids() {
        let coflows = (1..=6)
            .map(|k| Coflow::new(k, IntMatrix::diagonal(&[k as u64 * 3, 1])))
            .collect();
        let inst = Instance::new(2, coflows);
        let order: Vec<usize> = (0..6).collect();
        let groups = group_by_doubling(&inst, &order);
        let overhead = serialization_overhead(&inst, &groups);
        assert!(overhead >= 1.0 - 1e-9);
        assert!(overhead <= 2.0 + 1e-9, "overhead {}", overhead);
    }

    #[test]
    fn weighted_slowdown_respects_weights() {
        let fast = Coflow::new(0, IntMatrix::diagonal(&[1, 0])).with_weight(100.0);
        let slow = Coflow::new(1, IntMatrix::diagonal(&[1, 0]));
        let inst = Instance::new(2, vec![fast, slow]);
        let out = run(&inst, &AlgorithmSpec::algorithm2());
        let a = analyze(&inst, &out);
        // The heavy coflow is served first: weighted mean is close to 1.
        assert!(a.weighted_mean_slowdown < a.mean_slowdown + 1e-9);
    }
}
