//! The 12-algorithm experiment grid of §4.1: orders {H_A, H_ρ, H_LP} ×
//! scheduling cases {(a) base, (b) backfill, (c) group, (d) group+backfill}.

use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::{run_with_order, AlgorithmSpec, ExecOptions, ScheduleOutcome};
use coflow::Instance;
use rayon::prelude::*;
use std::collections::HashMap;

/// The four scheduling-stage cases.
pub const CASES: [(bool, bool); 4] = [
    (false, false), // (a)
    (false, true),  // (b)
    (true, false),  // (c)
    (true, true),   // (d)
];

/// The 12 cells of the grid in rule-major order:
/// [`OrderRule::PAPER_RULES`] × [`CASES`].
pub fn paper_grid() -> impl Iterator<Item = AlgorithmSpec> {
    OrderRule::PAPER_RULES.into_iter().flat_map(|order| {
        CASES.into_iter().map(move |(grouping, backfill)| AlgorithmSpec {
            order,
            grouping,
            backfill,
        })
    })
}

/// One grid cell's result.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Ordering rule of the cell.
    pub order: OrderRule,
    /// Grouping flag.
    pub grouping: bool,
    /// Backfilling flag.
    pub backfill: bool,
    /// Total weighted completion time.
    pub objective: f64,
    /// Schedule makespan.
    pub makespan: u64,
}

/// Results for a full grid run, keyed by `(order, grouping, backfill)`.
pub type GridResults = HashMap<(OrderRule, bool, bool), CellResult>;

/// Runs the grid on `instance` for the given ordering rules.
///
/// Each order is computed once (the LP order is expensive) and the four
/// scheduling cases are evaluated in parallel with rayon.
pub fn run_grid(instance: &Instance, rules: &[OrderRule]) -> GridResults {
    let orders: Vec<(OrderRule, Vec<usize>)> = rules
        .iter()
        .map(|&rule| (rule, compute_order(instance, rule)))
        .collect();

    let cells: Vec<CellResult> = orders
        .par_iter()
        .flat_map(|(rule, order)| {
            CASES
                .par_iter()
                .map(move |&(grouping, backfill)| {
                    let opts = ExecOptions::paper(backfill);
                    let out: ScheduleOutcome =
                        run_with_order(instance, order.clone(), grouping, opts);
                    CellResult {
                        order: *rule,
                        grouping,
                        backfill,
                        objective: out.objective,
                        makespan: out.makespan(),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    cells
        .into_iter()
        .map(|c| ((c.order, c.grouping, c.backfill), c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{generate_trace, TraceConfig};

    #[test]
    fn grid_covers_all_cells() {
        let inst = generate_trace(&TraceConfig::small(3));
        let rules = [OrderRule::Arrival, OrderRule::LoadOverWeight];
        let grid = run_grid(&inst, &rules);
        assert_eq!(grid.len(), 8);
        for rule in rules {
            for (g, b) in CASES {
                assert!(grid.contains_key(&(rule, g, b)));
            }
        }
    }

    #[test]
    fn grouping_and_backfilling_never_hurt_much() {
        // The qualitative §4.2 finding: case (d) <= case (a) for each order
        // (allowing a tiny tolerance for pathological ties).
        let inst = generate_trace(&TraceConfig::small(8));
        let grid = run_grid(&inst, &[OrderRule::LoadOverWeight]);
        let base = grid[&(OrderRule::LoadOverWeight, false, false)].objective;
        let best = grid[&(OrderRule::LoadOverWeight, true, true)].objective;
        assert!(
            best <= base * 1.02,
            "grouping+backfilling regressed: {} vs {}",
            best,
            base
        );
    }
}
