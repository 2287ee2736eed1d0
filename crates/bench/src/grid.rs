//! The 12-algorithm experiment grid of §4.1: orders {H_A, H_ρ, H_LP} ×
//! scheduling cases {(a) base, (b) backfill, (c) group, (d) group+backfill}.

use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::resilient::run_resilient;
use coflow::sched::{run_with_order, AlgorithmSpec, ScheduleOutcome};
use coflow::Instance;
use coflow_lp::SimplexOptions;
use rayon::prelude::*;
use std::collections::HashMap;

/// The four scheduling-stage cases.
pub const CASES: [(bool, bool); 4] = [
    (false, false), // (a)
    (false, true),  // (b)
    (true, false),  // (c)
    (true, true),   // (d)
];

/// Case label as used in the paper.
pub fn case_label(grouping: bool, backfill: bool) -> &'static str {
    match (grouping, backfill) {
        (false, false) => "a",
        (false, true) => "b",
        (true, false) => "c",
        (true, true) => "d",
    }
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
                    let out: ScheduleOutcome =
                        run_with_order(instance, order.clone(), grouping, backfill);
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

/// One grid cell run through the fault-tolerant pipeline: records which
/// fallback tier actually produced the schedule.
#[derive(Clone, Debug)]
pub struct ResilientCellResult {
    /// Ordering rule the cell asked for.
    pub requested: OrderRule,
    /// Rule that actually produced the schedule.
    pub used: OrderRule,
    /// Fallback tier (0 = requested rule ran).
    pub tier: usize,
    /// Grouping flag.
    pub grouping: bool,
    /// Backfilling flag.
    pub backfill: bool,
    /// The schedule itself (kept for validation and inspection).
    pub outcome: ScheduleOutcome,
}

/// Results of a resilient grid run, keyed by `(requested, grouping,
/// backfill)`.
pub type ResilientGridResults = HashMap<(OrderRule, bool, bool), ResilientCellResult>;

/// Runs the grid through [`run_resilient`] so LP failures (budget
/// exhaustion, numerical trouble) degrade to heuristic orders instead of
/// panicking. `lp_opts` carries the solver budgets applied to LP-backed
/// cells.
pub fn run_grid_resilient(
    instance: &Instance,
    rules: &[OrderRule],
    lp_opts: &SimplexOptions,
) -> ResilientGridResults {
    let cells: Vec<ResilientCellResult> = rules
        .par_iter()
        .flat_map(|&rule| {
            CASES
                .par_iter()
                .map(move |&(grouping, backfill)| {
                    let spec = AlgorithmSpec {
                        order: rule,
                        grouping,
                        backfill,
                    };
                    let res = run_resilient(instance, &spec, lp_opts);
                    ResilientCellResult {
                        requested: rule,
                        used: res.used,
                        tier: res.tier,
                        grouping,
                        backfill,
                        outcome: res.outcome,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    cells
        .into_iter()
        .map(|c| ((c.requested, c.grouping, c.backfill), c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_netsim::validate_trace;
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
    fn starved_lp_degrades_every_cell_to_valid_schedules() {
        // Acceptance: with a 0-pivot LP budget all 12 grid algorithms still
        // produce netsim-validated schedules, with the fallback tier
        // recorded on each cell.
        let inst = generate_trace(&TraceConfig::small(5));
        let starved = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        let grid = run_grid_resilient(&inst, &OrderRule::PAPER_RULES, &starved);
        assert_eq!(grid.len(), 12);
        for ((rule, g, b), cell) in &grid {
            if *rule == OrderRule::LpBased {
                assert_eq!(cell.tier, 1, "H_LP cell ({}, {}) must degrade", g, b);
                assert_eq!(cell.used, OrderRule::LoadOverWeight);
            } else {
                assert_eq!(cell.tier, 0);
                assert_eq!(cell.used, *rule);
            }
            let times = validate_trace(
                inst.demands(),
                &inst.releases(),
                &cell.outcome.trace,
            )
            .unwrap_or_else(|e| panic!("cell ({:?}, {}, {}) invalid: {}", rule, g, b, e));
            assert_eq!(times, cell.outcome.completions);
        }
    }

    #[test]
    fn healthy_lp_keeps_resilient_grid_at_tier_zero() {
        let inst = generate_trace(&TraceConfig::small(4));
        let grid = run_grid_resilient(&inst, &OrderRule::PAPER_RULES, &SimplexOptions::default());
        let plain = run_grid(&inst, &OrderRule::PAPER_RULES);
        for ((rule, g, b), cell) in &grid {
            assert_eq!(cell.tier, 0);
            let base = &plain[&(*rule, *g, *b)];
            assert!((cell.outcome.objective - base.objective).abs() < 1e-9);
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
