//! Figures 2a and 2b of the paper.
//!
//! * Figure 2a: for each order, the total weighted completion time of cases
//!   (b), (c), (d) as a *percentage of the base case (a)* — random weights,
//!   `M0 ≥ 50` filter. The paper finds grouping saves up to ~27% and
//!   backfilling up to ~9%, with (d) best.
//! * Figure 2b: the costs of the three orders under case (d), for both
//!   weight schemes, normalized to `H_LP` — the paper finds `H_ρ` and
//!   `H_LP` beat `H_A` by up to ~8× and sit within a few percent of each
//!   other.

use crate::grid::{run_grid, CASES};
use coflow::ordering::OrderRule;
use coflow::Instance;
use coflow_workloads::{assign_weights, filter_by_width, WeightScheme};

/// Figure 2a data: per order, the percentage of the base case for each of
/// the four cases (case (a) is 100 by definition).
#[derive(Clone, Debug)]
pub struct Fig2a {
    /// Width filter used.
    pub filter: usize,
    /// Rows: `(order, [pct_a, pct_b, pct_c, pct_d])`.
    pub rows: Vec<(OrderRule, [f64; 4])>,
}

/// Runs Figure 2a (random weights, `M0 ≥ filter`).
pub fn run_fig2a(trace: &Instance, filter: usize, weight_seed: u64) -> Fig2a {
    let filtered = filter_by_width(trace, filter);
    let weighted = assign_weights(
        &filtered,
        WeightScheme::RandomPermutation { seed: weight_seed },
    );
    let grid = run_grid(&weighted, &OrderRule::PAPER_RULES);
    let rows = OrderRule::PAPER_RULES
        .iter()
        .map(|&rule| {
            let base = grid[&(rule, false, false)].objective;
            let mut pct = [0.0; 4];
            for (idx, &(g, b)) in CASES.iter().enumerate() {
                pct[idx] = 100.0 * grid[&(rule, g, b)].objective / base;
            }
            (rule, pct)
        })
        .collect();
    Fig2a { filter, rows }
}

/// Figure 2b data: cost of each order under case (d), normalized to `H_LP`,
/// for each weight scheme.
#[derive(Clone, Debug)]
pub struct Fig2b {
    /// Width filter used.
    pub filter: usize,
    /// Rows: `(scheme_name, [H_A, H_rho, H_LP] normalized)`.
    pub rows: Vec<(&'static str, [f64; 3])>,
}

/// Runs Figure 2b (`M0 ≥ filter`, both weight schemes, case (d)).
pub fn run_fig2b(trace: &Instance, filter: usize, weight_seed: u64) -> Fig2b {
    let filtered = filter_by_width(trace, filter);
    let mut rows = Vec::new();
    for scheme in [
        WeightScheme::Equal,
        WeightScheme::RandomPermutation { seed: weight_seed },
    ] {
        let weighted = assign_weights(&filtered, scheme);
        let grid = run_grid(&weighted, &OrderRule::PAPER_RULES);
        let hlp = grid[&(OrderRule::LpBased, true, true)].objective;
        let vals = [
            grid[&(OrderRule::Arrival, true, true)].objective / hlp,
            grid[&(OrderRule::LoadOverWeight, true, true)].objective / hlp,
            1.0,
        ];
        rows.push((scheme.name(), vals));
    }
    Fig2b { filter, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{generate_trace, TraceConfig};

    #[test]
    fn fig2a_base_case_is_100_percent() {
        let trace = generate_trace(&TraceConfig::small(6));
        let fig = run_fig2a(&trace, 0, 1);
        for (_, pct) in &fig.rows {
            assert!((pct[0] - 100.0).abs() < 1e-9);
            // Grouping + backfilling should not exceed the base much.
            assert!(pct[3] <= 102.0, "case (d) at {}%", pct[3]);
        }
    }

    #[test]
    fn fig2b_hlp_column_is_one() {
        let trace = generate_trace(&TraceConfig::small(6));
        let fig = run_fig2b(&trace, 0, 1);
        for (_, vals) in &fig.rows {
            assert_eq!(vals[2], 1.0);
            assert!(vals[0] > 0.0 && vals[1] > 0.0);
        }
    }
}
