//! Table 1 (Appendix D): normalized total weighted completion times for
//! 3 orders × 4 scheduling cases × 3 width filters × 2 weight schemes.
//!
//! Normalization matches the paper: every value is divided by the cost of
//! case (d) under `H_LP` for the same filter and weight scheme.

use crate::grid::{run_grid, GridResults, CASES};
use coflow::ordering::OrderRule;
use coflow::Instance;
use coflow_workloads::{assign_weights, filter_by_width, WeightScheme};

/// The paper's width filters, in Table 1 order.
pub const WIDTH_FILTERS: [usize; 3] = [50, 40, 30];

/// One (filter, weight-scheme) block of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Block {
    /// The `M0 ≥ filter` threshold.
    pub filter: usize,
    /// Weight scheme name ("equal" / "random").
    pub weights: &'static str,
    /// Number of coflows surviving the filter.
    pub num_coflows: usize,
    /// Normalized objective per (order, case): indexed
    /// `[order][case]` in the order of [`OrderRule::PAPER_RULES`] and
    /// [`CASES`].
    pub normalized: Vec<Vec<f64>>,
    /// Raw objectives in the same layout.
    pub raw: Vec<Vec<f64>>,
}

/// Runs one Table 1 block: filter the trace, assign weights, run the grid,
/// and normalize by (H_LP, d).
pub fn run_block(trace: &Instance, filter: usize, scheme: WeightScheme) -> Table1Block {
    let filtered = filter_by_width(trace, filter);
    let weighted = assign_weights(&filtered, scheme);
    let grid: GridResults = run_grid(&weighted, &OrderRule::PAPER_RULES);
    let denom = grid[&(OrderRule::LpBased, true, true)].objective;
    assert!(denom > 0.0, "normalizer must be positive");
    let raw: Vec<Vec<f64>> = OrderRule::PAPER_RULES
        .iter()
        .map(|&rule| {
            CASES
                .iter()
                .map(|&(g, b)| grid[&(rule, g, b)].objective)
                .collect()
        })
        .collect();
    let normalized = raw
        .iter()
        .map(|row| row.iter().map(|&v| v / denom).collect())
        .collect();
    Table1Block {
        filter,
        weights: scheme.name(),
        num_coflows: weighted.len(),
        normalized,
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{generate_trace, TraceConfig};

    #[test]
    fn block_normalizes_to_hlp_case_d() {
        let trace = generate_trace(&TraceConfig::small(4));
        let block = run_block(&trace, 0, WeightScheme::Equal);
        // (H_LP, d) is PAPER_RULES[2], CASES[3] -> normalized exactly 1.
        assert!((block.normalized[2][3] - 1.0).abs() < 1e-12);
        // All raw objectives positive.
        assert!(block.raw.iter().flatten().all(|&v| v > 0.0));
    }

    #[test]
    fn filters_reduce_coflow_count_monotonically() {
        let trace = generate_trace(&TraceConfig::small(5));
        let b10 = run_block(&trace, 10, WeightScheme::Equal);
        let b2 = run_block(&trace, 2, WeightScheme::Equal);
        assert!(b10.num_coflows <= b2.num_coflows);
    }
}
