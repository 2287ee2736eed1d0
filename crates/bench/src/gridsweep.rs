//! Grid-refinement sweep (extension answering an open question from §4.2).
//!
//! The paper notes: "we should systematically measure the benefit of the
//! time-indexed versus the interval-indexed linear program." Refining the
//! geometric grid ratio interpolates between the two: ratio 2 is the
//! paper's (LP); ratio → 1 approaches (LP-EXP). This sweep measures, per
//! ratio, (i) the lower bound, (ii) the cost of the schedule driven by the
//! resulting ordering, and (iii) the LP size/time — quantifying how much of
//! LP-EXP's tightness cheap refinements recover.

use coflow::intervals::GeometricGrid;
use coflow::relax::{solve_time_indexed_lp, solve_with_grid};
use coflow::sched::{run_with_order, ExecOptions};
use coflow::Instance;
use std::time::Instant;

/// One row of the sweep.
#[derive(Clone, Debug)]
pub struct GridSweepRow {
    /// Geometric ratio of the grid (2.0 = the paper's LP).
    pub ratio: f64,
    /// Lower bound from the LP over this grid.
    pub lower_bound: f64,
    /// Cost of Algorithm 2 driven by this grid's ordering
    /// (grouping + backfilling).
    pub schedule_cost: f64,
    /// Simplex pivots.
    pub iterations: usize,
    /// Wall time of the LP solve in milliseconds.
    pub solve_ms: f64,
}

/// Full sweep result, with the LP-EXP limit for reference.
#[derive(Clone, Debug)]
pub struct GridSweep {
    /// Rows in decreasing-ratio order.
    pub rows: Vec<GridSweepRow>,
    /// The (LP-EXP) bound — the refinement limit.
    pub lp_exp_bound: f64,
}

/// Runs the sweep on `instance` for the given ratios.
pub fn run_gridsweep(instance: &Instance, ratios: &[f64]) -> GridSweep {
    let horizon = instance.naive_horizon();
    let rows = ratios
        .iter()
        .map(|&ratio| {
            let grid = GeometricGrid::scaled(horizon, 1.0, ratio);
            let t0 = Instant::now();
            let relax = solve_with_grid(instance, &grid);
            let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = run_with_order(instance, relax.order.clone(), true, ExecOptions::paper(true));
            GridSweepRow {
                ratio,
                lower_bound: relax.lower_bound,
                schedule_cost: out.objective,
                iterations: relax.iterations,
                solve_ms,
            }
        })
        .collect();
    let lp_exp_bound = solve_time_indexed_lp(instance).lower_bound;
    GridSweep { rows, lp_exp_bound }
}

/// Renders the sweep as a text table.
pub fn render_gridsweep(sweep: &GridSweep) -> String {
    let mut out = String::from(
        "Grid-refinement sweep: interval-indexed LP -> time-indexed limit\n\
         \x20 ratio |  lower bound | bound/LP-EXP | schedule cost | pivots | solve ms\n",
    );
    for r in &sweep.rows {
        out.push_str(&format!(
            "  {:>5.2} | {:>12.1} | {:>12.4} | {:>13.1} | {:>6} | {:>8.1}\n",
            r.ratio,
            r.lower_bound,
            r.lower_bound / sweep.lp_exp_bound,
            r.schedule_cost,
            r.iterations,
            r.solve_ms
        ));
    }
    out.push_str(&format!(
        "  limit | {:>12.1} |       1.0000 | (LP-EXP)\n",
        sweep.lp_exp_bound
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

    #[test]
    fn refinement_is_monotone_and_bounded_by_lpexp() {
        let cfg = TraceConfig {
            ports: 8,
            num_coflows: 8,
            max_flow_size: 6,
            flow_size_mu: 0.7,
            flow_size_sigma: 0.5,
            ..TraceConfig::small(21)
        };
        let inst = assign_weights(
            &generate_trace(&cfg),
            WeightScheme::RandomPermutation { seed: 3 },
        );
        let sweep = run_gridsweep(&inst, &[2.0, 1.5, 1.2]);
        for pair in sweep.rows.windows(2) {
            assert!(
                pair[0].lower_bound <= pair[1].lower_bound + 1e-7,
                "refinement loosened the bound"
            );
        }
        for row in &sweep.rows {
            assert!(row.lower_bound <= sweep.lp_exp_bound + 1e-7);
            assert!(sweep.lp_exp_bound <= row.schedule_cost + 1e-6);
        }
    }
}
