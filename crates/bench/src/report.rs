//! Plain-text rendering of experiment results, mirroring the layout of the
//! paper's tables and figures.

use crate::figures::{Fig2a, Fig2b};
use crate::lowerbound::LowerBoundReport;
use crate::ratios::RatioReport;
use crate::table1::Table1Block;
use coflow::OrderRule;

/// Case labels in Table 1 row order.
pub const CASE_ROWS: [&str; 4] = ["(a)", "(b)", "(c)", "(d)"];

/// Renders one Table 1 block in the paper's layout (cases as rows, orders
/// as columns).
pub fn render_table1_block(block: &Table1Block) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "M0 >= {:<3}  weights: {:<7} ({} coflows)\n",
        block.filter, block.weights, block.num_coflows
    ));
    out.push_str("  case |");
    for rule in OrderRule::PAPER_RULES {
        out.push_str(&format!(" {:>8} |", rule.name()));
    }
    out.push('\n');
    out.push_str("  -----|----------|----------|----------|\n");
    for (case_idx, label) in CASE_ROWS.iter().enumerate() {
        out.push_str(&format!("  {:<4} |", label));
        for (order_idx, _) in OrderRule::PAPER_RULES.iter().enumerate() {
            out.push_str(&format!(" {:>8.2} |", block.normalized[order_idx][case_idx]));
        }
        out.push('\n');
    }
    out
}

/// Renders Figure 2a as percentages of the base case.
pub fn render_fig2a(fig: &Fig2a) -> String {
    let mut out = format!(
        "Figure 2a — % of base case (a); M0 >= {}, random weights\n",
        fig.filter
    );
    out.push_str("  order |   (a) |   (b) |   (c) |   (d) |\n");
    for (rule, pct) in &fig.rows {
        out.push_str(&format!(
            "  {:<5} | {:>5.1} | {:>5.1} | {:>5.1} | {:>5.1} |\n",
            rule.name(),
            pct[0],
            pct[1],
            pct[2],
            pct[3]
        ));
    }
    out
}

/// Renders Figure 2b (case (d), normalized to H_LP).
pub fn render_fig2b(fig: &Fig2b) -> String {
    let mut out = format!(
        "Figure 2b — case (d) costs normalized to H_LP; M0 >= {}\n",
        fig.filter
    );
    out.push_str("  weights |   H_A  |  H_rho |  H_LP  |\n");
    for (scheme, vals) in &fig.rows {
        out.push_str(&format!(
            "  {:<7} | {:>6.2} | {:>6.2} | {:>6.2} |\n",
            scheme, vals[0], vals[1], vals[2]
        ));
    }
    out
}

/// Renders the lower-bound (§4.2) report.
pub fn render_lowerbound(r: &LowerBoundReport) -> String {
    format!(
        "LP-EXP lower-bound experiment (paper reports ratio ~= 0.9447)\n\
         \x20 cost(H_LP, d)          = {:.1}\n\
         \x20 cost(H_rho, d)         = {:.1}\n\
         \x20 cost(rematch ext.)     = {:.1}\n\
         \x20 cost(greedy baseline)  = {:.1}\n\
         \x20 LP-EXP lower bound     = {:.1}\n\
         \x20 interval-LP bound      = {:.1}\n\
         \x20 load bound             = {:.1}\n\
         \x20 bound / cost(H_LP)     = {:.4}\n\
         \x20 bound / cost(H_rho)    = {:.4}\n\
         \x20 bound / cost(rematch)  = {:.4}\n\
         \x20 bound / cost(greedy)   = {:.4}\n",
        r.hlp_cost,
        r.hrho_cost,
        r.rematch_cost,
        r.greedy_cost,
        r.lp_exp_bound,
        r.interval_bound,
        r.load_bound,
        r.ratio_hlp,
        r.ratio_hrho,
        r.ratio_rematch,
        r.ratio_greedy
    )
}

/// Renders the approximation-ratio report.
pub fn render_ratios(r: &RatioReport) -> String {
    format!(
        "Approximation ratios vs exact optimum ({} tiny instances)\n\
         \x20 deterministic: mean {:.3}, worst {:.3}  (Cor. 1 bound {:.2})\n\
         \x20 randomized:    mean {:.3}, worst {:.3}  (Cor. 2 bound {:.2})\n",
        r.instances, r.det_mean, r.det_max, r.det_bound, r.rand_mean, r.rand_max, r.rand_bound
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::run_block;
    use coflow_workloads::{generate_trace, TraceConfig, WeightScheme};

    #[test]
    fn table_rendering_contains_all_cells() {
        let trace = generate_trace(&TraceConfig::small(2));
        let block = run_block(&trace, 0, WeightScheme::Equal);
        let text = render_table1_block(&block);
        assert!(text.contains("H_A"));
        assert!(text.contains("H_LP"));
        assert!(text.contains("(d)"));
        // Normalizer cell (H_LP, d) renders as 1.00.
        assert!(text.contains("1.00"));
    }
}
