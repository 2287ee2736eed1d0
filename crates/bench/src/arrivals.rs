//! Release-date experiment (extension).
//!
//! The paper's theory covers release dates (Theorems 1–2) but its
//! experiments assume all coflows arrive at time 0 and it lists "include
//! varying release dates" as future work. This experiment runs the grid on
//! a trace with Poisson arrivals and compares the offline algorithms (which
//! see the whole instance up front but respect releases) against the
//! legitimately online ρ/w-priority scheduler.

use crate::grid::{paper_grid, run_grid};
use coflow::bounds::interval_lp_bound;
use coflow::{run_policy, Instance, OrderRule, PolicyRegistry};
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

/// Results of the arrivals experiment.
#[derive(Clone, Debug)]
pub struct ArrivalsReport {
    /// `(order name, case, objective)` for the offline grid.
    pub grid: Vec<(&'static str, &'static str, f64)>,
    /// Objective of the online ρ/w scheduler (the registry's `online`).
    pub online_cost: f64,
    /// Interval-LP lower bound (valid with release dates).
    pub lower_bound: f64,
    /// Mean release date of the instance.
    pub mean_release: f64,
}

/// Builds the arrivals instance at the given scale.
pub fn arrivals_instance(ports: usize, num_coflows: usize, seed: u64) -> Instance {
    let cfg = TraceConfig {
        ports,
        num_coflows,
        seed,
        zero_release: false,
        mean_interarrival: 40.0,
        max_flow_size: 128,
        ..TraceConfig::default()
    };
    assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    )
}

/// Runs the experiment.
pub fn run_arrivals(instance: &Instance) -> ArrivalsReport {
    let grid = run_grid(instance, &OrderRule::PAPER_RULES);
    let rows = paper_grid()
        .map(|spec| {
            let cell = &grid[&(spec.order, spec.grouping, spec.backfill)];
            (spec.order.name(), spec.case_label(), cell.objective)
        })
        .collect();
    let entry = PolicyRegistry::builtin()
        .get("online")
        .expect("built-in policy");
    let online =
        run_policy(instance, &mut *entry.build(instance)).expect("the online policy is infallible");
    let lower_bound = interval_lp_bound(instance);
    let mean_release = instance
        .coflows()
        .iter()
        .map(|c| c.release as f64)
        .sum::<f64>()
        / instance.len() as f64;
    ArrivalsReport {
        grid: rows,
        online_cost: online.objective,
        lower_bound,
        mean_release,
    }
}

/// Renders the report.
pub fn render_arrivals(r: &ArrivalsReport) -> String {
    let mut out = format!(
        "Release-date experiment (mean release {:.0} slots)\n\
         \x20 interval-LP lower bound: {:.0}\n",
        r.mean_release, r.lower_bound
    );
    out.push_str("  order  case | objective | /bound\n");
    for (order, case, obj) in &r.grid {
        out.push_str(&format!(
            "  {:<5} ({})  | {:>9.0} | {:>5.2}\n",
            order,
            case,
            obj,
            obj / r.lower_bound
        ));
    }
    out.push_str(&format!(
        "  online rho/w | {:>9.0} | {:>5.2}  (sees only released coflows)\n",
        r.online_cost,
        r.online_cost / r.lower_bound
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_experiment_is_consistent() {
        let inst = arrivals_instance(12, 16, 33);
        assert!(inst.coflows().iter().any(|c| c.release > 0));
        let report = run_arrivals(&inst);
        assert_eq!(report.grid.len(), 12);
        for (_, _, obj) in &report.grid {
            assert!(report.lower_bound <= obj + 1e-6, "bound violated");
        }
        assert!(report.lower_bound <= report.online_cost + 1e-6);
    }

    #[test]
    fn online_is_competitive_with_offline_base_case() {
        // The online scheduler lacks the LP but is work conserving; it
        // should not be more than ~3x the best offline grid cell on a small
        // arrivals instance (typically it is well under 1.5x).
        let inst = arrivals_instance(10, 12, 5);
        let report = run_arrivals(&inst);
        let best_offline = report
            .grid
            .iter()
            .map(|&(_, _, o)| o)
            .fold(f64::INFINITY, f64::min);
        assert!(
            report.online_cost <= 3.0 * best_offline,
            "online at {} vs best offline {}",
            report.online_cost,
            best_offline
        );
    }
}
