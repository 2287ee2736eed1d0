//! Coflow ordering rules (the *ordering stage* of §4).
//!
//! Both approximation algorithms first produce a global coflow order; the
//! experiments compare three of them — `H_A` (arrival / trace id), `H_ρ`
//! (load-to-weight ratio, the rule used by Varys-style heuristics), and
//! `H_LP` (the LP-based order (15)) — plus a total-size variant as an
//! ablation.

use crate::coflow::{Coflow, CoflowLoads};
use crate::error::SchedError;
use crate::instance::Instance;
use crate::relax::{solve_interval_lp, try_solve_interval_lp_with, Postings};
use coflow_lp::SimplexOptions;

/// An ordering heuristic for the ordering stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderRule {
    /// `H_A`: the naive order by coflow id (arrival order in the trace).
    Arrival,
    /// `H_ρ`: nondecreasing `ρ(D^{(k)}) / w_k` (Eq. (18) over weight).
    LoadOverWeight,
    /// `H_LP`: nondecreasing fractional completion time `C̄_k` from the
    /// interval-indexed relaxation (ordering (15)).
    LpBased,
    /// Ablation: nondecreasing total size `Σ_ij d_ij / w_k` (ignores the
    /// bottleneck structure that `ρ` captures).
    SizeOverWeight,
    /// Extension: Sincronia-style BSSI — the primal–dual rule applied to
    /// the `2m` per-port loads (each ingress and egress treated as a
    /// machine). Builds the permutation from the back: repeatedly take the
    /// most-loaded port, place last the coflow minimizing residual weight
    /// per unit of load on that port, and discount the survivors' weights.
    /// Agarwal et al. later proved this rule 4-approximate when combined
    /// with any work-conserving schedule; here it slots into the same
    /// scheduling stage as the paper's orders.
    PortPrimalDual,
}

impl OrderRule {
    /// All rules evaluated in the experiment grid.
    pub const PAPER_RULES: [OrderRule; 3] = [
        OrderRule::Arrival,
        OrderRule::LoadOverWeight,
        OrderRule::LpBased,
    ];

    /// Short display name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match self {
            OrderRule::Arrival => "H_A",
            OrderRule::LoadOverWeight => "H_rho",
            OrderRule::LpBased => "H_LP",
            OrderRule::SizeOverWeight => "H_size",
            OrderRule::PortPrimalDual => "H_pd",
        }
    }
}

/// The permutation of `0..n` sorting by `key` nondecreasing, ties broken
/// by index. This is *the* ordering primitive of the workspace — every
/// key-based rule (`H_ρ`, `H_size`, the LP's `C̄_k` order, online
/// re-ranking) routes through it so tie-breaking stays consistent.
pub fn permutation_by_key(n: usize, key: &[f64]) -> Vec<usize> {
    debug_assert_eq!(n, key.len());
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| key[a].total_cmp(&key[b]).then(a.cmp(&b)));
    order
}

/// Computes the coflow order under `rule`. Ties break by coflow index, so
/// every rule yields a deterministic permutation of `0..n`.
pub fn compute_order(instance: &Instance, rule: OrderRule) -> Vec<usize> {
    let _span = obs::span("sched.order");
    compute_order_inner(instance, rule)
}

fn compute_order_inner(instance: &Instance, rule: OrderRule) -> Vec<usize> {
    let n = instance.len();
    match rule {
        OrderRule::Arrival => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&k| (instance.coflow(k).id, k));
            order
        }
        OrderRule::LoadOverWeight => load_over_weight_order(&loads_of(instance)),
        OrderRule::SizeOverWeight => {
            let key: Vec<f64> = instance
                .coflows()
                .iter()
                .map(|c| c.total_units() as f64 / c.weight)
                .collect();
            permutation_by_key(n, &key)
        }
        OrderRule::LpBased => solve_interval_lp(instance).order,
        OrderRule::PortPrimalDual => port_primal_dual_order(instance.ports(), &loads_of(instance)),
    }
}

/// Fallible variant of [`compute_order`]: [`OrderRule::LpBased`] surfaces
/// LP solver failures as [`SchedError::Lp`] instead of panicking; every
/// heuristic rule is infallible.
pub fn try_compute_order(instance: &Instance, rule: OrderRule) -> Result<Vec<usize>, SchedError> {
    try_compute_order_with(instance, rule, &SimplexOptions::default())
}

/// [`try_compute_order`] with explicit simplex options for the LP-backed
/// rule (pivot/wall-clock budgets, stall detection, duality verification).
/// The options are ignored by heuristic rules.
pub fn try_compute_order_with(
    instance: &Instance,
    rule: OrderRule,
    lp_opts: &SimplexOptions,
) -> Result<Vec<usize>, SchedError> {
    let _span = obs::span("sched.order");
    match rule {
        OrderRule::LpBased => match try_solve_interval_lp_with(instance, lp_opts) {
            Ok(lp) => Ok(lp.order),
            Err(source) => Err(SchedError::Lp {
                rule: rule.name(),
                source,
            }),
        },
        _ => Ok(compute_order_inner(instance, rule)),
    }
}

fn loads_of(instance: &Instance) -> Vec<CoflowLoads> {
    instance.coflows().iter().map(Coflow::loads).collect()
}

/// `H_ρ` over port-load summaries: nondecreasing `ρ_k / w_k`, ties by
/// index. What [`OrderRule::LoadOverWeight`] computes for an instance.
pub fn load_over_weight_order(coflows: &[CoflowLoads]) -> Vec<usize> {
    let key: Vec<f64> = coflows.iter().map(|c| c.rho as f64 / c.weight).collect();
    permutation_by_key(coflows.len(), &key)
}

/// The BSSI primal–dual permutation (see [`OrderRule::PortPrimalDual`])
/// of coflows on an `m`-port fabric, over their port loads: the `2m`
/// "machines" are the ingress ports `0..m` and the egress ports `m..2m`.
pub fn port_primal_dual_order(m: usize, coflows: &[CoflowLoads]) -> Vec<usize> {
    let n = coflows.len();
    let machines = Postings::new(m, coflows.iter());
    let mut total_load: Vec<u64> = machines
        .ports()
        .map(|per_port| per_port.iter().map(|&(_, l)| l).sum())
        .collect();
    let mut residual: Vec<f64> = coflows.iter().map(|c| c.weight).collect();
    let mut remaining = vec![true; n];
    let mut order_rev = Vec::with_capacity(n);
    for _ in 0..n {
        let (port, &load) = total_load
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .unwrap_or_else(|| unreachable!("fabric has at least one port"));
        let k_star = if load == 0 {
            (0..n)
                .find(|&k| remaining[k])
                .unwrap_or_else(|| unreachable!("loop runs once per remaining coflow"))
        } else {
            // The port's coflows, ascending: the first minimum ratio wins.
            let on_port = machines.port(port);
            let mut best: Option<(usize, f64)> = None;
            for &(k, l) in on_port.iter().filter(|&&(k, _)| remaining[k]) {
                let ratio = residual[k] / l as f64;
                if best.is_none_or(|(_, r)| ratio < r) {
                    best = Some((k, ratio));
                }
            }
            let (k_star, theta) =
                best.unwrap_or_else(|| unreachable!("max-load port has a contributing coflow"));
            // Coflows without load on the port keep their residual. Theta is
            // the port's least ratio, so every residual stays a feasible
            // (nonnegative) dual weight, up to rounding.
            for &(k, l) in on_port {
                if remaining[k] && k != k_star {
                    residual[k] -= theta * l as f64;
                    debug_assert!(residual[k] >= -1e-9 * coflows[k].weight);
                }
            }
            k_star
        };
        remaining[k_star] = false;
        let c = &coflows[k_star];
        for &(p, l) in &c.ingress {
            total_load[p] -= l;
        }
        for &(p, l) in &c.egress {
            total_load[m + p] -= l;
        }
        order_rev.push(k_star);
    }
    order_rev.reverse();
    order_rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_matching::IntMatrix;

    fn mk(id: usize, diag: &[u64], w: f64) -> Coflow {
        Coflow::new(id, IntMatrix::diagonal(diag)).with_weight(w)
    }

    #[test]
    fn arrival_order_is_by_id() {
        let inst = Instance::new(
            2,
            vec![
                mk(2, &[1, 1], 1.0),
                mk(0, &[5, 5], 1.0),
                mk(1, &[3, 3], 1.0),
            ],
        );
        assert_eq!(compute_order(&inst, OrderRule::Arrival), vec![1, 2, 0]);
    }

    #[test]
    fn load_over_weight_prefers_short_or_heavy() {
        // loads 5, 1, 4; weights 1, 1, 8 -> ratios 5, 1, 0.5.
        let inst = Instance::new(
            2,
            vec![
                mk(0, &[5, 5], 1.0),
                mk(1, &[1, 1], 1.0),
                mk(2, &[4, 4], 8.0),
            ],
        );
        assert_eq!(
            compute_order(&inst, OrderRule::LoadOverWeight),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn size_and_load_rules_differ_on_skew() {
        // c0: one fat flow (rho 6, size 6); c1: spread (rho 3, size 6).
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[6, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 3]]));
        let inst = Instance::new(2, vec![c0, c1]);
        assert_eq!(compute_order(&inst, OrderRule::LoadOverWeight), vec![1, 0]);
        // Equal sizes: ties break by index.
        assert_eq!(compute_order(&inst, OrderRule::SizeOverWeight), vec![0, 1]);
    }

    #[test]
    fn lp_rule_orders_by_fractional_completion() {
        let inst = Instance::new(2, vec![mk(0, &[30, 30], 1.0), mk(1, &[1, 1], 1.0)]);
        let order = compute_order(&inst, OrderRule::LpBased);
        assert_eq!(order[0], 1, "tiny coflow should precede the huge one");
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(OrderRule::Arrival.name(), "H_A");
        assert_eq!(OrderRule::LoadOverWeight.name(), "H_rho");
        assert_eq!(OrderRule::LpBased.name(), "H_LP");
        assert_eq!(OrderRule::PortPrimalDual.name(), "H_pd");
    }

    #[test]
    fn port_primal_dual_is_a_permutation() {
        let inst = Instance::new(
            2,
            vec![
                mk(0, &[5, 5], 1.0),
                mk(1, &[1, 1], 1.0),
                mk(2, &[4, 4], 8.0),
            ],
        );
        let mut order = compute_order(&inst, OrderRule::PortPrimalDual);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn port_primal_dual_matches_wspt_on_single_port() {
        // On a 1x1 fabric the rule reduces to WSPT, like the others.
        let mk1 = |id, p: u64, w: f64| Coflow::new(id, IntMatrix::diagonal(&[p])).with_weight(w);
        let inst = Instance::new(1, vec![mk1(0, 2, 1.0), mk1(1, 1, 3.0), mk1(2, 3, 2.0)]);
        assert_eq!(
            compute_order(&inst, OrderRule::PortPrimalDual),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn port_primal_dual_prioritizes_heavy_coflows() {
        let big = Coflow::new(0, IntMatrix::from_nested(&[[30, 0], [0, 30]]));
        let urgent = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_weight(100.0);
        let inst = Instance::new(2, vec![big, urgent]);
        let order = compute_order(&inst, OrderRule::PortPrimalDual);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn port_primal_dual_handles_zero_demand_coflows() {
        let empty = Coflow::new(0, IntMatrix::zeros(2));
        let real = Coflow::new(1, IntMatrix::diagonal(&[2, 0]));
        let inst = Instance::new(2, vec![empty, real]);
        let mut order = compute_order(&inst, OrderRule::PortPrimalDual);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1]);
    }
}
