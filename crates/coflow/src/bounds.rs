//! Lower bounds on the optimal total weighted completion time.
//!
//! Three bounds of increasing strength (and cost):
//!
//! 1. [`release_load_bound`] — `Σ_k w_k (r_k + ρ_k)`: each coflow needs at
//!    least `ρ(D^{(k)})` slots after its release (the matching constraints);
//! 2. [`interval_lp_bound`] — the optimal value of the interval-indexed
//!    relaxation (Lemma 1);
//! 3. [`time_indexed_bound`] — the optimal value of (LP-EXP), the bound the
//!    paper uses to certify near-optimality in §4.2 (only tractable for
//!    modest horizons).

use crate::instance::Instance;
use crate::relax::{solve_interval_lp, solve_time_indexed_lp};

/// `Σ_k w_k (r_k + ρ_k)`: the weakest bound, free to compute.
pub fn release_load_bound(instance: &Instance) -> f64 {
    instance
        .coflows()
        .iter()
        .map(|c| c.weight * c.earliest_completion() as f64)
        .sum()
}

/// Lower bound from the interval-indexed relaxation (LP) — Lemma 1.
pub fn interval_lp_bound(instance: &Instance) -> f64 {
    solve_interval_lp(instance).lower_bound
}

/// Lower bound from the time-indexed relaxation (LP-EXP). `Θ(n·T)`
/// variables; use only when the naive horizon is modest.
pub fn time_indexed_bound(instance: &Instance) -> f64 {
    solve_time_indexed_lp(instance).lower_bound
}

/// Completion times of a *fluid* (rate-based) strict-priority schedule —
/// the alternative model the paper discusses and rejects in §1.1, where
/// fractional matchings let every port drain continuously at unit rate.
///
/// With zero release dates (asserted) and strict priority in `order`, port
/// `p` finishes the `k`-th prefix's data exactly at the cumulative load, so
/// `C_k^fluid = V_k`. Comparing this against the integral matching
/// schedules quantifies the "provably negligible degradation" claim of
/// §1.1. Returned in instance indexing.
pub fn fluid_priority_completions(instance: &Instance, order: &[usize]) -> Vec<u64> {
    assert!(
        instance.coflows().iter().all(|c| c.release == 0),
        "fluid priority completions are defined for zero release dates"
    );
    let v = instance.cumulative_loads(order);
    let mut out = vec![0u64; instance.len()];
    for (p, &k) in order.iter().enumerate() {
        out[k] = v[p];
    }
    out
}

/// `Σ_k w_k C_k^fluid` for the fluid strict-priority schedule.
pub fn fluid_priority_objective(instance: &Instance, order: &[usize]) -> f64 {
    instance.objective(&fluid_priority_completions(instance, order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::sched::optimal::optimal_objective;
    use crate::sched::{run_with_order, ExecOptions};
    use coflow_matching::IntMatrix;

    fn small_instance() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[2, 0], [0, 1]])).with_weight(2.0);
        Instance::new(2, vec![c0, c1])
    }

    #[test]
    fn bounds_are_ordered_and_below_optimum() {
        let inst = small_instance();
        let b1 = release_load_bound(&inst);
        let b2 = interval_lp_bound(&inst);
        let b3 = time_indexed_bound(&inst);
        let opt = optimal_objective(&inst);
        assert!(b2 <= b3 + 1e-7, "interval bound must not exceed LP-EXP");
        assert!(b3 <= opt + 1e-7, "LP-EXP must lower-bound the optimum");
        assert!(b1 <= opt + 1e-7, "load bound must lower-bound the optimum");
    }

    #[test]
    fn fluid_priority_matches_cumulative_loads() {
        let inst = small_instance();
        let order = vec![1, 0];
        let fluid = fluid_priority_completions(&inst, &order);
        let v = inst.cumulative_loads(&order);
        assert_eq!(fluid[1], v[0]);
        assert_eq!(fluid[0], v[1]);
        // Lemma 2: the integral schedule's prefix completions dominate V_k.
        let out = run_with_order(&inst, order.clone(), true, ExecOptions::paper(true));
        let mut prefix_done = 0;
        for (p, &k) in order.iter().enumerate() {
            prefix_done = prefix_done.max(out.completions[k]);
            assert!(prefix_done >= v[p]);
        }
    }

    #[test]
    #[should_panic(expected = "zero release dates")]
    fn fluid_rejects_releases() {
        let c = Coflow::new(0, IntMatrix::diagonal(&[1, 0])).with_release(1);
        let inst = Instance::new(2, vec![c]);
        let _ = fluid_priority_completions(&inst, &[0]);
    }

    #[test]
    fn release_load_bound_accounts_for_releases() {
        let c = Coflow::new(0, IntMatrix::diagonal(&[2, 0])).with_release(7);
        let inst = Instance::new(2, vec![c]);
        assert_eq!(release_load_bound(&inst), 9.0);
    }
}
