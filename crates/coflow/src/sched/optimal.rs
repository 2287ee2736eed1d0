//! Exact optimal scheduling for tiny instances by memoized search.
//!
//! Used to measure true approximation ratios in tests and the `ratios`
//! experiment. The state is the vector of remaining demands; one slot
//! applies a matching over pairs (choosing which coflow each pair serves).
//! The value recursion uses the standard *active-weight* identity
//! `Σ_k w_k C_k = Σ_{t ≥ 1} Σ_k w_k·1[C_k ≥ t]`, which makes the value
//! function time-invariant — valid only when all release dates are zero
//! (asserted).
//!
//! Complexity is exponential; intended for `m ≤ 3`, a handful of coflows,
//! and single-digit demands. [`optimal_objective`] panics if the state space
//! exceeds a safety cap.

use crate::instance::Instance;
use coflow_matching::IntMatrix;
use std::collections::HashMap;

/// Hard cap on the number of distinct memoized states.
const STATE_CAP: usize = 2_000_000;

struct Search {
    n: usize,
    m: usize,
    weights: Vec<f64>,
    memo: HashMap<Vec<u64>, f64>,
}

impl Search {
    /// Active weight of a state: total weight of coflows with remaining
    /// demand.
    fn active_weight(&self, state: &[u64]) -> f64 {
        let cells = self.m * self.m;
        (0..self.n)
            .filter(|&k| state[k * cells..(k + 1) * cells].iter().any(|&d| d > 0))
            .map(|k| self.weights[k])
            .sum()
    }

    fn value(&mut self, state: &[u64]) -> f64 {
        if state.iter().all(|&d| d == 0) {
            return 0.0;
        }
        if let Some(&v) = self.memo.get(state) {
            return v;
        }
        assert!(
            self.memo.len() < STATE_CAP,
            "optimal search exceeded the state cap; instance too large"
        );
        // Every coflow unfinished at the start of this slot accrues one
        // slot of weight (the active-weight identity), then we enumerate
        // matchings: for each ingress in turn, pick an (egress, coflow)
        // with demand, or skip the ingress.
        let mut best = f64::INFINITY;
        let mut next = state.to_vec();
        let mut dst_used = vec![false; self.m];
        self.enumerate(0, &mut next, &mut dst_used, &mut best, state);
        let v = self.active_weight(state) + best;
        self.memo.insert(state.to_vec(), v);
        v
    }

    fn enumerate(
        &mut self,
        i: usize,
        next: &mut Vec<u64>,
        dst_used: &mut Vec<bool>,
        best: &mut f64,
        state: &[u64],
    ) {
        if i == self.m {
            if next == state {
                // No unit moved: pure idling can never be optimal with all
                // releases at zero; prune to guarantee progress.
                return;
            }
            let v = self.value(next);
            if v < *best {
                *best = v;
            }
            return;
        }
        let cells = self.m * self.m;
        // Option 1: ingress i idles.
        self.enumerate(i + 1, next, dst_used, best, state);
        // Option 2: ingress i serves coflow k towards egress j.
        for j in 0..self.m {
            if dst_used[j] {
                continue;
            }
            for k in 0..self.n {
                let idx = k * cells + i * self.m + j;
                if next[idx] == 0 {
                    continue;
                }
                next[idx] -= 1;
                dst_used[j] = true;
                self.enumerate(i + 1, next, dst_used, best, state);
                dst_used[j] = false;
                next[idx] += 1;
            }
        }
    }
}

/// Computes the exact optimal total weighted completion time of a tiny
/// instance. Panics if any release date is nonzero or the state space blows
/// past the safety cap.
pub fn optimal_objective(instance: &Instance) -> f64 {
    assert!(
        instance.coflows().iter().all(|c| c.release == 0),
        "exact search requires all release dates to be zero"
    );
    let m = instance.ports();
    let n = instance.len();
    let cells = m * m;
    let mut state = vec![0u64; n * cells];
    for (k, c) in instance.coflows().iter().enumerate() {
        for (i, j, d) in c.demand.nonzero_entries() {
            state[k * cells + i * m + j] = d;
        }
    }
    let mut search = Search {
        n,
        m,
        weights: instance.weights(),
        memo: HashMap::new(),
    };
    // Zero-demand coflows complete at slot 0 and contribute nothing.
    search.value(&state)
}

/// Convenience: optimal objective of a set of demand matrices with unit
/// weights and zero releases.
pub fn optimal_objective_unweighted(m: usize, demands: &[IntMatrix]) -> f64 {
    use crate::coflow::Coflow;
    let coflows = demands
        .iter()
        .enumerate()
        .map(|(id, d)| Coflow::new(id, d))
        .collect();
    optimal_objective(&Instance::new(m, coflows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;

    #[test]
    fn single_unit_flow() {
        let d = IntMatrix::from_nested(&[[1, 0], [0, 0]]);
        assert_eq!(optimal_objective_unweighted(2, &[d]), 1.0);
    }

    #[test]
    fn fig1_optimum_is_three() {
        let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        assert_eq!(optimal_objective_unweighted(2, &[d]), 3.0);
    }

    #[test]
    fn two_disjoint_unit_coflows_finish_together() {
        let d0 = IntMatrix::from_nested(&[[1, 0], [0, 0]]);
        let d1 = IntMatrix::from_nested(&[[0, 0], [0, 1]]);
        assert_eq!(optimal_objective_unweighted(2, &[d0, d1]), 2.0);
    }

    #[test]
    fn two_competing_unit_coflows_queue() {
        let d0 = IntMatrix::from_nested(&[[1, 0], [0, 0]]);
        let d1 = IntMatrix::from_nested(&[[1, 0], [0, 0]]);
        // One finishes at 1, the other at 2.
        assert_eq!(optimal_objective_unweighted(2, &[d0, d1]), 3.0);
    }

    #[test]
    fn weights_change_the_optimal_order() {
        // Heavy coflow should finish first even though ids say otherwise.
        let d0 = IntMatrix::from_nested(&[[2, 0], [0, 0]]);
        let d1 = IntMatrix::from_nested(&[[1, 0], [0, 0]]);
        let c0 = Coflow::new(0, d0).with_weight(1.0);
        let c1 = Coflow::new(1, d1).with_weight(10.0);
        let inst = Instance::new(2, vec![c0, c1]);
        // Optimal: serve c1 first (C=1, cost 10), then c0 (C=3, cost 3) = 13.
        // Other order: c0 at 2 (cost 2) + c1 at 3 (cost 30) = 32.
        assert_eq!(optimal_objective(&inst), 13.0);
    }

    #[test]
    fn optimum_matches_smith_rule_on_single_port() {
        // m = 1 reduces to 1|pmtn|sum wC with equal-length unit jobs -> WSPT.
        let mk = |id, units, w: f64| Coflow::new(id, IntMatrix::diagonal(&[units])).with_weight(w);
        let inst = Instance::new(1, vec![mk(0, 2, 1.0), mk(1, 1, 3.0), mk(2, 3, 2.0)]);
        // WSPT order by p/w: c1 (1/3), c2 (3/2), c0 (2/1):
        // C1=1 (w3), C2=4 (w2), C0=6 (w1) -> 3 + 8 + 6 = 17.
        assert_eq!(optimal_objective(&inst), 17.0);
    }

    #[test]
    #[should_panic(expected = "release dates")]
    fn releases_rejected() {
        let c = Coflow::new(0, IntMatrix::diagonal(&[1])).with_release(1);
        let _ = optimal_objective(&Instance::new(1, vec![c]));
    }
}
