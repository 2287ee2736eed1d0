//! Coflow scheduling instances and their load statistics.

use crate::coflow::{Coflow, Demand};

/// An offline coflow scheduling instance: `n` coflows on an `m × m` fabric.
#[derive(Clone, Debug)]
pub struct Instance {
    m: usize,
    coflows: Vec<Coflow>,
}

impl Instance {
    /// Creates an instance; every demand must be on `m` ports.
    pub fn new(m: usize, coflows: Vec<Coflow>) -> Self {
        for c in &coflows {
            assert_eq!(c.demand.dim(), m, "coflow {} has wrong dimension", c.id);
        }
        Instance { m, coflows }
    }

    /// Fabric size `m`.
    pub fn ports(&self) -> usize {
        self.m
    }

    /// Number of coflows `n`.
    pub fn len(&self) -> usize {
        self.coflows.len()
    }

    /// True when the instance has no coflows.
    pub fn is_empty(&self) -> bool {
        self.coflows.is_empty()
    }

    /// The coflows, in instance order (index = coflow index `k`).
    pub fn coflows(&self) -> &[Coflow] {
        &self.coflows
    }

    /// A single coflow.
    pub fn coflow(&self, k: usize) -> &Coflow {
        &self.coflows[k]
    }

    /// Demands in instance order, borrowed: what the executors and the
    /// replay check read once into their sparse state.
    pub fn demands(&self) -> impl ExactSizeIterator<Item = &Demand> + Clone + '_ {
        self.coflows.iter().map(|c| &c.demand)
    }

    /// Release dates in instance order.
    pub fn releases(&self) -> Vec<u64> {
        self.coflows.iter().map(|c| c.release).collect()
    }

    /// Weights in instance order.
    pub fn weights(&self) -> Vec<f64> {
        self.coflows.iter().map(|c| c.weight).collect()
    }

    /// Total demand on each ingress port across all coflows.
    pub fn ingress_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.m];
        for (i, _, u) in self.coflows.iter().flat_map(|c| c.demand.nonzero_entries()) {
            loads[i] += u;
        }
        loads
    }

    /// Total demand on each egress port across all coflows.
    pub fn egress_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.m];
        for (_, j, u) in self.coflows.iter().flat_map(|c| c.demand.nonzero_entries()) {
            loads[j] += u;
        }
        loads
    }

    /// A trivial horizon that any schedule fits in:
    /// `max_k r_k + Σ_k Σ_ij d_ij` (the paper's `T`), at least one slot
    /// past the latest release.
    pub fn naive_horizon(&self) -> u64 {
        let (latest, total) = self.coflows.iter().fold((0u64, 0u64), |(r, t), c| {
            (r.max(c.release), t.saturating_add(c.total_units()))
        });
        latest.saturating_add(total.max(1))
    }

    /// The total weighted completion time `Σ_k w_k C_k` for given
    /// completion slots.
    pub fn objective(&self, completions: &[u64]) -> f64 {
        assert_eq!(completions.len(), self.coflows.len());
        self.coflows
            .iter()
            .zip(completions)
            .map(|(c, &t)| c.weight * t as f64)
            .sum()
    }

    /// Cumulative *maximum total loads* `V_k` of §2.2 for a given coflow
    /// order: `V_k = max(I_k, J_k)` where `I_k`/`J_k` are the worst ingress/
    /// egress loads of the first `k` coflows in `order`.
    ///
    /// Returns one value per prefix, aligned with `order` (index `p` is
    /// `V_{p+1}` over `order[0..=p]`). By Lemma 2 each `V_k` lower-bounds
    /// the time at which the first `k` coflows can all be complete, under
    /// *any* schedule.
    ///
    /// ```
    /// use coflow::{Coflow, Instance};
    /// use coflow_matching::IntMatrix;
    ///
    /// let a = Coflow::new(0, IntMatrix::diagonal(&[3, 0]));
    /// let b = Coflow::new(1, IntMatrix::diagonal(&[2, 4]));
    /// let inst = Instance::new(2, vec![a, b]);
    /// // After coflow 0: port 0 carries 3. After both: port 0 carries 5.
    /// assert_eq!(inst.cumulative_loads(&[0, 1]), vec![3, 5]);
    /// ```
    pub fn cumulative_loads(&self, order: &[usize]) -> Vec<u64> {
        let mut in_load = vec![0u64; self.m];
        let mut out_load = vec![0u64; self.m];
        // Port loads only grow, so the running maximum is the maximum.
        let mut vk = 0u64;
        order
            .iter()
            .map(|&k| {
                for (i, j, u) in self.coflows[k].demand.nonzero_entries() {
                    in_load[i] += u;
                    out_load[j] += u;
                    vk = vk.max(in_load[i]).max(out_load[j]);
                }
                vk
            })
            .collect()
    }

    /// The load `ρ` of a set of coflows aggregated into one
    /// (`ρ(Σ_{k∈S} D^{(k)})`), as Algorithm 2 clears each group.
    pub fn aggregate_load(&self, coflow_indices: &[usize]) -> u64 {
        let mut in_load = vec![0u64; self.m];
        let mut out_load = vec![0u64; self.m];
        for &k in coflow_indices {
            for (i, j, u) in self.coflows[k].demand.nonzero_entries() {
                in_load[i] += u;
                out_load[j] += u;
            }
        }
        in_load.into_iter().chain(out_load).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_matching::IntMatrix;

    fn two_coflow_instance() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 0]])).with_weight(2.0);
        Instance::new(2, vec![c0, c1])
    }

    #[test]
    fn loads_and_horizon() {
        let inst = two_coflow_instance();
        assert_eq!(inst.ingress_loads(), vec![6, 3]);
        assert_eq!(inst.egress_loads(), vec![6, 3]);
        assert_eq!(inst.naive_horizon(), 9);
    }

    #[test]
    fn objective_weighs_completions() {
        let inst = two_coflow_instance();
        assert_eq!(inst.objective(&[3, 4]), 3.0 + 2.0 * 4.0);
    }

    #[test]
    fn cumulative_loads_follow_order() {
        let inst = two_coflow_instance();
        // Order [0, 1]: V_1 = rho(c0) = 3; V_2 = max port load of sum.
        let v = inst.cumulative_loads(&[0, 1]);
        assert_eq!(v, vec![3, 6]);
        // Order [1, 0]: V_1 = 3 (c1 row 0), V_2 = 6.
        let v = inst.cumulative_loads(&[1, 0]);
        assert_eq!(v, vec![3, 6]);
    }

    #[test]
    fn aggregate_load_is_rho_of_the_summed_matrices() {
        let inst = two_coflow_instance();
        // Row 0 of the sum carries 4 + 2.
        assert_eq!(inst.aggregate_load(&[0, 1]), 6);
        assert_eq!(inst.aggregate_load(&[1]), 3);
        assert_eq!(inst.aggregate_load(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn dimension_mismatch_rejected() {
        let c = Coflow::new(0, IntMatrix::zeros(3));
        let _ = Instance::new(2, vec![c]);
    }
}
