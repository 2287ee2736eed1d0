//! Concurrent open shop scheduling — the substrate problem of Appendix A.
//!
//! When every coflow matrix is diagonal, coflow scheduling is *equivalent*
//! to concurrent open shop: machine `i` is the port pair `(i, i)`, a job's
//! processing requirement on machine `i` is the diagonal entry `d_ii`, and
//! the matching constraints decouple into independent unit-speed machines.
//! The paper leans on this connection for its NP-hardness result and builds
//! on the Wang–Cheng interval-indexed LP for concurrent open shop; this
//! crate makes the reduction executable so the two solvers can cross-check
//! each other.

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod primal_dual;
pub mod reduction;
pub mod schedule;

pub use primal_dual::{primal_dual_order, primal_dual_schedule};
pub use reduction::{coflow_to_open_shop, open_shop_to_coflow};
pub use schedule::{
    best_permutation_objective, order_by_interval_lp, order_by_wspt_bottleneck,
    order_by_wspt_total, permutation_schedule, PermutationSchedule,
};

/// A concurrent open shop job: independent processing requirements on each
/// machine, all of which must finish for the job to complete.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Stable identifier.
    pub id: usize,
    /// Processing time on each machine (`p_i^{(k)}`).
    pub processing: Vec<u64>,
    /// Release date.
    pub release: u64,
    /// Positive weight.
    pub weight: f64,
}

impl Job {
    /// Creates a job with release 0 and unit weight.
    pub fn new(id: usize, processing: Vec<u64>) -> Self {
        Job {
            id,
            processing,
            release: 0,
            weight: 1.0,
        }
    }

    /// Sets the release date (builder style).
    pub fn with_release(mut self, release: u64) -> Self {
        self.release = release;
        self
    }

    /// Sets the weight (builder style).
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0 && weight.is_finite());
        self.weight = weight;
        self
    }

    /// The job's bottleneck processing time `max_i p_i` — its `ρ` under the
    /// coflow reduction.
    pub fn bottleneck(&self) -> u64 {
        self.processing.iter().copied().max().unwrap_or(0)
    }

    /// Total processing over all machines.
    pub fn total(&self) -> u64 {
        self.processing.iter().sum()
    }
}

/// A concurrent open shop instance.
#[derive(Clone, Debug)]
pub struct OpenShopInstance {
    machines: usize,
    jobs: Vec<Job>,
}

impl OpenShopInstance {
    /// Creates an instance; every job must specify all machines.
    pub fn new(machines: usize, jobs: Vec<Job>) -> Self {
        for j in &jobs {
            assert_eq!(
                j.processing.len(),
                machines,
                "job {} must cover every machine",
                j.id
            );
        }
        OpenShopInstance { machines, jobs }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The jobs.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total weighted completion time for given completions.
    pub fn objective(&self, completions: &[u64]) -> f64 {
        self.jobs
            .iter()
            .zip(completions)
            .map(|(j, &c)| j.weight * c as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_accessors() {
        let j = Job::new(0, vec![3, 1, 4]).with_weight(2.0).with_release(5);
        assert_eq!(j.bottleneck(), 4);
        assert_eq!(j.total(), 8);
        assert_eq!(j.release, 5);
    }

    #[test]
    #[should_panic(expected = "every machine")]
    fn machine_count_enforced() {
        let _ = OpenShopInstance::new(3, vec![Job::new(0, vec![1, 2])]);
    }

    #[test]
    fn objective_computation() {
        let inst = OpenShopInstance::new(
            1,
            vec![Job::new(0, vec![1]), Job::new(1, vec![2]).with_weight(3.0)],
        );
        assert_eq!(inst.objective(&[1, 3]), 1.0 + 9.0);
    }
}
