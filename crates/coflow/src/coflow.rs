//! The coflow abstraction.
//!
//! A coflow (Chowdhury & Stoica) is a collection of parallel flows with a
//! shared performance goal. The paper writes its demand as an `m × m`
//! integer matrix `D = (d_ij)` but sizes it by `M0`, its number of nonzero
//! flows; here the demand is that flow list ([`Demand`]: the nonzero
//! `(i, j, d_ij)` in row-major order), with a release date `r_k` and a
//! positive weight `w_k`. A `Coflow` is also its own trace record.
//!
//! [`CoflowLoads`] is what the LP relaxations and the load-based orders
//! read of a coflow: its release, weight and nonzero per-port loads.

use coflow_netsim::demand::port_loads_into;
pub use coflow_netsim::Demand;
use coflow_netsim::PortLoads;

/// A single coflow: demand, release date, weight, and a stable id.
#[derive(Clone, Debug, PartialEq)]
pub struct Coflow {
    /// Stable identifier (the paper's `H_A` order is by trace id).
    pub id: usize,
    /// Demand: `d_ij` data units from ingress `i` to egress `j`, over the
    /// nonzero pairs.
    pub demand: Demand,
    /// Release date `r_k`; the coflow may first be served in slot `r_k + 1`.
    pub release: u64,
    /// Positive weight `w_k` in the objective `Σ w_k C_k`.
    pub weight: f64,
}

impl Coflow {
    /// Creates a coflow with release 0 and unit weight. The demand is a
    /// [`Demand`] or anything that converts into one (a dense matrix).
    pub fn new(id: usize, demand: impl Into<Demand>) -> Self {
        Coflow {
            id,
            demand: demand.into(),
            release: 0,
            weight: 1.0,
        }
    }

    /// Sets the release date (builder style).
    pub fn with_release(mut self, release: u64) -> Self {
        self.release = release;
        self
    }

    /// Sets the weight (builder style). Panics unless positive and finite.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "coflow weights must be positive and finite"
        );
        self.weight = weight;
        self
    }

    /// The load `ρ(D)` of Eq. (18): max over row and column sums. The
    /// minimum number of slots needed to clear this coflow alone.
    pub fn load(&self) -> u64 {
        self.demand.load()
    }

    /// Total data units.
    pub fn total_units(&self) -> u64 {
        self.demand.total()
    }

    /// Number of nonzero flows (the paper's `M0` width statistic).
    pub fn width(&self) -> usize {
        self.demand.nonzero_count()
    }

    /// Earliest possible completion time `r_k + ρ(D^{(k)})`.
    pub fn earliest_completion(&self) -> u64 {
        self.release + self.load()
    }

    /// The coflow's release, weight and port loads.
    pub fn loads(&self) -> CoflowLoads {
        CoflowLoads::from_flows(self.release, self.weight, self.demand.nonzero_entries())
    }
}

/// A coflow as the LP relaxations and the load-based orders see it: its
/// release, weight and nonzero per-port loads, without its flows.
#[derive(Clone, Debug, PartialEq)]
pub struct CoflowLoads {
    /// Release date `r_k`.
    pub(crate) release: u64,
    /// Weight `w_k` (positive, finite).
    pub(crate) weight: f64,
    /// Load `ρ_k`: the largest port load.
    pub(crate) rho: u64,
    /// Nonzero ingress loads `(i, Σ_j d_ij)`, ascending by port.
    pub(crate) ingress: PortLoads,
    /// Nonzero egress loads `(j, Σ_i d_ij)`, ascending by port.
    pub(crate) egress: PortLoads,
}

impl CoflowLoads {
    /// The summary of flows `(i, j, units)` in any order, a pair possibly
    /// repeated.
    pub fn from_flows(
        release: u64,
        weight: f64,
        flows: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Self {
        let (mut ingress, mut egress) = (Vec::new(), Vec::new());
        port_loads_into(flows, &mut ingress, &mut egress);
        let rho = ingress
            .iter()
            .chain(&egress)
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0);
        CoflowLoads {
            release,
            weight,
            rho,
            ingress,
            egress,
        }
    }

    /// Earliest possible completion `r_k + ρ_k`.
    pub fn earliest_completion(&self) -> u64 {
        self.release + self.rho
    }

    /// Total demand units `Σ_ij d_ij`.
    pub fn total_units(&self) -> u64 {
        self.ingress.iter().map(|&(_, d)| d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_matching::IntMatrix;

    #[test]
    fn builder_and_derived_quantities() {
        let c = Coflow::new(3, IntMatrix::from_nested(&[[1, 2], [2, 1]]))
            .with_release(5)
            .with_weight(2.5);
        assert_eq!(c.load(), 3);
        assert_eq!(c.total_units(), 6);
        assert_eq!(c.width(), 4);
        assert_eq!(c.earliest_completion(), 8);
        assert_eq!(c.weight, 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Coflow::new(0, IntMatrix::zeros(2)).with_weight(0.0);
    }

    #[test]
    fn loads_summarize_the_flows() {
        let c = Coflow::new(7, IntMatrix::from_nested(&[[0, 4], [1, 0]]))
            .with_release(2)
            .with_weight(3.0);
        let loads = c.loads();
        assert_eq!(loads.ingress, vec![(0, 4), (1, 1)]);
        assert_eq!(loads.egress, vec![(0, 1), (1, 4)]);
        assert_eq!((loads.rho, loads.total_units()), (4, 5));
        assert_eq!(loads.earliest_completion(), c.earliest_completion());
        // The same flows out of order, with a pair repeated.
        let drawn = CoflowLoads::from_flows(2, 3.0, [(1, 0, 1), (0, 1, 3), (0, 1, 1)]);
        assert_eq!(drawn, loads);
    }
}
