//! Synthetic Hive/MapReduce trace calibrated to the paper's Facebook setup.
//!
//! The paper evaluates on a proprietary trace from a 3000-machine,
//! 150-rack Facebook cluster, modeled as a 150×150 switch with 1 Gbps ports;
//! the time unit is 1/128 s, making the port capacity exactly 1 MB per slot,
//! and flow sizes are integer numbers of MB. The trace itself is not
//! public, so this module generates a *synthetic* trace preserving the
//! features the algorithms are sensitive to (documented in DESIGN.md):
//!
//! * shuffle structure — each coflow is a (mappers × reducers) block: a
//!   random subset of source racks sending to a random subset of
//!   destination racks;
//! * heavy-tailed widths — many narrow coflows, few cluster-wide ones, so
//!   the `M0 ≥ {30, 40, 50}` filters of §4.1 retain progressively more
//!   coflows;
//! * heavy-tailed flow sizes — log-normal MB counts, so per-port loads are
//!   skewed and grouping/backfilling have room to help.

use crate::distributions::{BoundedPareto, LogNormal};
use coflow::{Coflow, Demand, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of racks (= ports) in the paper's cluster.
pub const FACEBOOK_RACKS: usize = 150;

/// Configuration of the synthetic trace generator.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Fabric size (the paper's cluster: 150).
    pub ports: usize,
    /// Number of coflows to generate.
    pub num_coflows: usize,
    /// RNG seed (traces are fully deterministic given the config).
    pub seed: u64,
    /// Log-normal `mu` of per-flow MB counts (paper flows span KB–GB; the
    /// default keeps per-port loads in the thousands of slots).
    pub flow_size_mu: f64,
    /// Log-normal `sigma` of per-flow MB counts.
    pub flow_size_sigma: f64,
    /// Cap on a single flow's size in MB (tames the tail so experiment
    /// running time stays bounded).
    pub max_flow_size: u64,
    /// Pareto tail index for the fan-in/fan-out (number of mapper and
    /// reducer racks); smaller = more cluster-wide coflows.
    pub fanout_alpha: f64,
    /// Log-normal `sigma` of a per-coflow size multiplier. The Facebook
    /// trace's coflow sizes span many orders of magnitude — a few shuffles
    /// dominate the total load — which is what makes the *ordering* stage
    /// worth up to ~8× in the paper. 0 disables the multiplier.
    pub coflow_scale_sigma: f64,
    /// All-zero release dates when true (the §4.1 setting).
    pub zero_release: bool,
    /// Mean inter-arrival gap in slots when `zero_release` is false.
    pub mean_interarrival: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ports: FACEBOOK_RACKS,
            num_coflows: 120,
            seed: 0xFB_2010,
            flow_size_mu: 2.3, // median ~10 MB
            flow_size_sigma: 1.3,
            max_flow_size: 2048,
            fanout_alpha: 0.9,
            coflow_scale_sigma: 1.6,
            zero_release: true,
            mean_interarrival: 64.0,
        }
    }
}

impl TraceConfig {
    /// A smaller configuration for unit tests and quick benchmarks
    /// (25 ports, 40 coflows, modest flow sizes).
    pub fn small(seed: u64) -> Self {
        TraceConfig {
            ports: 25,
            num_coflows: 40,
            seed,
            flow_size_mu: 1.6,
            flow_size_sigma: 1.0,
            max_flow_size: 256,
            ..TraceConfig::default()
        }
    }
}

/// Generates the synthetic trace as a coflow [`Instance`] with unit weights.
///
/// ```
/// use coflow_workloads::{generate_trace, TraceConfig};
/// let cfg = TraceConfig { ports: 10, num_coflows: 5, ..TraceConfig::default() };
/// let trace = generate_trace(&cfg);
/// assert_eq!(trace.len(), 5);
/// assert!(trace.coflows().iter().all(|c| c.total_units() > 0));
/// // Deterministic per seed:
/// assert_eq!(generate_trace(&cfg).coflow(0), trace.coflow(0));
/// ```
pub fn generate_trace(config: &TraceConfig) -> Instance {
    let _span = obs::span("workloads.generate");
    obs::counter_add("workloads.trace.coflows", config.num_coflows as u64);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let m = config.ports;
    let size_dist = LogNormal::new(config.flow_size_mu, config.flow_size_sigma);
    let scale_dist = LogNormal::new(0.0, config.coflow_scale_sigma);
    let fan_dist = BoundedPareto::new(1.0, m as f64, config.fanout_alpha);

    let mut coflows = Vec::with_capacity(config.num_coflows);
    let mut arrival: f64 = 0.0;
    // Shuffle scratch reused across coflows (the per-coflow `(0..m)`
    // collect used to dominate generator allocations at large m); the RNG
    // draw sequence is unchanged, so traces stay bit-identical.
    let mut src = Vec::with_capacity(m);
    let mut dst = Vec::with_capacity(m);
    for id in 0..config.num_coflows {
        let mappers = (fan_dist.sample(&mut rng).round() as usize).clamp(1, m);
        let reducers = (fan_dist.sample(&mut rng).round() as usize).clamp(1, m);
        sample_ports_into(&mut rng, m, mappers, &mut src);
        sample_ports_into(&mut rng, m, reducers, &mut dst);
        let scale = if config.coflow_scale_sigma > 0.0 {
            scale_dist.sample(&mut rng)
        } else {
            1.0
        };
        let mut flows = Vec::with_capacity(src.len() * dst.len());
        for &i in &src {
            for &j in &dst {
                let mb = size_dist.sample(&mut rng) * scale;
                flows.push((i, j, (mb.round() as u64).clamp(1, config.max_flow_size)));
            }
        }
        let demand = Demand::from_flows(m, flows)
            .unwrap_or_else(|e| panic!("generated coflow {}: {}", id, e));
        let release = if config.zero_release {
            0
        } else {
            // Exponential inter-arrivals via inverse transform.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            arrival += -config.mean_interarrival * u.ln();
            arrival as u64
        };
        coflows.push(Coflow::new(id, demand).with_release(release));
    }
    Instance::new(m, coflows)
}

/// Uniform random subset of `count` distinct ports (partial Fisher–Yates)
/// into a caller-owned scratch buffer. Draws exactly `count` values from
/// `rng` regardless of the buffer's prior contents.
pub(crate) fn sample_ports_into<R: Rng + ?Sized>(
    rng: &mut R,
    m: usize,
    count: usize,
    ports: &mut Vec<usize>,
) {
    ports.clear();
    ports.extend(0..m);
    for i in 0..count {
        let j = rng.gen_range(i..m);
        ports.swap(i, j);
    }
    ports.truncate(count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let cfg = TraceConfig::small(7);
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        for (x, y) in a.coflows().iter().zip(b.coflows()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_trace(&TraceConfig::small(1));
        let b = generate_trace(&TraceConfig::small(2));
        let same = a
            .coflows()
            .iter()
            .zip(b.coflows())
            .all(|(x, y)| x.demand == y.demand);
        assert!(!same);
    }

    #[test]
    fn widths_are_heavy_tailed() {
        let cfg = TraceConfig {
            num_coflows: 300,
            ..TraceConfig::default()
        };
        let inst = generate_trace(&cfg);
        let widths: Vec<usize> = inst.coflows().iter().map(Coflow::width).collect();
        let narrow = widths.iter().filter(|&&w| w < 30).count();
        let wide = widths.iter().filter(|&&w| w >= 50).count();
        assert!(narrow > 100, "expected many narrow coflows, got {}", narrow);
        assert!(
            wide > 10,
            "expected some cluster-wide coflows, got {}",
            wide
        );
    }

    #[test]
    fn zero_release_config_releases_everything_at_zero() {
        let inst = generate_trace(&TraceConfig::small(3));
        assert!(inst.coflows().iter().all(|c| c.release == 0));
    }

    #[test]
    fn arrivals_are_increasing_when_enabled() {
        let cfg = TraceConfig {
            zero_release: false,
            ports: 20,
            num_coflows: 30,
            ..TraceConfig::small(9)
        };
        let inst = generate_trace(&cfg);
        let releases: Vec<u64> = inst.coflows().iter().map(|c| c.release).collect();
        let mut sorted = releases.clone();
        sorted.sort_unstable();
        assert_eq!(releases, sorted, "arrival order must be nondecreasing");
        assert!(*releases.last().unwrap() > 0);
    }

    #[test]
    fn flow_sizes_respect_cap() {
        let cfg = TraceConfig {
            max_flow_size: 64,
            ..TraceConfig::small(11)
        };
        let inst = generate_trace(&cfg);
        for c in inst.coflows() {
            for (_, _, d) in c.demand.nonzero_entries() {
                assert!((1..=64).contains(&d));
            }
        }
    }
}
