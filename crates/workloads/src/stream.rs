//! Streaming, spatially-skewed workload generation.
//!
//! The instance generator ([`crate::facebook`]) materializes an entire
//! [`coflow::Instance`] — every coflow with its demand — which caps it at
//! what one run keeps in memory. The scale experiments need *millions* of
//! coflows over fabrics of up to 10,000 ports, so this module yields
//! coflows one at a time as flow lists in draw order. `coflow-bench`'s
//! `scale::stream_policy` draws one admission window, builds that
//! window's `Instance` (each flow list through `Demand::from_flows`),
//! schedules it with a registry policy on the engine, and drops it before
//! drawing the next: a 10⁶-coflow run holds one window in memory at any
//! moment, and the full trace never exists.
//!
//! Spatial skew follows the parsimon-eval flowgen/spatial recipe: ports
//! are carved into racks, each coflow picks a home rack, and every
//! endpoint draw keeps probability `rack_affinity` inside the home rack
//! (uniform over the remaining fabric otherwise). Affinity 0 reproduces
//! the uniform port-sampling of the instance generator; affinity near 1
//! concentrates load on rack-local bottlenecks the way real cluster
//! traces do.
//!
//! Determinism: the stream is a pure function of its config — one
//! `StdRng` seeded from `config.seed`, drawn in a fixed per-coflow order —
//! so any prefix of the stream is reproducible regardless of how far the
//! consumer iterates.

use crate::distributions::{BoundedPareto, LogNormal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One streamed coflow: its flows in draw order plus the scalars the
/// scheduler needs.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseCoflow {
    /// Sequential id (position in the stream).
    pub id: usize,
    /// Flows as `(src, dst, units)`, grouped by source in draw order;
    /// pairs are distinct.
    pub flows: Vec<(usize, usize, u64)>,
    /// Release slot (nondecreasing along the stream).
    pub release: u64,
    /// Completion-time weight.
    pub weight: f64,
}

/// Configuration of a [`CoflowStream`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Fabric size (ingress = egress = `ports`).
    pub ports: usize,
    /// Number of coflows to yield.
    pub num_coflows: usize,
    /// RNG seed; the stream is a pure function of the config.
    pub seed: u64,
    /// Ports per rack (last rack may be smaller). 0 disables racks.
    pub rack_size: usize,
    /// Probability that an endpoint lands in the coflow's home rack.
    pub rack_affinity: f64,
    /// Log-normal `μ` of per-flow size (units).
    pub flow_size_mu: f64,
    /// Log-normal `σ` of per-flow size.
    pub flow_size_sigma: f64,
    /// Per-flow size cap.
    pub max_flow_size: u64,
    /// Bounded-Pareto tail index for mapper/reducer fan-out.
    pub fanout_alpha: f64,
    /// Fan-out cap (≤ ports; 0 means `ports`).
    pub max_fanout: usize,
    /// Mean slots between arrivals (exponential inter-arrival).
    pub mean_interarrival: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ports: 1000,
            num_coflows: 10_000,
            seed: 0x5CA1E,
            rack_size: 40,
            rack_affinity: 0.6,
            flow_size_mu: 2.3,
            flow_size_sigma: 1.3,
            max_flow_size: 2048,
            fanout_alpha: 1.1,
            max_fanout: 64,
            mean_interarrival: 8.0,
        }
    }
}

/// Iterator yielding [`SparseCoflow`]s; see the module docs.
pub struct CoflowStream {
    cfg: StreamConfig,
    rng: StdRng,
    size_dist: LogNormal,
    fan_dist: BoundedPareto,
    arrival: f64,
    next_id: usize,
    // Endpoint-draw scratch reused across coflows.
    src: Vec<usize>,
    dst: Vec<usize>,
}

impl CoflowStream {
    /// Opens a stream over `cfg`.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.ports > 0, "stream needs at least one port");
        let max_fan = if cfg.max_fanout == 0 {
            cfg.ports
        } else {
            cfg.max_fanout.min(cfg.ports)
        };
        let size_dist = LogNormal::new(cfg.flow_size_mu, cfg.flow_size_sigma);
        let fan_dist = BoundedPareto::new(1.0, max_fan as f64, cfg.fanout_alpha);
        CoflowStream {
            rng: StdRng::seed_from_u64(cfg.seed),
            size_dist,
            fan_dist,
            arrival: 0.0,
            next_id: 0,
            src: Vec::new(),
            dst: Vec::new(),
            cfg,
        }
    }

    /// Number of racks the fabric is carved into (≥ 1).
    pub fn num_racks(&self) -> usize {
        if self.cfg.rack_size == 0 {
            1
        } else {
            self.cfg.ports.div_ceil(self.cfg.rack_size)
        }
    }

    /// Draws `count` distinct endpoints into `out`: each draw keeps
    /// probability `rack_affinity` inside `[rack_lo, rack_hi)` and is
    /// uniform over the fabric otherwise, rejecting duplicates.
    fn draw_endpoints(&mut self, count: usize, rack_lo: usize, rack_hi: usize, into_src: bool) {
        let m = self.cfg.ports;
        let out = if into_src {
            &mut self.src
        } else {
            &mut self.dst
        };
        out.clear();
        while out.len() < count {
            let p = if self.cfg.rack_size > 0
                && rack_hi > rack_lo
                && self.rng.gen::<f64>() < self.cfg.rack_affinity
            {
                self.rng.gen_range(rack_lo..rack_hi)
            } else {
                self.rng.gen_range(0..m)
            };
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
}

impl Iterator for CoflowStream {
    type Item = SparseCoflow;

    fn next(&mut self) -> Option<SparseCoflow> {
        if self.next_id >= self.cfg.num_coflows {
            return None;
        }
        let m = self.cfg.ports;
        let mappers = (self.fan_dist.sample(&mut self.rng).round() as usize).clamp(1, m);
        let reducers = (self.fan_dist.sample(&mut self.rng).round() as usize).clamp(1, m);
        // Home rack of this coflow.
        let (rack_lo, rack_hi) = if self.cfg.rack_size > 0 {
            let rack = self.rng.gen_range(0..self.num_racks());
            let lo = rack * self.cfg.rack_size;
            (lo, (lo + self.cfg.rack_size).min(m))
        } else {
            (0, 0)
        };
        self.draw_endpoints(mappers, rack_lo, rack_hi, true);
        self.draw_endpoints(reducers, rack_lo, rack_hi, false);
        let mut flows = Vec::with_capacity(mappers * reducers);
        for si in 0..mappers {
            for di in 0..reducers {
                let mb = self.size_dist.sample(&mut self.rng);
                let units = (mb.round() as u64).clamp(1, self.cfg.max_flow_size);
                flows.push((self.src[si], self.dst[di], units));
            }
        }
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        self.arrival += -self.cfg.mean_interarrival * u.ln();
        let coflow = SparseCoflow {
            id: self.next_id,
            flows,
            release: self.arrival as u64,
            weight: 1.0,
        };
        self.next_id += 1;
        Some(coflow)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.num_coflows - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CoflowStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> StreamConfig {
        StreamConfig {
            ports: 50,
            num_coflows: 200,
            seed: 11,
            rack_size: 10,
            rack_affinity: 0.7,
            max_fanout: 8,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<SparseCoflow> = CoflowStream::new(small_cfg()).collect();
        let b: Vec<SparseCoflow> = CoflowStream::new(small_cfg()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn prefix_is_independent_of_consumption_depth() {
        let full: Vec<SparseCoflow> = CoflowStream::new(small_cfg()).collect();
        let prefix: Vec<SparseCoflow> = CoflowStream::new(small_cfg()).take(17).collect();
        assert_eq!(&full[..17], &prefix[..]);
    }

    #[test]
    fn flows_are_distinct_pairs_within_bounds() {
        for c in CoflowStream::new(small_cfg()) {
            let mut pairs: Vec<(usize, usize)> = c.flows.iter().map(|&(i, j, _)| (i, j)).collect();
            let len = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), len, "duplicate pair in coflow {}", c.id);
            for &(i, j, u) in &c.flows {
                assert!(i < 50 && j < 50);
                assert!(u >= 1 && u <= StreamConfig::default().max_flow_size);
            }
        }
    }

    #[test]
    fn releases_are_nondecreasing() {
        let mut last = 0u64;
        for c in CoflowStream::new(small_cfg()) {
            assert!(c.release >= last);
            last = c.release;
        }
    }

    #[test]
    fn rack_affinity_concentrates_endpoints() {
        // With affinity 1.0 and fan-outs capped at the rack size, every
        // endpoint of a coflow stays inside one rack.
        let cfg = StreamConfig {
            ports: 100,
            num_coflows: 50,
            seed: 3,
            rack_size: 10,
            rack_affinity: 1.0,
            max_fanout: 5,
            ..StreamConfig::default()
        };
        for c in CoflowStream::new(cfg) {
            let racks: std::collections::BTreeSet<usize> = c
                .flows
                .iter()
                .flat_map(|&(i, j, _)| [i / 10, j / 10])
                .collect();
            assert_eq!(racks.len(), 1, "coflow {} spans racks {:?}", c.id, racks);
        }
    }

    #[test]
    fn zero_affinity_spreads_load() {
        // Uniform sampling across 10 racks: a few hundred endpoints land in
        // nearly every rack.
        let cfg = StreamConfig {
            ports: 100,
            num_coflows: 100,
            seed: 5,
            rack_size: 10,
            rack_affinity: 0.0,
            max_fanout: 8,
            ..StreamConfig::default()
        };
        let racks: std::collections::BTreeSet<usize> = CoflowStream::new(cfg)
            .flat_map(|c| {
                c.flows
                    .iter()
                    .flat_map(|&(i, j, _)| [i / 10, j / 10])
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(racks.len() >= 8, "only {} racks hit", racks.len());
    }
}
