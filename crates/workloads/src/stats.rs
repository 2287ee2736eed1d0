//! Descriptive statistics of coflow traces.
//!
//! Used to sanity-check that the synthetic generator reproduces the
//! qualitative features of production traces the paper relies on: skewed
//! widths, heavy-tailed sizes, and load concentration on a few coflows.

use coflow::{Coflow, Instance};

/// Summary statistics of a trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Number of coflows.
    pub num_coflows: usize,
    /// Fabric size.
    pub ports: usize,
    /// Width (`M0`) percentiles: `[min, p25, p50, p75, max]`.
    pub width_percentiles: [usize; 5],
    /// Total-size percentiles in MB: `[min, p25, p50, p75, max]`.
    pub size_percentiles: [u64; 5],
    /// Fraction of the total load carried by the largest 10% of coflows.
    pub top_decile_load_share: f64,
    /// Gini coefficient of per-coflow total sizes (0 = equal, →1 = one
    /// coflow dominates).
    pub size_gini: f64,
    /// Mean ratio `ρ(D) / (total/m)` — how bottlenecked coflows are
    /// relative to perfectly spread demand.
    pub mean_skew: f64,
}

fn percentiles<T: Copy + Ord>(sorted: &[T]) -> [T; 5] {
    let n = sorted.len();
    assert!(n > 0, "percentiles of an empty trace");
    let at = |q: f64| sorted[(((n - 1) as f64) * q).round() as usize];
    [sorted[0], at(0.25), at(0.5), at(0.75), sorted[n - 1]]
}

/// Computes [`TraceStats`] for an instance. Panics on an empty instance.
pub fn trace_stats(instance: &Instance) -> TraceStats {
    let n = instance.len();
    assert!(n > 0, "empty trace");
    let mut widths: Vec<usize> = instance.coflows().iter().map(Coflow::width).collect();
    widths.sort_unstable();
    let mut sizes: Vec<u64> = instance.coflows().iter().map(Coflow::total_units).collect();
    sizes.sort_unstable();

    let total: u64 = sizes.iter().sum();
    let top_count = (n as f64 * 0.1).ceil() as usize;
    let top_load: u64 = sizes.iter().rev().take(top_count).sum();

    // Gini via the sorted-rank formula: G = (2 Σ_i i·x_i)/(n Σ x) − (n+1)/n
    // with 1-based ranks over ascending x.
    let gini = if total == 0 {
        0.0
    } else {
        let weighted: f64 = sizes
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
    };

    let m = instance.ports() as f64;
    let mean_skew = instance
        .coflows()
        .iter()
        .filter(|c| c.total_units() > 0)
        .map(|c| c.load() as f64 / (c.total_units() as f64 / m))
        .sum::<f64>()
        / instance
            .coflows()
            .iter()
            .filter(|c| c.total_units() > 0)
            .count()
            .max(1) as f64;

    TraceStats {
        num_coflows: n,
        ports: instance.ports(),
        width_percentiles: percentiles(&widths),
        size_percentiles: percentiles(&sizes),
        top_decile_load_share: if total == 0 {
            0.0
        } else {
            top_load as f64 / total as f64
        },
        size_gini: gini,
        mean_skew,
    }
}

/// Renders the statistics as a text block.
pub fn render_stats(s: &TraceStats) -> String {
    format!(
        "trace: {} coflows on {} ports\n\
         \x20 widths  (min/p25/p50/p75/max): {:?}\n\
         \x20 sizes MB(min/p25/p50/p75/max): {:?}\n\
         \x20 top-10% coflows carry {:.1}% of the load; size Gini {:.3}\n\
         \x20 mean bottleneck skew rho/(total/m): {:.2}\n",
        s.num_coflows,
        s.ports,
        s.width_percentiles,
        s.size_percentiles,
        100.0 * s.top_decile_load_share,
        s.size_gini,
        s.mean_skew
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facebook::{generate_trace, TraceConfig};
    use coflow_matching::IntMatrix;

    #[test]
    fn uniform_trace_has_low_gini() {
        let coflows = (0..10)
            .map(|id| Coflow::new(id, IntMatrix::diagonal(&[5, 5])))
            .collect();
        let inst = Instance::new(2, coflows);
        let s = trace_stats(&inst);
        assert!(s.size_gini < 0.01, "gini {}", s.size_gini);
        assert_eq!(s.width_percentiles, [2, 2, 2, 2, 2]);
        assert!((s.top_decile_load_share - 0.1).abs() < 1e-9);
    }

    #[test]
    fn dominated_trace_has_high_gini() {
        let mut coflows: Vec<Coflow> = (0..9)
            .map(|id| Coflow::new(id, IntMatrix::diagonal(&[1, 0])))
            .collect();
        coflows.push(Coflow::new(9, IntMatrix::diagonal(&[1000, 0])));
        let inst = Instance::new(2, coflows);
        let s = trace_stats(&inst);
        assert!(s.size_gini > 0.85, "gini {}", s.size_gini);
        assert!(s.top_decile_load_share > 0.98);
    }

    #[test]
    fn synthetic_trace_is_heavy_tailed_like_the_paper_describes() {
        let inst = generate_trace(&TraceConfig {
            num_coflows: 200,
            ..TraceConfig::default()
        });
        let s = trace_stats(&inst);
        // Load concentration: a small set of shuffles dominates.
        assert!(
            s.top_decile_load_share > 0.5,
            "top decile carries only {:.2}",
            s.top_decile_load_share
        );
        assert!(s.size_gini > 0.6, "gini {}", s.size_gini);
        // Widths span narrow to cluster-wide.
        assert!(s.width_percentiles[0] <= 4);
        assert!(s.width_percentiles[4] >= 100);
    }

    #[test]
    fn skew_of_single_flow_coflows_is_m() {
        // One nonzero entry: rho = total, so skew = m.
        let inst = Instance::new(4, vec![Coflow::new(0, IntMatrix::diagonal(&[7, 0, 0, 0]))]);
        let s = trace_stats(&inst);
        assert!((s.mean_skew - 4.0).abs() < 1e-9);
    }
}
