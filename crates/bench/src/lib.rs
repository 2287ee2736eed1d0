//! Experiment harness: regenerates every table and figure of §4 /
//! Appendix D of the paper on the synthetic Facebook-like trace.
//!
//! * [`grid`] — runs the 12-algorithm grid (3 orders × 4 scheduling cases);
//! * [`table1`] — Appendix D Table 1: normalized total weighted completion
//!   times across the `M0` filters and weight schemes;
//! * [`figures`] — Figure 2a (grouping/backfilling gains vs the base case)
//!   and Figure 2b (order comparison under grouping + backfilling);
//! * [`lowerbound`] — the §4.2 LP-EXP near-optimality certificate;
//! * [`ratios`] — measured approximation ratios against the exact optimum
//!   on tiny instances (validating Theorems 1–2 empirically);
//! * [`profile`] — per-stage timing/counter profile of the grid
//!   (`coflow-bench-grid/3`);
//! * [`explain`] — schedule forensics over the grid: per-coflow LP
//!   attribution, anomaly detectors, `coflow-diagnostics/1` reports;
//! * [`pins`] — bit-identical objective pins (`BENCH_pins.json`) of the
//!   engine's grid/online/greedy/fault cells;
//! * [`scale`] — the streaming scale sweep (`BENCH_scale.json`): windowed
//!   admission over [`coflow_workloads::stream`] workloads up to 10⁶
//!   coflows and 10,000 ports;
//! * [`gate`] — the one regression model: every committed report
//!   flattened to metric rows, one rule table, one `judge`; behind
//!   `experiments -- gate NAME`, `diff` and the dashboard's markers;
//! * [`report`] — plain-text table rendering.

pub mod arrivals;
pub mod chaos;
pub mod dash;
pub mod diff;
pub mod explain;
pub mod faults;
pub mod figures;
pub mod gate;
pub mod grid;
pub mod gridsweep;
pub mod integrality;
pub mod ledger;
pub mod lowerbound;
pub mod pins;
pub mod profile;
pub mod ratios;
pub mod report;
pub mod scale;
pub mod sink;
pub mod table1;
pub mod tournament;

use coflow_workloads::TraceConfig;

/// The trace configuration used by the headline experiments.
///
/// **Scale substitution (documented in EXPERIMENTS.md):** the paper's
/// cluster is 150 racks; the experiments here default to a 60-port fabric
/// with proportionally scaled coflow counts so that the interval-indexed LP
/// solves in seconds with the from-scratch simplex. The full 150-rack
/// generator is available via [`coflow_workloads::TraceConfig::default`].
pub fn paper_scale_config(seed: u64) -> TraceConfig {
    TraceConfig {
        ports: 60,
        num_coflows: 150,
        seed,
        flow_size_mu: 1.9,
        flow_size_sigma: 1.1,
        max_flow_size: 2048,
        coflow_scale_sigma: 2.2,
        fanout_alpha: 0.7,
        ..TraceConfig::default()
    }
}

/// A smaller configuration for criterion benchmarks and CI-speed tests.
pub fn bench_scale_config(seed: u64) -> TraceConfig {
    TraceConfig {
        ports: 24,
        num_coflows: 36,
        seed,
        flow_size_mu: 1.5,
        flow_size_sigma: 0.9,
        max_flow_size: 128,
        ..TraceConfig::default()
    }
}
