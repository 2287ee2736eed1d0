//! Golden `coflow-diagnostics/1` report: the explain pipeline on a tiny
//! seeded workload must render byte-identically run over run. Any
//! intentional schema or metric change regenerates the golden with
//! `GOLDEN_UPDATE=1 cargo test -p coflow-bench --test explain_golden`.

use coflow::{DiagnosticsConfig, Severity};
use coflow_bench::explain::{check, render_json, run_explain};
use coflow_lp::SimplexOptions;
use coflow_workloads::{generate_trace, TraceConfig};

#[test]
fn diagnostics_report_matches_golden() {
    // The provenance header is zeroed so the golden stays byte-stable
    // across commits and working-tree states.
    obs::ledger::set_zero_provenance(true);
    let instance = generate_trace(&TraceConfig::small(7));
    let report = run_explain(
        &instance,
        7,
        &SimplexOptions::default(),
        None,
        &DiagnosticsConfig::default(),
    );
    // The golden run must itself pass the explain check — ratios within
    // [1, 67/3], every coflow attributed, no detector firing — or the
    // golden would lock in a regression.
    check(&report, Severity::Info, false).expect("golden run must pass the explain check");
    let rendered = render_json(&report);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnostics.json");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = include_str!("golden/diagnostics.json");
    assert_eq!(
        rendered, golden,
        "diagnostics report drifted from the golden file; \
         run with GOLDEN_UPDATE=1 to regenerate intentionally"
    );
}
