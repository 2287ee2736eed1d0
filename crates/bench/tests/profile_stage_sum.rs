//! The profile's exclusive stage times account for each cell's wall clock.
//!
//! This file holds exactly one test and therefore gets its own process:
//! `run_profile` resets and reads the process-global `obs` span registry,
//! which an instrumented test on a sibling thread would write into.

use coflow_bench::profile::run_profile;
use coflow_lp::SimplexOptions;
use coflow_workloads::{generate_trace, TraceConfig};

#[test]
fn exclusive_stages_sum_to_total() {
    // Schema /2 invariant: the ordering stage no longer swallows the LP
    // stages, and the `other` bucket absorbs un-instrumented work, so the
    // non-total stages account for at most `total` (plus 1 ms of clock
    // jitter). Every stage runs on the cell's own thread.
    let inst = generate_trace(&TraceConfig::small(7));
    let report = run_profile(&inst, 7, &SimplexOptions::default());
    assert_eq!(report.cells.len(), 12);
    for cell in &report.cells {
        let s = &cell.stages;
        let sum = s.lp_build_ms
            + s.lp_solve_ms
            + s.order_ms
            + s.decompose_ms
            + s.simulate_ms
            + s.other_ms;
        assert!(
            sum <= s.total_ms + 1.0,
            "stage sum {sum} exceeds total {} ({:?} case {})",
            s.total_ms,
            cell.spec.order,
            cell.spec.case_label(),
        );
        // The /1 bug: order included lp_build + lp_solve. Exclusive
        // accounting keeps them disjoint, so their sum fits in total.
        assert!(
            s.order_ms + s.lp_build_ms + s.lp_solve_ms <= s.total_ms + 1.0,
            "order must not double-count the LP stages"
        );
    }
}
