//! A one-cell scale run is judged against the matching cell of a full
//! curve, and a run of a cell the curve lacks is an error.
//!
//! This file holds exactly one test and therefore gets its own process:
//! the comparison gates allocation counts, which are deltas of the
//! process-global counting allocator that a sibling test thread would
//! inflate.

use coflow_bench::scale::{
    cell_label, compare_scale, render_scale_json, run_scale, run_scale_cell, ScaleReport,
};

#[test]
fn gate_subset_matches_against_the_full_curve() {
    let full = render_scale_json(&run_scale(&[(16, 60), (200, 120)], 11, 32));
    let subset = render_scale_json(&ScaleReport {
        seed: 11,
        window: 32,
        cells: vec![run_scale_cell(200, 120, 11, 32)],
    });
    let deltas = compare_scale(&full, &subset, 0.2, 0.25).expect("compare");
    assert_eq!(deltas.len(), 4);
    assert!(deltas.iter().all(|d| d.cell == cell_label(200, 120)));
    // Objective is bit-stable across separate runs of the same cell.
    assert!(deltas.iter().all(|d| !d.regressed || d.metric == "wall_ms"));
    // Disjoint cells are an error, not a silent pass.
    let foreign = render_scale_json(&ScaleReport {
        seed: 11,
        window: 32,
        cells: vec![run_scale_cell(300, 40, 11, 32)],
    });
    assert!(compare_scale(&full, &foreign, 0.2, 0.25).is_err());
}
