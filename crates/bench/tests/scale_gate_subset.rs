//! `gate scale`'s cell selection: a one-cell run is judged against the
//! matching cell of a full curve, and a run of a cell the curve lacks is
//! an error.
//!
//! This file holds exactly one test and therefore gets its own process:
//! the comparison gates allocation counts, which are deltas of the
//! process-global counting allocator that a sibling test thread would
//! inflate.

use coflow_bench::gate::{check, gate, GateError, Kind};
use coflow_bench::scale::{cell_label, render_scale_json, run_scale, run_scale_cell, ScaleReport};

#[test]
fn gate_subset_matches_against_the_full_curve() {
    let full = run_scale(&[(16, 60), (200, 120)], 11, 32).expect("curve runs");
    let full = render_scale_json(&full);
    let subset = render_scale_json(&ScaleReport {
        seed: 11,
        window: 32,
        cells: vec![run_scale_cell(200, 120, 11, 32).expect("cell runs")],
    });
    let gate = gate("scale").expect("scale gate");
    let rows = check(gate, &full, &subset).expect("judge");
    // The curve's other cell is not judged: every row has both sides, and
    // every per-cell row is the run's cell.
    assert!(rows.iter().all(|r| !r.one_sided()), "{:?}", rows);
    let cell = cell_label(200, 120);
    assert_eq!(rows.iter().filter(|r| r.key.contains("m=")).count(), 5);
    assert!(rows
        .iter()
        .filter(|r| r.key.contains("m="))
        .all(|r| r.key.ends_with(&cell)));
    // Objective and makespan are bit-stable across separate runs of the
    // same cell; only wall-clock may move.
    assert!(
        rows.iter().all(|r| !r.regressed || r.kind == Kind::Wall),
        "{:?}",
        rows
    );
    // Disjoint cells are an error, not a silent pass.
    let foreign = render_scale_json(&ScaleReport {
        seed: 11,
        window: 32,
        cells: vec![run_scale_cell(300, 40, 11, 32).expect("cell runs")],
    });
    assert_eq!(
        check(gate, &full, &foreign),
        Err(GateError::CellMissing(cell_label(300, 40)))
    );
}
