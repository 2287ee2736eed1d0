//! Cross-run regression diffing (`coflow-diff/1`).
//!
//! [`diff_metrics`] compares two flattened sides — ledger records
//! ([`crate::gate::flatten_record`]) or committed reports
//! ([`crate::gate::flatten`]) — with [`crate::gate::judge`] under the
//! `diff` scope of the rule table, and lays the judged rows out along the
//! format's sections:
//!
//! * **stage** — `Wall` rows: regressed past the tolerance *and* the
//!   table's 10 ms floor;
//! * **objective** — `Exact` rows, compared **bit-exactly**
//!   (`f64::to_bits`): the schedulers are deterministic, so any drift at
//!   all is a behavioral change, not noise;
//! * **mem** — `Alloc` rows under the allocation-call and byte floors;
//! * **info** — compared, never regressed (peak RSS, elapsed time).
//!
//! Rows present on only one side are listed as unmatched, not judged.
//! Rendering (table, JSON document) lives here; the exit code lives with
//! the caller in `experiments.rs`, so `diff` doubles as a gate.

use crate::gate::{judge, rule, Kind, Metric, Scope};
use crate::sink::JsonDoc;
use coflow_workloads::json::{self, fmt_f64};
use obs::ledger::LedgerRecord;
use std::fmt::Write as _;

/// Schema tag of the rendered diff report.
pub const DIFF_SCHEMA: &str = "coflow-diff/1";

/// The tolerance of the `diff` scope's rule-table rows, used when no
/// `--tolerance` is given.
pub fn default_tolerance() -> f64 {
    rule("diff", Kind::Wall, "")
        .expect("RULES has a diff Wall row")
        .tolerance
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Section: `stage`, `objective`, `mem`, or `info`.
    pub section: &'static str,
    /// Metric key.
    pub name: String,
    /// Value in A (baseline side).
    pub a: f64,
    /// Value in B (current side).
    pub b: f64,
    /// True when B regresses past the section's threshold.
    pub regressed: bool,
}

/// A full diff: the two compared sides plus one row per shared metric.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Baseline-side identity (selector or path, plus seq when a ledger
    /// record).
    pub a_id: String,
    /// Current-side identity.
    pub b_id: String,
    /// Tolerance the stage/mem sections were judged against.
    pub tolerance: f64,
    /// Every compared metric, section-major.
    pub rows: Vec<DiffRow>,
    /// Metrics present on only one side (named, never silently dropped).
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// Regressed rows, section-major — what the exit code is based on.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

/// The identity a ledger record is shown under: selector, seq, command.
pub fn record_id(rec: &LedgerRecord, selector: &str) -> String {
    format!("{} (seq {}, {})", selector, rec.seq, rec.command)
}

/// Compares side A (baseline) against side B (current) at `tolerance`.
pub fn diff_metrics(
    a: &[Metric],
    b: &[Metric],
    a_id: &str,
    b_id: &str,
    tolerance: f64,
) -> DiffReport {
    let scope = Scope {
        name: "diff",
        tolerance: Some(tolerance),
    };
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for j in judge(a, b, scope) {
        let section = j.kind.section();
        match (j.baseline, j.current) {
            (Some(a), Some(b)) => rows.push(DiffRow {
                section,
                name: j.key,
                a,
                b,
                regressed: j.regressed,
            }),
            (Some(_), None) => unmatched.push(format!("{}:{} (A only)", section, j.key)),
            _ => unmatched.push(format!("{}:{} (B only)", section, j.key)),
        }
    }
    DiffReport {
        a_id: a_id.to_string(),
        b_id: b_id.to_string(),
        tolerance,
        rows,
        unmatched,
    }
}

/// Convenience wrapper for two ledger records.
pub fn diff_records(
    a: &LedgerRecord,
    b: &LedgerRecord,
    a_id: &str,
    b_id: &str,
    tolerance: f64,
) -> DiffReport {
    diff_metrics(
        &crate::gate::flatten_record(a),
        &crate::gate::flatten_record(b),
        &record_id(a, a_id),
        &record_id(b, b_id),
        tolerance,
    )
}

/// Renders the human-readable diff table: one row per metric, regressions
/// marked `<< REGRESSED`, unmatched metrics listed at the end.
pub fn render_diff_table(report: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "diff A={} vs B={}", report.a_id, report.b_id);
    let _ = writeln!(out, "tolerance {:.0}%", report.tolerance * 100.0);
    let _ = writeln!(
        out,
        "{:<10} {:>26} {:>14} {:>14} {:>9}",
        "section", "metric", "A", "B", "delta"
    );
    for row in &report.rows {
        let delta = if row.a == 0.0 {
            if row.b == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (row.b - row.a) / row.a * 100.0
        };
        let _ = writeln!(
            out,
            "{:<10} {:>26} {:>14.2} {:>14.2} {:>+8.1}%{}",
            row.section,
            row.name,
            row.a,
            row.b,
            delta,
            if row.regressed { "  << REGRESSED" } else { "" }
        );
    }
    for name in &report.unmatched {
        let _ = writeln!(out, "unmatched  {}", name);
    }
    let regs = report.regressions();
    if regs.is_empty() {
        let _ = writeln!(out, "verdict: OK ({} metrics compared)", report.rows.len());
    } else {
        let _ = writeln!(
            out,
            "verdict: {} regression(s): {}",
            regs.len(),
            regs.iter()
                .map(|r| format!("{}:{}", r.section, r.name))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    out
}

/// Renders the diff as a `coflow-diff/1` JSON document (via [`JsonDoc`],
/// so it carries the shared provenance header listing all compared
/// schemas).
pub fn render_diff_json(report: &DiffReport, a_schema: &str, b_schema: &str) -> String {
    let mut doc = JsonDoc::new(DIFF_SCHEMA);
    doc.add_schemas(&[a_schema, b_schema]);
    doc.text("a", &report.a_id)
        .text("b", &report.b_id)
        .float("tolerance", report.tolerance)
        .num("regressions", report.regressions().len());
    let mut rows = String::from("[\n");
    for (i, row) in report.rows.iter().enumerate() {
        let _ = write!(
            rows,
            "    {{\"section\": {}, \"metric\": {}, \"a\": {}, \"b\": {}, \
             \"a_bits\": {}, \"b_bits\": {}, \"regressed\": {}}}",
            json::quote(row.section),
            json::quote(&row.name),
            fmt_f64(row.a),
            fmt_f64(row.b),
            row.a.to_bits(),
            row.b.to_bits(),
            row.regressed,
        );
        rows.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    rows.push_str("  ]");
    doc.raw("rows", rows);
    let unmatched: Vec<String> = report.unmatched.iter().map(|u| json::quote(u)).collect();
    doc.raw("unmatched", format!("[{}]", unmatched.join(", ")));
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::json::JsonValue;
    use obs::ledger::LEDGER_SCHEMA;

    fn side(stages: &[(&str, f64)], objectives: &[(&str, f64)]) -> Vec<Metric> {
        let row = |kind| {
            move |&(k, v): &(&str, f64)| Metric {
                key: k.to_string(),
                kind,
                value: v,
            }
        };
        let mut rows: Vec<Metric> = stages.iter().map(row(Kind::Wall)).collect();
        rows.extend(objectives.iter().map(row(Kind::Exact)));
        rows
    }

    fn diff(a: &[Metric], b: &[Metric], tolerance: f64) -> DiffReport {
        diff_metrics(a, b, "a", "b", tolerance)
    }

    #[test]
    fn identical_sides_diff_clean() {
        let a = side(&[("lp_solve", 100.0)], &[("H_LP/d", 6950481.0)]);
        let report = diff(&a, &a, default_tolerance());
        assert!(report.regressions().is_empty());
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn stage_regression_needs_both_ratio_and_floor() {
        // +30% over 0.2 tolerance AND past the 10 ms floor: regressed.
        let a = side(&[("lp_solve", 100.0)], &[]);
        let b = side(&[("lp_solve", 130.0)], &[]);
        let report = diff(&a, &b, 0.2);
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, "lp_solve");
        // Same ratio under the floor: clean (sub-10ms noise).
        let a = side(&[("lp_solve", 10.0)], &[]);
        let b = side(&[("lp_solve", 13.0)], &[]);
        assert!(diff(&a, &b, 0.2).regressions().is_empty());
        // Over the floor but inside tolerance: clean.
        let a = side(&[("lp_solve", 100.0)], &[]);
        let b = side(&[("lp_solve", 115.0)], &[]);
        assert!(diff(&a, &b, 0.2).regressions().is_empty());
    }

    #[test]
    fn objectives_are_judged_bit_exactly_both_directions() {
        let base = 6950481.0f64;
        let flipped = f64::from_bits(base.to_bits() ^ 1);
        let a = side(&[], &[("H_LP/d", base)]);
        let b = side(&[], &[("H_LP/d", flipped)]);
        assert_eq!(diff(&a, &b, default_tolerance()).regressions().len(), 1);
        // An *improvement* is still a flagged change — determinism drift.
        assert_eq!(diff(&b, &a, default_tolerance()).regressions().len(), 1);
    }

    #[test]
    fn one_sided_metrics_are_reported_not_judged() {
        let a = side(&[("lp_solve", 100.0)], &[]);
        let b = side(&[("simulate", 50.0)], &[]);
        let report = diff(&a, &b, default_tolerance());
        assert!(report.rows.is_empty());
        assert_eq!(
            report.unmatched,
            ["stage:lp_solve (A only)", "stage:simulate (B only)"]
        );
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn mem_rows_use_per_metric_floors() {
        let mem = |calls: f64, bytes: f64| {
            vec![
                Metric {
                    key: "allocs:lp_solve".into(),
                    kind: Kind::Alloc,
                    value: calls,
                },
                Metric {
                    key: "alloc_bytes:lp_solve".into(),
                    kind: Kind::Alloc,
                    value: bytes,
                },
            ]
        };
        // +50k calls, +50% — past the 10k alloc floor: regressed.
        // +50k bytes, +50% — under the 1 MiB byte floor: clean.
        let report = diff(&mem(100_000.0, 100_000.0), &mem(150_000.0, 150_000.0), 0.2);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "allocs:lp_solve");
    }

    #[test]
    fn json_report_round_trips_and_names_regressions() {
        obs::ledger::set_zero_provenance(true);
        let a = side(&[("lp_solve", 100.0)], &[("H_LP/d", 1.0)]);
        let b = side(&[("lp_solve", 130.0)], &[("H_LP/d", 1.0)]);
        let report = diff(&a, &b, 0.2);
        let text = render_diff_json(&report, LEDGER_SCHEMA, LEDGER_SCHEMA);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema"), Some(&JsonValue::Str(DIFF_SCHEMA.into())));
        assert_eq!(doc.get("regressions"), Some(&JsonValue::Num("1".into())));
        let table = render_diff_table(&report);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("stage:lp_solve"));
    }
}
