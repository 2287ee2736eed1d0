//! The `explain` pipeline: schedule forensics over the 12-cell experiment
//! grid.
//!
//! Solves the interval-indexed LP once, runs every grid cell (orders
//! {H_A, H_ρ, H_LP} × cases {a, b, c, d}), and diagnoses each schedule
//! against the relaxation ([`coflow::diagnostics`]): per-coflow `C_k/C̄_k`
//! attribution, wait-versus-service splits, unforced-idle shares, and the
//! anomaly detectors. Optionally repeats under an injected fault plan,
//! where the starvation and recovery-regression detectors become live.
//!
//! The report serializes as `coflow-diagnostics/1` JSON (schema documented
//! in DESIGN.md §4d, validated by [`validate_report`] and
//! `scripts/check-explain.sh`). The `H_LP` case (d) cell — the paper's
//! Algorithm 2 — carries the full per-coflow attribution table; every
//! other cell reports ratio quantiles and anomalies.

use coflow::diagnostics::{diagnose, diagnose_faulty, DiagnosticsConfig, ScheduleDiagnostics};
use coflow::ordering::{compute_order, OrderRule};
use coflow::relax::{try_solve_interval_lp_with, LpRelaxation};
use coflow::sched::{run, run_with_order, ExecOptions};
use coflow::{
    run_policy_with_faults, AlgorithmSpec, Instance, ResilientPolicy, DETERMINISTIC_RATIO,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64, JsonValue};
use std::fmt::Write as _;

use crate::grid::CASES;

/// Schema tag of the diagnostics report; bump on breaking layout changes.
pub const SCHEMA: &str = "coflow-diagnostics/1";

/// Slack below 1.0 tolerated in per-coflow ratios: completions land on
/// integer slots while `C̄_k` sums fractional grid points, so a coflow
/// finishing "on time" can round a hair under its fractional bound.
pub const RATIO_ROUNDING_SLACK: f64 = 1e-9;

/// One diagnosed grid cell.
#[derive(Clone, Debug)]
pub struct ExplainCell {
    /// The grid cell: ordering rule, grouping and backfilling flags.
    pub spec: AlgorithmSpec,
    /// Full diagnostics for the cell's schedule.
    pub diag: ScheduleDiagnostics,
}

/// The fault-injected section of the report (present when a fault rate
/// was requested).
#[derive(Clone, Debug)]
pub struct FaultsSection {
    /// Fault rate fed to [`FaultPlan::generate`].
    pub rate: f64,
    /// Injected events.
    pub events: usize,
    /// Planning epochs.
    pub replans: usize,
    /// Planned units stranded by fault windows.
    pub blocked_units: u64,
    /// Coflows cancelled before completion.
    pub cancelled: usize,
    /// Diagnostics of the faulty execution (against the clean baseline).
    pub diag: ScheduleDiagnostics,
}

/// A complete explain run.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Trace seed.
    pub seed: u64,
    /// Fabric size.
    pub ports: usize,
    /// Number of coflows.
    pub coflows: usize,
    /// LP objective — the lower bound every cell is attributed against.
    pub lp_lower_bound: f64,
    /// The 12 cells, rule-major.
    pub cells: Vec<ExplainCell>,
    /// Fault-injected section, when requested.
    pub faults: Option<FaultsSection>,
}

impl ExplainReport {
    /// The attribution cell: `H_LP` case (d), the paper's Algorithm 2.
    pub fn attribution_cell(&self) -> &ExplainCell {
        self.cells
            .iter()
            .find(|c| c.spec.order == OrderRule::LpBased && c.spec.grouping && c.spec.backfill)
            .unwrap_or_else(|| unreachable!("grid always contains H_LP case d"))
    }

    /// Total anomaly firings across the clean grid cells.
    pub fn clean_anomalies(&self) -> usize {
        self.cells.iter().map(|c| c.diag.anomalies.len()).sum()
    }
}

/// Quantile of an unsorted sample by nearest-rank (q in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ratio quantiles `(p50, p95, max)` of one cell's per-coflow table.
pub fn ratio_quantiles(diag: &ScheduleDiagnostics) -> (f64, f64, f64) {
    let ratios: Vec<f64> = diag.per_coflow.iter().filter_map(|r| r.ratio).collect();
    let max = ratios.iter().copied().fold(0.0f64, f64::max);
    (quantile(&ratios, 0.5), quantile(&ratios, 0.95), max)
}

/// Runs the explain pipeline: LP once, 12 diagnosed cells, optional fault
/// section at `faults_rate` (uses `H_ρ` case (d) so replans stay cheap).
pub fn run_explain(
    instance: &Instance,
    seed: u64,
    lp_opts: &SimplexOptions,
    faults_rate: Option<f64>,
    cfg: &DiagnosticsConfig,
) -> ExplainReport {
    let _span = obs::span("bench.explain");
    let lp: LpRelaxation = match try_solve_interval_lp_with(instance, lp_opts) {
        Ok(lp) => lp,
        Err(e) => panic!("explain: interval LP failed: {}", e),
    };

    let mut cells = Vec::with_capacity(OrderRule::PAPER_RULES.len() * CASES.len());
    for &rule in &OrderRule::PAPER_RULES {
        let order = match rule {
            OrderRule::LpBased => lp.order.clone(),
            _ => compute_order(instance, rule),
        };
        for &(grouping, backfill) in &CASES {
            let opts = ExecOptions::paper(backfill);
            let outcome = run_with_order(instance, order.clone(), grouping, opts);
            let diag = diagnose(instance, &outcome, &lp, cfg);
            let spec = AlgorithmSpec {
                order: rule,
                grouping,
                backfill,
            };
            cells.push(ExplainCell { spec, diag });
        }
    }

    let faults = faults_rate.map(|rate| {
        let spec = AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        };
        let baseline = run(instance, &spec);
        let horizon = baseline.makespan().max(1);
        let plan =
            FaultPlan::generate(instance.ports(), instance.len(), horizon, rate, seed);
        let mut policy = ResilientPolicy::new(spec, lp_opts.clone());
        let out = run_policy_with_faults(instance, &mut policy, &plan)
            .unwrap_or_else(|e| panic!("explain: fault run hit an engine bug: {}", e));
        let cancelled = out.completions.iter().filter(|c| c.is_none()).count();
        let diag = diagnose_faulty(instance, &out, Some(&baseline), &lp, cfg);
        FaultsSection {
            rate,
            events: plan.events.len(),
            replans: out.replans,
            blocked_units: out.blocked_units,
            cancelled,
            diag,
        }
    });

    ExplainReport {
        seed,
        ports: instance.ports(),
        coflows: instance.len(),
        lp_lower_bound: lp.lower_bound,
        cells,
        faults,
    }
}

fn write_anomalies(out: &mut String, diag: &ScheduleDiagnostics, indent: &str) {
    out.push_str(indent);
    out.push_str("\"anomalies\": [");
    for (i, a) in diag.anomalies.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"detector\": {}, \"severity\": {}, \"coflow\": {}, \
             \"value\": {}, \"threshold\": {}, \"message\": {}}}",
            json::quote(a.detector.name()),
            json::quote(a.severity.name()),
            a.coflow.map_or("null".to_string(), |k| k.to_string()),
            fmt_f64(a.value),
            fmt_f64(a.threshold),
            json::quote(&a.message),
        );
    }
    out.push(']');
}

/// Serializes the report as `coflow-diagnostics/1` JSON. The exact byte
/// layout is pinned by the golden test, so the body sections are rendered
/// as raw fragments and only the header goes through [`JsonDoc`].
pub fn render_json(report: &ExplainReport) -> String {
    let mut out = String::from("[\n");
    for (idx, cell) in report.cells.iter().enumerate() {
        let d = &cell.diag;
        let (p50, p95, max) = ratio_quantiles(d);
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"order\": {},", json::quote(cell.spec.order.name()));
        let _ = writeln!(out, "      \"case\": {},", json::quote(cell.spec.case_label()));
        let _ = writeln!(out, "      \"grouping\": {},", cell.spec.grouping);
        let _ = writeln!(out, "      \"backfill\": {},", cell.spec.backfill);
        let _ = writeln!(out, "      \"objective\": {},", fmt_f64(d.objective));
        let _ = writeln!(out, "      \"makespan\": {},", d.makespan);
        let _ = writeln!(
            out,
            "      \"approx_ratio\": {},",
            d.approx_ratio.map_or("null".to_string(), fmt_f64)
        );
        let _ = writeln!(
            out,
            "      \"unforced_idle_share\": {},",
            fmt_f64(if d.makespan > 0 {
                d.nonconserving_slots as f64 / d.makespan as f64
            } else {
                0.0
            })
        );
        let _ = writeln!(
            out,
            "      \"idle_while_pending_share\": {},",
            fmt_f64(if d.offered > 0 {
                d.unforced_idle as f64 / d.offered as f64
            } else {
                0.0
            })
        );
        let _ = writeln!(
            out,
            "      \"lp_inversion_fraction\": {},",
            fmt_f64(d.lp_inversion_fraction)
        );
        let _ = writeln!(
            out,
            "      \"committed_inversion_fraction\": {},",
            fmt_f64(d.committed_inversion_fraction)
        );
        let _ = writeln!(out, "      \"ratio_p50\": {},", fmt_f64(p50));
        let _ = writeln!(out, "      \"ratio_p95\": {},", fmt_f64(p95));
        let _ = writeln!(out, "      \"ratio_max\": {},", fmt_f64(max));
        write_anomalies(&mut out, d, "      ");
        out.push('\n');
        out.push_str(if idx + 1 < report.cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]");
    let cells = out;

    // Full per-coflow attribution for the paper's Algorithm 2 cell.
    let att = report.attribution_cell();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "    \"order\": {},", json::quote(att.spec.order.name()));
    let _ = writeln!(out, "    \"case\": {},", json::quote(att.spec.case_label()));
    out.push_str("    \"per_coflow\": [\n");
    for (i, r) in att.diag.per_coflow.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"coflow\": {}, \"weight\": {}, \"release\": {}, \
             \"completion\": {}, \"lp_completion\": {}, \"ratio\": {}, \
             \"wait_slots\": {}, \"service_slots\": {}, \"blocked_slots\": {}, \
             \"preemptions\": {}, \"idle_share\": {}}}",
            r.coflow,
            fmt_f64(r.weight),
            r.release,
            r.completion.map_or("null".to_string(), |c| c.to_string()),
            fmt_f64(r.lp_completion),
            r.ratio.map_or("null".to_string(), fmt_f64),
            r.wait_slots,
            r.service_slots,
            r.blocked_slots,
            r.preemptions,
            fmt_f64(r.idle_share),
        );
        out.push_str(if i + 1 < att.diag.per_coflow.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("    ]\n  }");
    let attribution = out;

    let faults = match &report.faults {
        None => "null".to_string(),
        Some(f) => {
            let mut out = String::from("{\n");
            let _ = writeln!(out, "    \"rate\": {},", fmt_f64(f.rate));
            let _ = writeln!(out, "    \"events\": {},", f.events);
            let _ = writeln!(out, "    \"replans\": {},", f.replans);
            let _ = writeln!(out, "    \"blocked_units\": {},", f.blocked_units);
            let _ = writeln!(out, "    \"cancelled\": {},", f.cancelled);
            write_anomalies(&mut out, &f.diag, "    ");
            out.push_str("\n  }");
            out
        }
    };

    let mut doc = crate::sink::JsonDoc::new(SCHEMA);
    doc.num("seed", report.seed)
        .num("ports", report.ports)
        .num("coflows", report.coflows)
        .float("lp_lower_bound", report.lp_lower_bound)
        .raw("cells", cells)
        .raw("attribution", attribution)
        .raw("faults", faults);
    doc.render()
}

/// Plain-text rendering (stdout-friendly).
pub fn render_text(report: &ExplainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== explain: {} ports, {} coflows, seed {} ==",
        report.ports, report.coflows, report.seed
    );
    let _ = writeln!(out, "LP lower bound = {:.0}", report.lp_lower_bound);
    let _ = writeln!(
        out,
        "{:<6} {:<4} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "order", "case", "objective", "ratio", "nc%", "inv%", "r_p50", "r_p95", "anomalies"
    );
    for cell in &report.cells {
        let d = &cell.diag;
        let (p50, p95, _) = ratio_quantiles(d);
        let _ = writeln!(
            out,
            "{:<6} {:<4} {:>12.0} {:>7.3} {:>7.1} {:>7.1} {:>7.2} {:>7.2} {:>9}",
            cell.spec.order.name(),
            cell.spec.case_label(),
            d.objective,
            d.approx_ratio.unwrap_or(0.0),
            100.0 * d.nonconserving_slots as f64 / d.makespan.max(1) as f64,
            100.0 * d.committed_inversion_fraction,
            p50,
            p95,
            d.anomalies.len(),
        );
    }
    let att = report.attribution_cell();
    let (p50, p95, max) = ratio_quantiles(&att.diag);
    let _ = writeln!(
        out,
        "attribution ({} case {}): per-coflow C_k/C̄_k p50 {:.2}, p95 {:.2}, max {:.2} (bound {:.2})",
        att.spec.order.name(),
        att.spec.case_label(),
        p50,
        p95,
        max,
        DETERMINISTIC_RATIO,
    );
    if let Some(f) = &report.faults {
        let _ = writeln!(
            out,
            "faults: rate {:.2}, {} events, {} replans, {} blocked units, {} cancelled, {} anomalies",
            f.rate,
            f.events,
            f.replans,
            f.blocked_units,
            f.cancelled,
            f.diag.anomalies.len(),
        );
        for a in &f.diag.anomalies {
            let _ = writeln!(out, "  [{}] {}: {}", a.severity.name(), a.detector.name(), a.message);
        }
    }
    out
}

fn num_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn num_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Num(s) => s.parse().ok(),
        _ => None,
    }
}

/// Validation options for [`validate_report`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidateOpts {
    /// Require a faults section with at least one starvation firing.
    pub expect_starvation: bool,
}

/// Validates a serialized `coflow-diagnostics/1` report:
///
/// * the schema tag matches and all 12 grid cells are present;
/// * the attribution table covers every coflow, each ratio is ≥ 1 (up to
///   [`RATIO_ROUNDING_SLACK`]) and ≤ 67/3;
/// * a clean report (no faults section) carries zero anomalies;
/// * with [`ValidateOpts::expect_starvation`], the faults section exists
///   and fired the starvation detector at least once.
///
/// Returns a one-line summary on success.
pub fn validate_report(text: &str, opts: &ValidateOpts) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("parse: {}", e))?;
    match doc.get("schema") {
        Some(JsonValue::Str(s)) if s == SCHEMA => {}
        other => {
            return Err(format!(
                "unsupported schema {:?} (expected {})",
                other, SCHEMA
            ))
        }
    }
    let coflows = doc
        .get("coflows")
        .and_then(num_u64)
        .ok_or("missing 'coflows'")? as usize;
    let Some(JsonValue::Arr(cells)) = doc.get("cells") else {
        return Err("missing 'cells' array".to_string());
    };
    if cells.len() != 12 {
        return Err(format!("expected 12 grid cells, found {}", cells.len()));
    }
    let mut seen = Vec::new();
    let mut clean_anomalies = 0usize;
    let mut fired = Vec::new();
    for cell in cells {
        let order = match cell.get("order") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("cell missing 'order'".to_string()),
        };
        let case = match cell.get("case") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("cell missing 'case'".to_string()),
        };
        for key in ["objective", "approx_ratio", "ratio_p50", "ratio_p95", "ratio_max"] {
            if cell.get(key).is_none() {
                return Err(format!("cell {}/{} missing '{}'", order, case, key));
            }
        }
        let Some(JsonValue::Arr(anoms)) = cell.get("anomalies") else {
            return Err(format!("cell {}/{} missing 'anomalies'", order, case));
        };
        clean_anomalies += anoms.len();
        for a in anoms {
            if let Some(JsonValue::Str(d)) = a.get("detector") {
                let value = match a.get("value") {
                    Some(JsonValue::Num(v)) => v.clone(),
                    _ => "?".to_string(),
                };
                fired.push(format!("{}/{}:{}={}", order, case, d, value));
            }
        }
        seen.push((order, case));
    }
    for order in ["H_A", "H_rho", "H_LP"] {
        for case in ["a", "b", "c", "d"] {
            if !seen.iter().any(|(o, c)| o == order && c == case) {
                return Err(format!("grid cell {}/{} missing", order, case));
            }
        }
    }

    let att = doc.get("attribution").ok_or("missing 'attribution'")?;
    let Some(JsonValue::Arr(rows)) = att.get("per_coflow") else {
        return Err("attribution missing 'per_coflow' array".to_string());
    };
    if rows.len() != coflows {
        return Err(format!(
            "attribution covers {} coflows, instance has {}",
            rows.len(),
            coflows
        ));
    }
    let mut max_ratio = 0.0f64;
    for row in rows {
        let k = row.get("coflow").and_then(num_u64).ok_or("row missing 'coflow'")?;
        let ratio = row
            .get("ratio")
            .and_then(num_f64)
            .ok_or_else(|| format!("coflow {}: missing per-coflow ratio", k))?;
        if ratio < 1.0 - RATIO_ROUNDING_SLACK {
            return Err(format!(
                "coflow {}: ratio {} below the LP lower bound",
                k, ratio
            ));
        }
        if ratio > DETERMINISTIC_RATIO + 1e-9 {
            return Err(format!(
                "coflow {}: ratio {} exceeds the 67/3 guarantee",
                k, ratio
            ));
        }
        max_ratio = max_ratio.max(ratio);
    }

    let faults = doc.get("faults").ok_or("missing 'faults'")?;
    let starvation_firings = match faults {
        JsonValue::Null => {
            if clean_anomalies > 0 {
                return Err(format!(
                    "clean grid fired {} anomalies (expected 0): {}",
                    clean_anomalies,
                    fired.join(", ")
                ));
            }
            0
        }
        _ => {
            let Some(JsonValue::Arr(anoms)) = faults.get("anomalies") else {
                return Err("faults section missing 'anomalies'".to_string());
            };
            anoms
                .iter()
                .filter(|a| {
                    matches!(a.get("detector"), Some(JsonValue::Str(s)) if s == "starvation")
                })
                .count()
        }
    };
    if opts.expect_starvation && starvation_firings == 0 {
        return Err("expected at least one starvation firing, found none".to_string());
    }

    Ok(format!(
        "valid {}: 12 cells, {} coflows attributed, max ratio {:.3} <= {:.3}, \
         {} clean anomalies, {} starvation firings",
        SCHEMA, coflows, max_ratio, DETERMINISTIC_RATIO, clean_anomalies, starvation_firings
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{generate_trace, TraceConfig};

    fn tiny_report(faults: Option<f64>) -> ExplainReport {
        let inst = generate_trace(&TraceConfig::small(7));
        run_explain(
            &inst,
            7,
            &SimplexOptions::default(),
            faults,
            &DiagnosticsConfig::default(),
        )
    }

    #[test]
    fn explain_covers_the_grid_and_validates() {
        let report = tiny_report(None);
        assert_eq!(report.cells.len(), 12);
        let rendered = render_json(&report);
        let summary = validate_report(&rendered, &ValidateOpts::default())
            .expect("clean tiny report must validate");
        assert!(summary.contains("12 cells"));
        assert!(render_text(&report).contains("attribution"));
    }

    #[test]
    fn attribution_ratios_respect_the_theorem() {
        let report = tiny_report(None);
        let att = report.attribution_cell();
        for r in &att.diag.per_coflow {
            let ratio = r.ratio.expect("clean run attributes every coflow");
            assert!(ratio >= 1.0 - RATIO_ROUNDING_SLACK, "ratio {} < 1", ratio);
            assert!(ratio <= DETERMINISTIC_RATIO + 1e-9, "ratio {} > 67/3", ratio);
        }
    }

    #[test]
    fn faulty_report_round_trips() {
        let report = tiny_report(Some(0.5));
        let f = report.faults.as_ref().expect("faults section requested");
        assert!(f.rate > 0.0);
        let rendered = render_json(&report);
        // Faulty reports stay schema-valid (starvation may or may not have
        // fired at this tiny scale; don't require it here).
        validate_report(&rendered, &ValidateOpts::default())
            .expect("faulty report must stay schema-valid");
    }

    #[test]
    fn validator_rejects_broken_reports() {
        let report = tiny_report(None);
        let rendered = render_json(&report);
        assert!(validate_report("{\"schema\": \"other/1\"}", &ValidateOpts::default()).is_err());
        // Tampering a ratio above the bound must fail validation.
        let broken = rendered.replacen("\"ratio\": 1", "\"ratio\": 99", 1);
        if broken != rendered {
            assert!(validate_report(&broken, &ValidateOpts::default()).is_err());
        }
        // Expecting starvation on a clean report must fail.
        let opts = ValidateOpts { expect_starvation: true };
        assert!(validate_report(&rendered, &opts).is_err());
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
