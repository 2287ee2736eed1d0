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
//! in DESIGN.md §4d). The `H_LP` case (d) cell — the paper's Algorithm 2 —
//! carries the full per-coflow attribution table; every other cell reports
//! ratio quantiles and anomalies. [`check`] holds a run to its bounds and
//! detector rules on the report it built.

use coflow::diagnostics::{
    diagnose, diagnose_faulty, Detector, DiagnosticsConfig, ScheduleDiagnostics, Severity,
};
use coflow::ordering::{compute_order, OrderRule};
use coflow::relax::{try_solve_interval_lp_with, LpRelaxation};
use coflow::sched::{run, run_with_order, ExecOptions};
use coflow::{
    run_policy_with_faults, AlgorithmSpec, Instance, ResilientPolicy, DETERMINISTIC_RATIO,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64};
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
        let plan = FaultPlan::generate(instance.ports(), instance.len(), horizon, rate, seed);
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
/// as raw fragments and only the header goes through
/// [`JsonDoc`](crate::sink::JsonDoc).
pub fn render_json(report: &ExplainReport) -> String {
    let mut out = String::from("[\n");
    for (idx, cell) in report.cells.iter().enumerate() {
        let d = &cell.diag;
        let (p50, p95, max) = ratio_quantiles(d);
        out.push_str("    {\n");
        let _ = writeln!(
            out,
            "      \"order\": {},",
            json::quote(cell.spec.order.name())
        );
        let _ = writeln!(
            out,
            "      \"case\": {},",
            json::quote(cell.spec.case_label())
        );
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
    let _ = writeln!(
        out,
        "    \"order\": {},",
        json::quote(att.spec.order.name())
    );
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
            let _ = writeln!(
                out,
                "  [{}] {}: {}",
                a.severity.name(),
                a.detector.name(),
                a.message
            );
        }
    }
    out
}

/// Holds a run to what `experiments explain` promises, on the report it
/// built:
///
/// * the attribution cell covers every coflow, each with a ratio
///   `C_k/C̄_k` in `[1 − RATIO_ROUNDING_SLACK, 67/3 + 1e-9]` (Theorem 1
///   against the LP bound of Lemma 1);
/// * no clean grid cell fires a detector at or above `severity`;
/// * with `expect_starvation`, the fault section fired the starvation
///   detector at least once; without it, the fault section is held to
///   `severity` like the clean grid.
///
/// Returns a one-line summary, or the first rule broken.
pub fn check(
    report: &ExplainReport,
    severity: Severity,
    expect_starvation: bool,
) -> Result<String, String> {
    let rows = &report.attribution_cell().diag.per_coflow;
    if rows.len() != report.coflows {
        return Err(format!(
            "attribution covers {} coflows, instance has {}",
            rows.len(),
            report.coflows
        ));
    }
    let mut max_ratio = 0.0f64;
    for (k, r) in rows.iter().enumerate() {
        let ratio = match r.ratio {
            Some(ratio) if r.coflow == k => ratio,
            _ => return Err(format!("coflow {}: missing from the attribution", k)),
        };
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

    let clean: usize = report
        .cells
        .iter()
        .map(|c| c.diag.anomalies_at_least(severity).count())
        .sum();
    let faults = report.faults.as_ref().map(|f| &f.diag);
    let faulted = faults.map_or(0, |d| d.anomalies_at_least(severity).count());
    let starved = faults.map_or(0, |d| {
        d.anomalies
            .iter()
            .filter(|a| a.detector == Detector::Starvation)
            .count()
    });
    if expect_starvation && starved == 0 {
        return Err("expected a starvation firing under faults, found none".to_string());
    }
    let firings = if expect_starvation {
        clean
    } else {
        clean + faulted
    };
    if firings > 0 {
        return Err(format!(
            "{} anomalies at or above severity '{}'",
            firings,
            severity.name()
        ));
    }
    let mut summary = format!(
        "{} coflows attributed, max ratio {:.3} <= {:.3}, clean grid silent at >= {}",
        rows.len(),
        max_ratio,
        DETERMINISTIC_RATIO,
        severity.name()
    );
    if faults.is_some() {
        let _ = write!(
            summary,
            "; faults fired {} at >= {} ({} starvation)",
            faulted,
            severity.name(),
            starved
        );
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow::diagnostics::{Anomaly, CoflowReport};
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

    /// The attribution rows of the paper's Algorithm 2 cell, for doctoring.
    fn attribution_mut(report: &mut ExplainReport) -> &mut Vec<CoflowReport> {
        let cell = report
            .cells
            .iter_mut()
            .find(|c| c.spec.order == OrderRule::LpBased && c.spec.grouping && c.spec.backfill)
            .expect("grid always contains H_LP case d");
        &mut cell.diag.per_coflow
    }

    #[test]
    fn explain_covers_the_grid_and_passes_its_check() {
        let report = tiny_report(None);
        assert_eq!(report.cells.len(), 12);
        let summary = check(&report, Severity::Info, false).expect("clean tiny report passes");
        assert!(summary.contains("coflows attributed"), "{}", summary);
        assert!(render_text(&report).contains("attribution"));
    }

    #[test]
    fn check_rejects_broken_reports() {
        let report = tiny_report(None);
        let rejects = |what: &str, expect_starvation: bool, doctor: &dyn Fn(&mut ExplainReport)| {
            let mut broken = report.clone();
            doctor(&mut broken);
            let err = check(&broken, Severity::Info, expect_starvation).expect_err(what);
            assert!(err.contains(what), "{}: {}", what, err);
            broken
        };
        rejects("exceeds the 67/3 guarantee", false, &|r| {
            attribution_mut(r)[0].ratio = Some(DETERMINISTIC_RATIO + 1e-6)
        });
        rejects("below the LP lower bound", false, &|r| {
            attribution_mut(r)[0].ratio = Some(1.0 - 1e-6)
        });
        rejects("attribution covers", false, &|r| {
            attribution_mut(r).pop();
        });
        rejects("coflow 2: missing", false, &|r| {
            attribution_mut(r)[2].ratio = None
        });
        let info = rejects("severity 'info'", false, &|r| {
            r.cells[0].diag.anomalies.push(Anomaly {
                detector: Detector::OrderingViolation,
                severity: Severity::Info,
                coflow: None,
                value: 0.3,
                threshold: 0.25,
                message: "doctored".to_string(),
            })
        });
        check(&info, Severity::Warning, false).expect("an info firing passes at warning");
        rejects("expected a starvation firing", true, &|_| {});
    }

    #[test]
    fn faulty_report_is_held_to_the_starvation_rule() {
        let report = tiny_report(Some(0.5));
        let doc = json::parse(&render_json(&report)).expect("faulty report parses");
        assert!(doc
            .get("faults")
            .is_some_and(|f| f.get("anomalies").is_some()));
        // Rate 0.5 starves a coflow of the tiny instance; the clean grid
        // stays silent.
        check(&report, Severity::Info, true).expect("starvation fired");
        // Without --expect-starvation the fault section is held to the
        // severity gate like the clean grid.
        let err = check(&report, Severity::Info, false).expect_err("faults fired");
        assert!(err.contains("at or above severity 'info'"), "{}", err);
        let mut quiet = report.clone();
        if let Some(f) = quiet.faults.as_mut() {
            f.diag
                .anomalies
                .retain(|a| a.detector != Detector::Starvation);
        }
        let err = check(&quiet, Severity::Info, true).expect_err("no starvation");
        assert!(err.contains("expected a starvation firing"), "{}", err);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
