//! Bench-side glue for the run ledger: path resolution, record builders
//! from the crate's report structures, and the record selectors the
//! `diff`/`report` subcommands accept.
//!
//! The ledger itself — schema, rendering, append discipline — lives in
//! [`obs::ledger`]; this module only knows how to turn a
//! [`ProfileReport`], a [`PinReport`], or a gate outcome into one
//! self-contained [`LedgerRecord`], and how to pick records back out of a
//! loaded history (`latest`, `prev`, `~N`, `#SEQ`, `green`).

use crate::pins::PinReport;
use crate::profile::{ProfileReport, MEM_STAGES, STAGES};
use obs::ledger::LedgerRecord;

/// Default ledger file, relative to the working directory. Overridden by
/// `--ledger PATH` or the `COFLOW_LEDGER` environment variable; the
/// values `none` / `off` disable appending entirely.
pub const DEFAULT_LEDGER: &str = "LEDGER.ndjson";

/// Resolves the ledger path from CLI flag > `COFLOW_LEDGER` > default.
/// Returns `None` when ledger writing is disabled.
pub fn ledger_path(flag: Option<&str>) -> Option<String> {
    let chosen = match flag {
        Some(f) => f.to_string(),
        None => std::env::var("COFLOW_LEDGER").unwrap_or_else(|_| DEFAULT_LEDGER.to_string()),
    };
    if chosen == "none" || chosen == "off" {
        None
    } else {
        Some(chosen)
    }
}

/// A minimal run record: command + workload identity + wall clock +
/// whole-process memory marks. The builders below start here and attach
/// their per-stage and per-cell payloads.
pub fn base_record(command: &str, label: &str, seed: u64, fingerprint: &str) -> LedgerRecord {
    let stats = obs::alloc::stats();
    LedgerRecord {
        kind: "run".to_string(),
        command: command.to_string(),
        label: label.to_string(),
        seed,
        fingerprint: fingerprint.to_string(),
        peak_rss_kb: obs::alloc::peak_rss_kb().unwrap_or(0),
        peak_live_bytes: stats.peak_live_bytes,
        alloc_calls: stats.alloc_calls,
        ..LedgerRecord::default()
    }
}

/// Builds the `profile` run record: per-stage wall-clock and allocation
/// attribution summed across the 12 grid cells, one objective entry per
/// cell keyed `RULE/case` (e.g. `H_LP/d`).
pub fn record_from_profile(report: &ProfileReport, elapsed_ms: f64) -> LedgerRecord {
    let fingerprint = format!("ports={} coflows={}", report.ports, report.coflows);
    let mut rec = base_record(
        "profile",
        &format!("{}-cell grid", report.cells.len()),
        report.seed,
        &fingerprint,
    );
    rec.elapsed_ms = elapsed_ms;
    for stage in STAGES.iter().filter(|s| **s != "other") {
        let total: f64 = report.cells.iter().map(|c| c.stages.get(stage)).sum();
        rec.stages_ms.push((stage.to_string(), total));
    }
    for stage in MEM_STAGES {
        let allocs: u64 = report.cells.iter().map(|c| c.mem.allocs(stage)).sum();
        let bytes: u64 = report.cells.iter().map(|c| c.mem.bytes(stage)).sum();
        rec.stage_allocs.push((stage.to_string(), allocs));
        rec.stage_alloc_bytes.push((stage.to_string(), bytes));
    }
    for cell in &report.cells {
        let label = format!("{}/{}", cell.spec.order.name(), cell.spec.case_label());
        rec.objectives.push((label, cell.objective));
    }
    rec
}

/// Builds the `scale` run record: per-stage wall-clock summed across the
/// swept cells, one objective entry per cell keyed by its `m=…/n=…`
/// label — the dashboard and `diff` read scale runs through this record
/// exactly like profile runs.
pub fn record_from_scale(report: &crate::scale::ScaleReport, elapsed_ms: f64) -> LedgerRecord {
    let fingerprint = format!(
        "window={} cells={}",
        report.window,
        report
            .cells
            .iter()
            .map(|c| format!("{}x{}", c.ports, c.coflows))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut rec = base_record(
        "scale",
        &format!("{}-cell scale sweep", report.cells.len()),
        report.seed,
        &fingerprint,
    );
    rec.elapsed_ms = elapsed_ms;
    for stage in crate::scale::SCALE_STAGES.iter().filter(|s| **s != "total") {
        let total: f64 = report.cells.iter().map(|c| c.stage(stage)).sum();
        rec.stages_ms.push((stage.to_string(), total));
    }
    for cell in &report.cells {
        rec.objectives.push((
            crate::scale::cell_label(cell.ports, cell.coflows),
            cell.run.objective,
        ));
    }
    rec
}

/// Builds the `pin` run record: one objective entry per pinned cell,
/// engine wall-clock as the elapsed time payload.
pub fn record_from_pins(report: &PinReport, elapsed_ms: f64) -> LedgerRecord {
    let mut rec = base_record(
        "pin",
        &format!(
            "{} pins, engine {:.0} ms",
            report.pins.len(),
            report.engine_ms
        ),
        report.seed,
        "pins",
    );
    rec.elapsed_ms = elapsed_ms;
    rec.stages_ms.push(("engine".to_string(), report.engine_ms));
    for pin in &report.pins {
        rec.objectives.push((pin.label.clone(), pin.objective));
    }
    rec
}

/// Builds the `tournament` run record: per-policy clean TWCT keyed
/// `twct/NAME` and measured approximation ratio keyed `ratio/NAME` (the
/// dashboard sparklines read the latter), per-policy wall-clock as the
/// stage entries.
pub fn record_from_tournament(
    report: &crate::tournament::TournamentReport,
    elapsed_ms: f64,
) -> LedgerRecord {
    let fingerprint = format!(
        "ports={} coflows={} lp_bound={} fault_rate={}",
        report.ports, report.coflows, report.lp_bound, report.fault_rate
    );
    let mut rec = base_record(
        "tournament",
        &format!("{}-policy tournament", report.rows.len()),
        report.seed,
        &fingerprint,
    );
    rec.elapsed_ms = elapsed_ms;
    for row in &report.rows {
        rec.objectives
            .push((format!("twct/{}", row.policy), row.objective));
        rec.objectives
            .push((format!("ratio/{}", row.policy), row.ratio));
        rec.stages_ms.push((row.policy.clone(), row.wall_ms));
    }
    rec
}

/// Builds a gate-verdict record. `verdicts` carries per-check outcomes
/// (`pass`/`fail`); the overall status is derived — any `fail` fails.
pub fn verdict_record(gate: &str, verdicts: Vec<(String, String)>, note: &str) -> LedgerRecord {
    let mut rec = LedgerRecord {
        kind: "verdict".to_string(),
        command: gate.to_string(),
        label: note.to_string(),
        ..LedgerRecord::default()
    };
    let overall = if verdicts.iter().any(|(_, v)| v != "pass") {
        "fail"
    } else {
        "pass"
    };
    rec.verdicts = verdicts;
    rec.verdicts
        .push(("overall".to_string(), overall.to_string()));
    rec
}

/// The two records a gate run appends, in order: its run record carrying
/// the gate's statuses, then a `gate-NAME` verdict record — the record
/// `select("green")` reads to skip a failed run.
pub fn gate_records(
    gate: &str,
    mut run: LedgerRecord,
    statuses: Vec<(String, String)>,
) -> [LedgerRecord; 2] {
    run.verdicts = statuses.clone();
    [run, verdict_record(&format!("gate-{}", gate), statuses, "")]
}

/// Selects one record out of a loaded ledger history (oldest first):
///
/// * `latest` — the most recent **run** record;
/// * `prev` — the run record before `latest` with the same command;
/// * `~N` — N run records before `latest` (so `~0` == `latest`);
/// * `#SEQ` — the record with that exact sequence number (any kind);
/// * `green` — the most recent run record not followed by a failing
///   verdict before the next run record (i.e. the last run whose gates,
///   if any ran, all passed).
pub fn select<'a>(records: &'a [LedgerRecord], spec: &str) -> Result<&'a LedgerRecord, String> {
    if records.is_empty() {
        return Err("ledger is empty".to_string());
    }
    let runs: Vec<&LedgerRecord> = records.iter().filter(|r| r.kind == "run").collect();
    let no_runs = || "ledger has no run records".to_string();
    if let Some(seq) = spec.strip_prefix('#') {
        let seq: u64 = seq
            .parse()
            .map_err(|_| format!("bad seq selector {:?}", spec))?;
        return records
            .iter()
            .find(|r| r.seq == seq)
            .ok_or_else(|| format!("no record with seq {}", seq));
    }
    if let Some(back) = spec.strip_prefix('~') {
        let back: usize = back
            .parse()
            .map_err(|_| format!("bad selector {:?}", spec))?;
        if back + 1 > runs.len() {
            return Err(format!(
                "ledger has only {} run records, wanted ~{}",
                runs.len(),
                back
            ));
        }
        return Ok(runs[runs.len() - 1 - back]);
    }
    match spec {
        "latest" => runs.last().copied().ok_or_else(no_runs),
        "prev" => {
            let latest = runs.last().ok_or_else(no_runs)?;
            runs.iter()
                .rev()
                .skip(1)
                .find(|r| r.command == latest.command)
                .copied()
                .ok_or_else(|| {
                    format!("no earlier {:?} run record to diff against", latest.command)
                })
        }
        "green" => {
            // A run is green when no verdict record between it and the
            // next run record carries a fail.
            for (i, rec) in records.iter().enumerate().rev() {
                if rec.kind != "run" {
                    continue;
                }
                let clean = records[i + 1..]
                    .iter()
                    .take_while(|r| r.kind != "run")
                    .all(|r| r.verdicts.iter().all(|(_, v)| v == "pass"));
                if clean {
                    return Ok(rec);
                }
            }
            Err("no green run record in the ledger".to_string())
        }
        other => Err(format!(
            "unknown selector {:?} (expected latest, prev, ~N, #SEQ, green, or a report path)",
            other
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seq: u64, command: &str) -> LedgerRecord {
        LedgerRecord {
            seq,
            kind: "run".to_string(),
            command: command.to_string(),
            ..LedgerRecord::default()
        }
    }

    fn verdict(seq: u64, status: &str) -> LedgerRecord {
        LedgerRecord {
            seq,
            kind: "verdict".to_string(),
            command: "check-perf".to_string(),
            verdicts: vec![("overall".to_string(), status.to_string())],
            ..LedgerRecord::default()
        }
    }

    #[test]
    fn path_resolution_prefers_flag_and_honors_disable() {
        assert_eq!(
            ledger_path(Some("custom.ndjson")),
            Some("custom.ndjson".to_string())
        );
        assert_eq!(ledger_path(Some("none")), None);
        assert_eq!(ledger_path(Some("off")), None);
        // Without a flag the default (or env) applies; at minimum it is Some.
        assert!(ledger_path(None).is_some() || std::env::var("COFLOW_LEDGER").is_ok());
    }

    #[test]
    fn selectors_pick_the_documented_records() {
        let records = vec![
            run(1, "profile"),
            verdict(2, "pass"),
            run(3, "pin"),
            run(4, "profile"),
            verdict(5, "fail"),
        ];
        assert_eq!(select(&records, "latest").unwrap().seq, 4);
        assert_eq!(select(&records, "prev").unwrap().seq, 1);
        assert_eq!(select(&records, "~1").unwrap().seq, 3);
        assert_eq!(select(&records, "~2").unwrap().seq, 1);
        assert_eq!(select(&records, "#3").unwrap().seq, 3);
        // Latest run (seq 4) is followed by a failing verdict; seq 3 is
        // followed by none before the next run — green.
        assert_eq!(select(&records, "green").unwrap().seq, 3);
        assert!(select(&records, "nonsense").is_err());
        assert!(select(&[], "latest").is_err());
    }

    #[test]
    fn a_gate_run_with_a_regressed_row_is_never_green() {
        use crate::gate::{judge, statuses, Kind, Metric, Scope};
        let objective = |value| {
            [Metric {
                key: "H_LP/d".into(),
                kind: Kind::Exact,
                value,
            }]
        };
        let mut records = Vec::new();
        // A passing gate run, then one whose objective drifted by one ulp.
        for current in [6950481.0, f64::from_bits(6950481.0f64.to_bits() ^ 1)] {
            let rows = judge(
                &objective(6950481.0),
                &objective(current),
                Scope::of("perf"),
            );
            let seq = records.len() as u64 + 1;
            let [run_rec, mut verdict] = gate_records("perf", run(seq, "profile"), statuses(&rows));
            verdict.seq = seq + 1;
            records.extend([run_rec, verdict]);
        }
        assert_eq!(records[3].command, "gate-perf");
        assert!(records[3]
            .verdicts
            .contains(&("exact".to_string(), "fail".to_string())));
        // `diff green latest` compares the passing run with the failed one.
        assert_eq!(select(&records, "latest").unwrap().seq, 3);
        assert_eq!(select(&records, "green").unwrap().seq, 1);
    }

    #[test]
    fn verdict_record_derives_overall_status() {
        let rec = verdict_record(
            "check-all",
            vec![
                ("clippy".to_string(), "pass".to_string()),
                ("perf".to_string(), "fail".to_string()),
            ],
            "",
        );
        assert_eq!(rec.kind, "verdict");
        assert!(rec
            .verdicts
            .contains(&("overall".to_string(), "fail".to_string())));
        let rec = verdict_record(
            "check-all",
            vec![("clippy".to_string(), "pass".to_string())],
            "",
        );
        assert!(rec
            .verdicts
            .contains(&("overall".to_string(), "pass".to_string())));
    }
}
