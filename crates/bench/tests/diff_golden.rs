//! Golden `coflow-diff/1` report: a fixture pair with one known stage
//! regression (+30% lp_solve) and one known objective bit-flip must
//! render byte-identically run over run, attribute both regressions by
//! name, and drive a nonzero exit (via `regressions()`, the predicate
//! `experiments -- diff` exits on). Regenerate after intentional schema
//! changes with
//! `GOLDEN_UPDATE=1 cargo test -p coflow-bench --test diff_golden`.

use coflow_bench::diff::{diff_records, render_diff_json, render_diff_table};
use coflow_workloads::json::{self, JsonValue};
use obs::ledger::{LedgerRecord, LEDGER_SCHEMA};

/// Baseline fixture: a profile-shaped run record with fixed numbers.
fn baseline_record() -> LedgerRecord {
    LedgerRecord {
        seq: 1,
        ts: 1700000000,
        kind: "run".to_string(),
        command: "profile".to_string(),
        label: "12-cell grid".to_string(),
        seed: 2015,
        fingerprint: "ports=60 coflows=150".to_string(),
        git_rev: "0000000000".to_string(),
        git_dirty: false,
        elapsed_ms: 4000.0,
        peak_rss_kb: 80_000,
        peak_live_bytes: 52_000_000,
        alloc_calls: 9_000_000,
        stages_ms: vec![
            ("lp_build".to_string(), 200.0),
            ("lp_solve".to_string(), 1000.0),
            ("order".to_string(), 5.0),
            ("decompose".to_string(), 400.0),
            ("simulate".to_string(), 300.0),
        ],
        stage_allocs: vec![("lp_solve".to_string(), 4_000_000)],
        stage_alloc_bytes: vec![("lp_solve".to_string(), 800_000_000)],
        objectives: vec![
            ("H_LP/d".to_string(), 6950481.0),
            ("H_rho/d".to_string(), 7110231.0),
        ],
        verdicts: vec![],
    }
}

/// Current fixture: lp_solve +30% (past both the 20% tolerance and the
/// 10 ms absolute floor) and the H_LP/d objective's last mantissa bit
/// flipped — the two regression kinds the diff must attribute.
fn regressed_record() -> LedgerRecord {
    let mut rec = baseline_record();
    rec.seq = 2;
    for (name, v) in &mut rec.stages_ms {
        if name == "lp_solve" {
            *v = 1300.0;
        }
    }
    for (name, v) in &mut rec.objectives {
        if name == "H_LP/d" {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
    }
    rec
}

#[test]
fn known_regressions_are_attributed_and_match_golden() {
    // The provenance header is zeroed so the golden stays byte-stable
    // across commits and working-tree states.
    obs::ledger::set_zero_provenance(true);
    let a = baseline_record();
    let b = regressed_record();
    let report = diff_records(&a, &b, "baseline", "current", 0.2);

    // Exactly the two seeded regressions, attributed by section:name —
    // this is the predicate `experiments -- diff` exits nonzero on.
    let regs = report.regressions();
    let names: Vec<String> = regs
        .iter()
        .map(|r| format!("{}:{}", r.section, r.name))
        .collect();
    assert_eq!(names, vec!["stage:lp_solve", "objective:H_LP/d"]);

    // The table names both regressions for the terminal reader.
    let table = render_diff_table(&report);
    assert!(table.contains("stage:lp_solve"));
    assert!(table.contains("objective:H_LP/d"));
    assert!(table.contains("verdict: 2 regression(s)"));

    let rendered = render_diff_json(&report, LEDGER_SCHEMA, LEDGER_SCHEMA);

    // The golden must itself parse and carry the regression count — a
    // broken golden would otherwise lock in a regression.
    let doc = json::parse(&rendered).expect("diff report must be valid JSON");
    assert_eq!(
        doc.get("schema"),
        Some(&JsonValue::Str("coflow-diff/1".into()))
    );
    assert_eq!(doc.get("regressions"), Some(&JsonValue::Num("2".into())));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diff.json");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = include_str!("golden/diff.json");
    assert_eq!(
        rendered, golden,
        "diff report drifted from the golden file; \
         run with GOLDEN_UPDATE=1 to regenerate intentionally"
    );
}

#[test]
fn self_diff_is_clean_and_exits_zero() {
    let a = baseline_record();
    let report = diff_records(&a, &a, "a", "a", 0.2);
    assert!(report.regressions().is_empty());
    assert!(report.unmatched.is_empty());
    let table = render_diff_table(&report);
    assert!(table.contains("verdict: OK"));
}
