//! The `experiments` binary end to end: usage errors (an unknown flag, a
//! flag the subcommand does not take, an operand it does not take, an
//! unknown gate and a `--cell` side that is not a positive integer all
//! exit 2 with the usage text before any workload runs),
//! reports written only where `--out` says, and gate verdicts.

use coflow_bench::gate::{read_report, read_tournament, GATES};
use coflow_bench::pins::{parse_pins, render_pins_json};
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn misspelled_flags_and_unknown_gates_exit_2() {
    let cases: [&[&str]; 11] = [
        &["pin", "--chek", "BENCH_pins.json"],
        &["gate", "nosuch"],
        &["gate"],
        &["gate", "pins", "--tolerance", "0.5"],
        &["pin", "--check", "BENCH_pins.json"],
        &["profile", "--baseline", "BENCH_baseline.json"],
        &["table1", "extra"],
        &["diff", "a", "b", "c"],
        &["scale", "--cell", "0x5"],
        &["scale", "--cell", "5x0"],
        &["scale", "--cell", "x5"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .env("COFLOW_LEDGER", "none")
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{:?}: {}", args, stderr);
        assert!(
            stderr.contains("usage: experiments"),
            "{:?}: {}",
            args,
            stderr
        );
        assert!(out.stdout.is_empty(), "{:?} ran something", args);
    }
}

#[test]
fn the_usage_text_names_every_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--no-such-flag")
        .output()
        .expect("run experiments");
    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    let line = format!("\n  gate {}\n", names.join("|"));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&line),
        "{}",
        line
    );
}

/// A fresh, empty scratch directory for the test `name`.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `experiments` in `dir` with a scratch ledger.
fn run_in(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--ledger")
        .arg(dir.join("ledger.ndjson"))
        .current_dir(dir)
        .output()
        .expect("run experiments")
}

/// The names of the files in `dir`, sorted.
fn files(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("list scratch dir");
    let name = |e: std::io::Result<std::fs::DirEntry>| e.expect("dir entry").file_name();
    let mut names: Vec<String> = entries
        .map(|e| name(e).to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn a_subcommand_writes_no_report_without_out() {
    let dir = scratch("no-out");
    let out = run_in(&dir, &["scale", "--cell", "100x200"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", stdout);
    assert!(stdout.contains("scale sweep: 1 cells"), "{}", stdout);
    assert_eq!(files(&dir), ["ledger.ndjson"], "scale wrote a report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tournament_over_a_policy_subset_passes() {
    let dir = scratch("tournament-subset");
    let out = run_in(
        &dir,
        &["tournament", "--policies", "greedy", "--out", "t.json"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}", stderr);
    assert_eq!(files(&dir), ["ledger.ndjson", "t.json"]);
    let text = std::fs::read_to_string(dir.join("t.json")).expect("tournament report");
    let schema = coflow_bench::tournament::SCHEMA;
    let report = read_report(&text, schema, read_tournament).expect("tournament report reads");
    let names: Vec<&str> = report.rows.iter().map(|r| r.policy.as_str()).collect();
    assert_eq!(names, ["greedy"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_gate_run_is_never_the_green_record() {
    let dir = scratch("gate-green");
    // The committed pins with an engine budget no host exceeds, so only
    // the pinned objectives decide the verdicts.
    let mut golden = parse_pins(include_str!("../../../BENCH_pins.json")).expect("committed pins");
    golden.engine_ms = 1e6;
    // A passing gate run against the committed pins.
    std::fs::write(dir.join("BENCH_pins.json"), render_pins_json(&golden)).expect("write golden");
    let pass = run_in(&dir, &["gate", "pins"]);
    assert!(
        pass.status.success(),
        "{}",
        String::from_utf8_lossy(&pass.stdout)
    );
    // A failing one: the golden's first objective is one ulp off.
    let first = &mut golden.pins[0].objective;
    *first = f64::from_bits(first.to_bits() ^ 1);
    std::fs::write(dir.join("BENCH_pins.json"), render_pins_json(&golden))
        .expect("write doctored golden");
    let fail = run_in(&dir, &["gate", "pins"]);
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert_eq!(fail.status.code(), Some(1), "{}", stdout);
    assert!(stdout.contains("REGRESSED"), "{}", stdout);
    assert!(stdout.contains("verdict: fail (1 of"), "{}", stdout);
    // `diff green latest` sets the passing run against the failed one.
    let diff = run_in(&dir, &["diff", "green", "latest"]);
    let table = String::from_utf8_lossy(&diff.stdout);
    assert!(table.contains("A=green (seq 1, pin)"), "{}", table);
    assert!(table.contains("B=latest (seq 3, pin)"), "{}", table);
    let _ = std::fs::remove_dir_all(&dir);
}
