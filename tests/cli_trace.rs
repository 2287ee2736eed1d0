//! `coflow-cli` reads a trace file with the trace readers' own rules: a
//! CSV without a header keeps its first row (the fabric is inferred from
//! every data row), and a hostile file is refused with the reader's typed
//! error and exit 1, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a scratch file named `name` and runs the CLI on it.
fn run(name: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write trace");
    Command::new(env!("CARGO_BIN_EXE_coflow-cli"))
        .arg(&path)
        .args(["--ledger", "none"])
        .output()
        .expect("coflow-cli runs")
}

#[test]
fn a_csv_without_a_header_keeps_its_first_row() {
    let out = run("cli_trace_headerless.csv", "0,0,3,1,0,1\n");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        stderr
    );
    assert!(stderr.contains("1 coflows on a 4x4 fabric"), "{}", stderr);
    assert!(
        stdout.contains("total weighted completion time: 1.0"),
        "{}",
        stdout
    );
}

#[test]
fn hostile_traces_exit_1_with_the_readers_error() {
    for (name, text, want) in [
        (
            "cli_trace_conflict.csv",
            "0,0,0,1,0,1\n0,0,0,1,7,5\n",
            "line 2: field 'release'",
        ),
        (
            "cli_trace_overflow.csv",
            "0,0,0,18446744073709551615,0,1\n0,0,0,1,0,1\n",
            "line 2: field 'mb'",
        ),
        (
            "cli_trace_horizon.csv",
            "0,0,0,1,18446744073709551615,1\n",
            "field 'release'",
        ),
        (
            "cli_trace_width.json",
            "[2, [{\"id\": 0, \"m\": 3, \"flows\": [[0, 1, 2]], \"release\": 0, \"weight\": 1}]]",
            "field 'm'",
        ),
    ] {
        let out = run(name, text);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {}", name, stderr);
        assert!(stderr.contains(want), "{}: {}", name, stderr);
    }
}
