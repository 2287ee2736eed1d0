//! Usage errors of the `experiments` binary: an unknown flag, a flag the
//! subcommand does not take, an operand it does not take and an unknown
//! gate all exit 2 with the usage text before any workload runs.

use coflow_bench::gate::GATES;
use coflow_bench::pins::{parse_pins, render_pins_json};
use std::process::Command;

#[test]
fn misspelled_flags_and_unknown_gates_exit_2() {
    let cases: [&[&str]; 8] = [
        &["pin", "--chek", "BENCH_pins.json"],
        &["gate", "nosuch"],
        &["gate"],
        &["gate", "pins", "--tolerance", "0.5"],
        &["pin", "--check", "BENCH_pins.json"],
        &["profile", "--baseline", "BENCH_baseline.json"],
        &["table1", "extra"],
        &["diff", "a", "b", "c"],
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

/// Runs `experiments` in `dir` with a scratch ledger.
fn run_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--ledger")
        .arg(dir.join("ledger.ndjson"))
        .current_dir(dir)
        .output()
        .expect("run experiments")
}

#[test]
fn a_failed_gate_run_is_never_the_green_record() {
    let dir = std::env::temp_dir().join(format!("experiments-gate-green-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
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
