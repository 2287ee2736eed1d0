//! `coflow-cli --policy NAME` runs the registry's policy as the registry
//! defines it: for every entry, the CLI's objective is bit-identical to
//! `run_policy` over `entry.build` on the same trace. The pipeline options
//! (`--order`, `--no-group`, `--no-backfill`, `--rematch`) configure only
//! the default pipeline, so combining one with `--policy` is a usage error,
//! as is any flag the CLI does not define.

use coflow::{run_policy, PolicyRegistry};
use coflow_workloads::io;
use std::path::PathBuf;
use std::process::{Command, Output};

const PORTS: usize = 6;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coflow-cli"))
        .args(args)
        .args(["--ledger", "none"])
        .output()
        .expect("coflow-cli runs")
}

/// Writes the CLI's own `--generate 16 --ports 6 --seed 7` trace to a file
/// and returns its path and text.
fn trace(name: &str) -> (PathBuf, String) {
    let out = cli(&["--generate", "16", "--ports", "6", "--seed", "7"]);
    assert!(out.status.success(), "--generate failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 CSV");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_policy_{name}.csv"));
    std::fs::write(&path, &text).expect("write trace");
    (path, text)
}

/// The objective `--emit-json` prints (shortest round-trip decimal).
fn emitted_objective(out: &Output) -> f64 {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().nth(1).expect("objective line");
    line.trim()
        .trim_end_matches(',')
        .parse()
        .expect("objective")
}

#[test]
fn every_registry_policy_matches_the_engine_run() {
    let (path, text) = trace("engine");
    let instance = io::from_csv(PORTS, &text).expect("parse trace");
    let path = path.to_str().expect("utf-8 path");
    for entry in PolicyRegistry::builtin().entries() {
        let out = cli(&[path, "--ports", "6", "--policy", entry.name, "--emit-json"]);
        match run_policy(&instance, &mut *entry.build(&instance)) {
            Ok(expected) => {
                assert!(
                    out.status.success(),
                    "{}: exit {:?}: {}",
                    entry.name,
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                );
                let got = emitted_objective(&out);
                assert_eq!(
                    got.to_bits(),
                    expected.objective.to_bits(),
                    "{}: CLI printed {} but the registry policy scores {}",
                    entry.name,
                    got,
                    expected.objective
                );
            }
            // `resilient` plans with Decision::Execute, which only the
            // fault-aware engine runs: the CLI must refuse it too.
            Err(_) => assert!(
                !out.status.success(),
                "{}: the engine rejects it, the CLI must fail",
                entry.name
            ),
        }
    }
}

#[test]
fn pipeline_options_and_unknown_flags_are_usage_errors() {
    let (path, _) = trace("usage");
    let path = path.to_str().expect("utf-8 path");
    for args in [
        &["--policy", "greedy", "--order", "H_A"][..],
        &["--no-group", "--policy", "online"],
        &["--policy", "bvn-batch", "--no-backfill"],
        &["--policy", "im-purohit", "--rematch"],
        &["--online"],
        &["--online-stale"],
        &["--greedy"],
        &["--policy", "online-stale"],
    ] {
        let mut argv = vec![path];
        argv.extend_from_slice(args);
        let out = cli(&argv);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{:?} must be a usage error",
            args
        );
    }
    // The pipeline options still configure the default pipeline.
    let out = cli(&[path, "--order", "H_A", "--no-group", "--rematch"]);
    assert!(out.status.success(), "pipeline options without --policy");
}
