//! `coflow-benchmark`: measures one workload in this process, runs every
//! workload in child processes (optionally repeated, with a summary file),
//! or compares two summary files.

use coflow_benchmark::metrics::{compare, Spread, Summary, Verdict, WorkloadRuns};
use coflow_benchmark::{run, RunConfig, Workload};
use obs::json::{parse, quote, JsonValue};
use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  coflow-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
  coflow-benchmark run [--seed N] [--seconds S] [--trace] [--repeat K] [--out FILE]
  coflow-benchmark compare BASE.json NEW.json";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 2015;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(&args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Parses `--flag value` pairs among `known`; `--trace` may stand alone
/// (meaning 1). Everything else is positional.
fn flags(
    args: &[String],
    known: &[&'static str],
) -> Result<(HashMap<&'static str, String>, Vec<String>), String> {
    let mut map = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(&key) = known.iter().find(|&&k| k == arg) {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ if key == "--trace" => "1".to_string(),
                _ => return Err(format!("{key} needs a value")),
            };
            map.insert(key, value);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((map, positional))
}

fn parsed<T: std::str::FromStr>(
    f: &HashMap<&str, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    f.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {key} value '{v}'"))
    })
}

fn trace_flag(f: &HashMap<&str, String>) -> Result<bool, String> {
    match f.get("--trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("bad --trace value '{v}' (0 or 1)")),
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })
}

/// Measures one workload here; the last stdout line is the JSON result.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let (f, positional) = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let workload = workload_named(f.get("--workload").ok_or("--workload is required")?)?;
    let seconds: f64 = parsed(&f, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let cfg = RunConfig {
        workload,
        seed: parsed(&f, "--seed", DEFAULT_SEED)?,
        seconds,
        trace: trace_flag(&f)?,
    };
    let report = run(&cfg);
    print!("{}", report.render_text());
    println!("{}", report.to_json());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, String, f64)>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc = parse(line).map_err(|e| format!("child result is not JSON: {e}"))?;
    let count = |key| match doc.get(key) {
        Some(JsonValue::Num(n)) => n.parse::<u64>().map_err(|_| format!("bad {key}")),
        _ => Err(format!("child result lacks {key}")),
    };
    let Some(JsonValue::Obj(pairs)) = doc.get("metrics") else {
        return Err("child result lacks metrics".into());
    };
    let metrics = pairs
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(JsonValue::Num(v)), Some(JsonValue::Str(u))) => v
                .parse()
                .map(|v| (name.clone(), u.clone(), v))
                .map_err(|_| format!("bad value of {name}")),
            _ => Err(format!("malformed metric {name}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Trimmed stdout of `cmd`, or `None` when it cannot run or fails.
fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(seed: u64, seconds: f64, repeat: usize, trace: bool) -> Vec<(String, String)> {
    let nproc = command_output("nproc", &[]).unwrap_or_else(|| "null".into());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = command_output("git", &["rev-parse", "HEAD"]).map_or("null".into(), |r| quote(&r));
    let dirty = command_output("git", &["status", "--porcelain", "--untracked-files=no"])
        .map_or("null".into(), |s| (!s.is_empty()).to_string());
    vec![
        ("nproc".into(), nproc),
        ("available_parallelism".into(), parallelism.to_string()),
        ("git_rev".into(), rev),
        ("git_dirty".into(), dirty),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("repeat".into(), repeat.to_string()),
        ("trace".into(), trace.to_string()),
    ]
}

/// Runs each workload in its own child process, one after another,
/// `--repeat` times on the same seed; prints medians and quartiles.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let known = ["--seed", "--seconds", "--trace", "--repeat", "--out"];
    let (f, positional) = flags(args, &known)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let seed: u64 = parsed(&f, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(&f, "--seconds", DEFAULT_SECONDS)?;
    let repeat: usize = parsed(&f, "--repeat", 1)?;
    let trace = trace_flag(&f)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let header = provenance(seed, seconds, repeat, trace);
    let rendered: Vec<String> = header.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", rendered.join(" "));

    let mut summary = Summary {
        header,
        workloads: Vec::new(),
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut runs = WorkloadRuns {
            name: w.name().into(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for _ in 0..repeat {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = parse_result(stdout.lines().last().unwrap_or(""))?;
            all_ok &= out.status.success() && result.correct;
            runs.attempted += result.attempted;
            runs.failed += result.failed;
            for (name, unit, value) in result.metrics {
                match runs.metrics.iter_mut().find(|(n, ..)| *n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => runs.metrics.push((name, unit, vec![value])),
                }
            }
        }
        println!(
            "{}: {} instances, {} failed",
            runs.name, runs.attempted, runs.failed
        );
        for (name, unit, values) in &runs.metrics {
            let s = Spread::of(values);
            println!(
                "  {name:<30} {:>14.4} {unit:<10} [q1 {:.4}, q3 {:.4}, n {}]",
                s.median,
                s.q1,
                s.q3,
                values.len()
            );
        }
        summary.workloads.push(runs);
    }
    if let Some(path) = f.get("--out") {
        std::fs::write(path, summary.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Judges NEW against BASE: one row per workload; exit 1 if any is worse.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes two summary files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Summary::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base)?, load(new)?);
    for (label, s) in [("base", &base), ("new", &new)] {
        let rendered: Vec<String> = s.header.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("# {label}: {}", rendered.join(" "));
    }
    let rows = compare(&base, &new);
    if rows.is_empty() {
        return Err("the summaries share no workload".into());
    }
    let mut any_worse = false;
    for (workload, verdict, judged) in &rows {
        any_worse |= *verdict == Verdict::Worse;
        println!("{workload:<18} {}", verdict.as_str());
        for j in judged {
            let change = if j.new == j.base {
                0.0
            } else {
                (j.new / j.base - 1.0) * 100.0
            };
            println!(
                "    {:<30} {:>14.4} -> {:<14.4} {:>+8.2}%  {}",
                j.metric,
                j.base,
                j.new,
                change,
                j.verdict.as_str()
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
