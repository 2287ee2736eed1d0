//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [table1|fig2a|fig2b|lpexp|ratios|all] [--seed N] [--telemetry PATH]
//! experiments profile [--out PATH] [--trace PATH] [--baseline PATH]
//!                     [--tolerance F] [--full] [--seed N]
//!                     [--mem-out PATH] [--mem-baseline PATH] [--mem-tolerance F]
//! experiments explain [--out PATH] [--svg PATH] [--trace PATH]
//!                     [--faults RATE] [--severity LEVEL]
//!                     [--expect-starvation] [--validate PATH] [--seed N]
//! experiments pin [--out PATH] [--check PATH] [--tolerance F] [--seed N]
//! experiments scale [--ports LIST] [--coflows LIST] [--cell MxN]
//!                   [--window W] [--out BENCH_scale.json] [--check PATH]
//!                   [--tolerance F] [--mem-tolerance F] [--seed N]
//! experiments chaos [--kills N] [--windows N] [--faults RATE]
//!                   [--out PATH] [--validate PATH] [--seed N]
//! experiments tournament [--policies a,b,c|all] [--out BENCH_tournament.json]
//!                        [--check PATH] [--tolerance F] [--seed N]
//! experiments faults [--policies a,b,c] [--seed N]
//! experiments diff [A] [B] [--tolerance F] [--out PATH] [--ledger PATH]
//! experiments report [--out dash.html] [--ledger PATH]
//! experiments verdict --gate NAME [--status pass|fail] [--verdict K=V]...
//!                     [--note STR] [--ledger PATH]
//! ```
//!
//! Every workload subcommand appends one self-contained `coflow-ledger/1`
//! record to the run ledger (default `LEDGER.ndjson`; `--ledger PATH` or
//! `COFLOW_LEDGER` overrides, `--ledger none` disables): command, seed,
//! config fingerprint, git provenance, per-stage wall-clock and
//! allocation attribution, peak RSS, per-cell objectives, and gate
//! verdicts. Ledger appends are non-fatal — a read-only checkout still
//! runs every experiment.
//!
//! `diff A B` compares two runs. `A`/`B` are ledger selectors (`latest`,
//! `prev`, `~N`, `#SEQ`, `green`) or paths to committed reports
//! (`coflow-bench-grid/3`, `coflow-bench-mem/1`, `coflow-pins/1`); the
//! default is `prev latest`. It prints a per-metric table, optionally
//! writes a `coflow-diff/1` document (`--out`), and exits 1 on any
//! regression past `--tolerance` (default 0.5; objectives are bit-exact
//! regardless of tolerance) — so it doubles as a gate.
//!
//! `report` renders the whole ledger as a self-contained HTML dashboard
//! (inline CSS + SVG, no external assets): per-stage trend sparklines,
//! memory trajectories, objective comparison tables, gate-verdict
//! history. `verdict` appends a gate outcome record; the
//! `scripts/check-*.sh` gates call it on exit.
//!
//! `--telemetry PATH` (any subcommand) installs the streaming NDJSON sink:
//! one self-contained `coflow-telemetry/1` line per heartbeat appended (and
//! flushed) to `PATH` while the run progresses — engine decision epochs,
//! fault replans, per-cell profile samples, report writes. Because every
//! line is flushed before the next heartbeat, the stream is valid NDJSON
//! even after a SIGINT. Tail it live with `scripts/watch-telemetry.sh PATH`.
//!
//! `profile` runs the 12-cell grid with the `obs` registry enabled and
//! writes a per-stage timing/counter report (`BENCH_grid.json`, schema
//! `coflow-bench-grid/3` — `/3` adds a per-cell `mem` object: peak live
//! bytes, peak RSS, per-stage allocation attribution). With `--baseline`
//! it diffs against a committed report and exits 1 on a per-stage
//! regression beyond `--tolerance` (default 0.2 = +20%); `--trace`
//! additionally writes a chrome://tracing view of the last cell; `--full`
//! profiles the paper's 150-port fabric instead of the default reduced
//! scale. `--mem-out` writes the compact `coflow-bench-mem/1` memory
//! report; `--mem-baseline` gates allocation counts/bytes and peak live
//! bytes against a committed copy within `--mem-tolerance` (default 0.25 =
//! +25%; peak RSS is reported but never gated — it is machine-dependent).
//! `scripts/check-mem.sh` runs the gate against `BENCH_mem.json`.
//!
//! `explain` runs the schedule-forensics pipeline over the same grid:
//! per-coflow LP attribution, anomaly detectors, and a
//! `coflow-diagnostics/1` JSON report. It exits 1 when any detector fires
//! at or above `--severity` (default `warning`). `--validate PATH` skips
//! the run and validates an existing report instead (used by
//! `scripts/check-explain.sh`); `--faults RATE` adds a fault-injected
//! section; `--svg` writes the attribution cell's port-utilization
//! heatmap; `--trace` writes the chrome trace (spans + anomaly instants).
//!
//! `chaos` runs the crash-safety harness on the 60-port cell: every engine
//! policy is killed at randomized decision epochs, checkpointed to a
//! `coflow-snapshot/1` document, restored from the re-parsed document, and
//! required to finish **bit-identically** to an uninterrupted run, with
//! demand-conservation and monotone-progress invariants checked at every
//! kill. `--windows N` adds the adversarial worst-window search (targeted
//! outages vs matched-budget random plans); `--validate PATH` checks an
//! existing `coflow-chaos/1` report instead of running (used by
//! `scripts/check-chaos.sh`). The report lands at `--out` (default
//! `BENCH_chaos.json`).
//!
//! All subcommands install a SIGINT handler: an interrupt finishes the
//! current unit of work, writes whatever partial report exists via the
//! shared atomic write-then-rename sink, and exits 130.
//!
//! `scale` runs the streaming scale sweep (`coflow-bench-scale/1`): each
//! `(ports, coflows)` cell streams its workload through windowed
//! admission, the ordering ladder (windowed sparse LP up to 128 ports,
//! Smith-rule `ρ/w` beyond), and the O(1)-per-flow sparse executor —
//! recording wall-clock per stage, peak RSS, allocator counts, and the
//! deterministic objective. The default cells form the committed
//! `BENCH_scale.json` curve up to 10,000 ports and 10⁶ streamed coflows.
//! `--cell 1000x10000 --check BENCH_scale.json` re-runs one cell and
//! gates it against the committed curve (wall +20% over a 10 ms floor,
//! allocations +25% over the mem-gate floors, objectives bit-exact) —
//! that invocation is `scripts/check-scale.sh`. `--ports`/`--coflows`
//! sweep a custom cross product; `--window` sets the admission window.
//!
//! `pin` recomputes the engine's pinned objectives — the 12-cell grid, the
//! online scheduler (fixed and stale priorities), the greedy baseline, and
//! the fault-injected combinations — on the canonical arrivals instance.
//! With `--check` it compares against a committed `BENCH_pins.json` and
//! exits 1 unless every objective matches **bit for bit** and the
//! engine-driven section is no slower than baseline by `--tolerance`
//! (default 1.0 = +100%, floored at 50 ms); with `--out` it writes a fresh
//! pin file (used by `scripts/check-perf.sh`).
//!
//! `tournament` races a registry selection of schedulers (`--policies
//! a,b,c`, default `all` = the canonical six) across the whole harness on
//! the canonical arrivals instance: a clean round (TWCT and measured
//! approximation ratio against the interval-LP lower bound, per-policy
//! wall-clock), a fault round under one shared rate-0.20 plan (objective
//! inflation over the surviving coflows), and a windowed scale round where
//! each policy's ordering analog streams the 96×960 cell through the
//! sparse executor. The `coflow-tournament/1` report lands at `--out`
//! (default `BENCH_tournament.json`), is self-validated (every ratio ≥ 1
//! and within the policy's proven bound), and with `--check` is diffed
//! against the committed golden — objectives/ratios bit-exact, wall-clock
//! within `--tolerance` (default 0.35) over the absolute floor — which is
//! `scripts/check-tournament.sh`. The `faults` subcommand accepts the same
//! `--policies` list to extend its engine-policy table beyond the default
//! online/online-stale/greedy trio.
//!
//! Table 1 and the figures run on the synthetic Facebook-like trace at the
//! documented reduced scale; `lpexp` runs on a further reduced instance
//! because (LP-EXP) is exponential in the horizon; `ratios` measures true
//! approximation ratios on tiny instances via the exact solver.

use coflow_bench::faults::{
    render_fault_policies, render_faults, run_fault_policies, run_fault_policies_selected,
    run_faults,
};
use coflow_bench::figures::{run_fig2a, run_fig2b};
use coflow_bench::lowerbound::run_lowerbound;
use coflow_bench::paper_scale_config;
use coflow_lp::SimplexOptions;
use coflow_bench::ratios::run_ratios;
use coflow_bench::report::{
    render_fig2a, render_fig2b, render_lowerbound, render_ratios, render_table1_block,
};
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

/// Options of the `profile` subcommand.
struct ProfileArgs {
    out: String,
    trace: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    full: bool,
    mem_out: Option<String>,
    mem_baseline: Option<String>,
    mem_tolerance: f64,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        ProfileArgs {
            out: "BENCH_grid.json".to_string(),
            trace: None,
            baseline: None,
            tolerance: 0.2,
            full: false,
            mem_out: None,
            mem_baseline: None,
            mem_tolerance: 0.25,
        }
    }
}

/// Options of the `scale` subcommand.
struct ScaleArgs {
    out: String,
    check: Option<String>,
    ports: Option<Vec<usize>>,
    coflows: Option<Vec<usize>>,
    cell: Option<(usize, usize)>,
    window: usize,
    wall_tolerance: f64,
    alloc_tolerance: f64,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            out: "BENCH_scale.json".to_string(),
            check: None,
            ports: None,
            coflows: None,
            cell: None,
            window: coflow_bench::scale::DEFAULT_WINDOW,
            wall_tolerance: 0.2,
            alloc_tolerance: 0.25,
        }
    }
}

/// Options of the `pin` subcommand.
struct PinArgs {
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

impl Default for PinArgs {
    fn default() -> Self {
        PinArgs {
            out: None,
            check: None,
            tolerance: 1.0,
        }
    }
}

/// Options of the `chaos` subcommand.
struct ChaosArgs {
    out: String,
    kills: usize,
    windows: usize,
    fault_rate: f64,
    validate: Option<String>,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs {
            out: "BENCH_chaos.json".to_string(),
            kills: 4,
            windows: 0,
            fault_rate: 0.3,
            validate: None,
        }
    }
}

/// Options of the `tournament` subcommand.
struct TournamentArgs {
    out: String,
    check: Option<String>,
    tolerance: f64,
    policies: String,
}

impl Default for TournamentArgs {
    fn default() -> Self {
        TournamentArgs {
            out: "BENCH_tournament.json".to_string(),
            check: None,
            tolerance: 0.35,
            policies: "all".to_string(),
        }
    }
}

/// Options of the `explain` subcommand.
struct ExplainArgs {
    out: String,
    svg: Option<String>,
    trace: Option<String>,
    faults: Option<f64>,
    severity: coflow::Severity,
    expect_starvation: bool,
    validate: Option<String>,
}

impl Default for ExplainArgs {
    fn default() -> Self {
        ExplainArgs {
            out: "BENCH_diagnostics.json".to_string(),
            svg: None,
            trace: None,
            faults: None,
            severity: coflow::Severity::Warning,
            expect_starvation: false,
            validate: None,
        }
    }
}

fn main() {
    obs::install_sigint_handler();
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut extras: Vec<String> = Vec::new();
    let mut seed: u64 = 2015;
    let mut profile_args = ProfileArgs::default();
    let mut explain_args = ExplainArgs::default();
    let mut pin_args = PinArgs::default();
    let mut chaos_args = ChaosArgs::default();
    let mut scale_args = ScaleArgs::default();
    let mut tournament_args = TournamentArgs::default();
    let mut fault_policies_flag: Option<String> = None;
    let mut ledger_flag: Option<String> = None;
    let mut out_flag: Option<String> = None;
    let mut tolerance_flag: Option<f64> = None;
    let mut gate_flag: Option<String> = None;
    let mut status_flag: Option<String> = None;
    let mut note_flag = String::new();
    let mut verdict_kvs: Vec<(String, String)> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let mut value_of = |flag: &str| -> String {
            match iter.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("error: {} needs a value", flag);
                    std::process::exit(2);
                }
            }
        };
        match a.as_str() {
            "--seed" => {
                let value = value_of("--seed");
                seed = match value.parse() {
                    Ok(s) => s,
                    Err(_) => {
                        eprintln!("error: --seed must be an integer, got '{}'", value);
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                let value = value_of("--out");
                profile_args.out = value.clone();
                explain_args.out = value.clone();
                chaos_args.out = value.clone();
                pin_args.out = Some(value.clone());
                scale_args.out = value.clone();
                tournament_args.out = value.clone();
                out_flag = Some(value);
            }
            "--ports" => scale_args.ports = Some(parse_usize_list(&value_of("--ports"), "--ports")),
            "--coflows" => {
                scale_args.coflows = Some(parse_usize_list(&value_of("--coflows"), "--coflows"))
            }
            "--cell" => {
                let value = value_of("--cell");
                let parsed = value.split_once('x').and_then(|(m, n)| {
                    Some((m.trim().parse().ok()?, n.trim().parse().ok()?))
                });
                scale_args.cell = match parsed {
                    Some(cell) => Some(cell),
                    None => {
                        eprintln!("error: --cell needs PORTSxCOFLOWS (e.g. 1000x10000), got '{}'", value);
                        std::process::exit(2);
                    }
                };
            }
            "--window" => {
                let value = value_of("--window");
                scale_args.window = match value.parse() {
                    Ok(w) if w > 0 => w,
                    _ => {
                        eprintln!("error: --window must be a positive integer, got '{}'", value);
                        std::process::exit(2);
                    }
                };
            }
            "--ledger" => ledger_flag = Some(value_of("--ledger")),
            "--gate" => gate_flag = Some(value_of("--gate")),
            "--status" => status_flag = Some(value_of("--status")),
            "--note" => note_flag = value_of("--note"),
            "--verdict" => {
                let value = value_of("--verdict");
                match value.split_once('=') {
                    Some((k, v)) => verdict_kvs.push((k.to_string(), v.to_string())),
                    None => {
                        eprintln!("error: --verdict needs KEY=VALUE, got '{}'", value);
                        std::process::exit(2);
                    }
                }
            }
            "--kills" => {
                let value = value_of("--kills");
                chaos_args.kills = match value.parse() {
                    Ok(k) => k,
                    Err(_) => {
                        eprintln!("error: --kills must be an integer, got '{}'", value);
                        std::process::exit(2);
                    }
                };
            }
            "--windows" => {
                let value = value_of("--windows");
                chaos_args.windows = match value.parse() {
                    Ok(w) => w,
                    Err(_) => {
                        eprintln!("error: --windows must be an integer, got '{}'", value);
                        std::process::exit(2);
                    }
                };
            }
            "--trace" => {
                let value = value_of("--trace");
                profile_args.trace = Some(value.clone());
                explain_args.trace = Some(value);
            }
            "--baseline" => profile_args.baseline = Some(value_of("--baseline")),
            "--mem-out" => profile_args.mem_out = Some(value_of("--mem-out")),
            "--mem-baseline" => profile_args.mem_baseline = Some(value_of("--mem-baseline")),
            "--mem-tolerance" => {
                let value = value_of("--mem-tolerance");
                let parsed = match value.parse() {
                    Ok(t) => t,
                    Err(_) => {
                        eprintln!("error: --mem-tolerance must be a number, got '{}'", value);
                        std::process::exit(2);
                    }
                };
                profile_args.mem_tolerance = parsed;
                scale_args.alloc_tolerance = parsed;
            }
            "--telemetry" => {
                let value = value_of("--telemetry");
                if let Err(e) = obs::telemetry::install(&value) {
                    eprintln!("error: opening telemetry sink {}: {}", value, e);
                    std::process::exit(2);
                }
            }
            "--svg" => explain_args.svg = Some(value_of("--svg")),
            "--faults" => {
                let value = value_of("--faults");
                explain_args.faults = match value.parse() {
                    Ok(r) => Some(r),
                    Err(_) => {
                        eprintln!("error: --faults must be a rate, got '{}'", value);
                        std::process::exit(2);
                    }
                };
                if let Some(r) = explain_args.faults {
                    chaos_args.fault_rate = r;
                }
            }
            "--severity" => {
                let value = value_of("--severity");
                explain_args.severity = match coflow::Severity::parse(&value) {
                    Some(s) => s,
                    None => {
                        eprintln!(
                            "error: --severity must be info|warning|critical, got '{}'",
                            value
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--expect-starvation" => explain_args.expect_starvation = true,
            "--validate" => {
                let value = value_of("--validate");
                explain_args.validate = Some(value.clone());
                chaos_args.validate = Some(value);
            }
            "--check" => {
                let value = value_of("--check");
                pin_args.check = Some(value.clone());
                scale_args.check = Some(value.clone());
                tournament_args.check = Some(value);
            }
            "--policies" => {
                let value = value_of("--policies");
                tournament_args.policies = value.clone();
                fault_policies_flag = Some(value);
            }
            "--tolerance" => {
                let value = value_of("--tolerance");
                let parsed: f64 = match value.parse() {
                    Ok(t) => t,
                    Err(_) => {
                        eprintln!("error: --tolerance must be a number, got '{}'", value);
                        std::process::exit(2);
                    }
                };
                profile_args.tolerance = parsed;
                pin_args.tolerance = parsed;
                scale_args.wall_tolerance = parsed;
                tournament_args.tolerance = parsed;
                tolerance_flag = Some(parsed);
            }
            "--full" => profile_args.full = true,
            other => {
                // First positional selects the subcommand; the rest are
                // subcommand operands (the diff sides).
                if which.is_none() {
                    which = Some(other.to_string());
                } else {
                    extras.push(other.to_string());
                }
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let ledger = coflow_bench::ledger::ledger_path(ledger_flag.as_deref());

    match which.as_str() {
        "table1" => table1(seed),
        "fig2a" => fig2a(seed),
        "fig2b" => fig2b(seed),
        "lpexp" => lpexp(seed),
        "ratios" => ratios(seed),
        "gridsweep" => gridsweep(seed),
        "integrality" => integrality(seed),
        "arrivals" => arrivals(seed),
        "faults" => faults(seed, fault_policies_flag.as_deref()),
        "profile" => profile(seed, &profile_args, &ledger, started),
        "explain" => explain(seed, &explain_args),
        "pin" => pin(seed, &pin_args, &ledger, started),
        "scale" => scale(seed, &scale_args, &ledger, started),
        "chaos" => chaos(seed, &chaos_args),
        "tournament" => tournament(seed, &tournament_args, &ledger, started),
        "diff" => diff_cmd(&extras, tolerance_flag, &ledger, out_flag.as_deref()),
        "report" => report_cmd(&ledger, out_flag.as_deref()),
        "verdict" => verdict_cmd(
            gate_flag.as_deref(),
            status_flag.as_deref(),
            verdict_kvs,
            &note_flag,
            &ledger,
        ),
        "all" => {
            table1(seed);
            fig2a(seed);
            fig2b(seed);
            lpexp(seed);
            ratios(seed);
            gridsweep(seed);
            integrality(seed);
            arrivals(seed);
            faults(seed, None);
        }
        other => {
            eprintln!(
                "unknown experiment '{}'; expected table1|fig2a|fig2b|lpexp|ratios|gridsweep|integrality|arrivals|faults|tournament|profile|explain|pin|scale|chaos|diff|report|verdict|all",
                other
            );
            std::process::exit(2);
        }
    }

    // The simple experiment subcommands record a base run entry (workload
    // identity + wall-clock + memory marks); profile and pin append their
    // own enriched records above, and diff/report/verdict are not runs.
    if matches!(
        which.as_str(),
        "table1"
            | "fig2a"
            | "fig2b"
            | "lpexp"
            | "ratios"
            | "gridsweep"
            | "integrality"
            | "arrivals"
            | "faults"
            | "explain"
            | "chaos"
            | "all"
    ) {
        let mut rec = coflow_bench::ledger::base_record(&which, "", seed, "");
        rec.elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        append_ledger(&ledger, rec);
    }
}

/// Appends one record to the run ledger, warning (never failing) on I/O
/// trouble: observability must not take an experiment down.
fn append_ledger(ledger: &Option<String>, mut rec: obs::ledger::LedgerRecord) {
    let Some(path) = ledger else { return };
    match obs::ledger::append(path, &mut rec) {
        Ok(seq) => println!("# ledger: appended {} record seq {} to {}", rec.kind, seq, path),
        Err(e) => eprintln!("warning: ledger append failed: {}", e),
    }
}

/// Resolves one side of a diff: an existing file path is parsed as a
/// committed report; anything else is a ledger selector.
fn diff_side(
    spec: &str,
    ledger: &Option<String>,
    cache: &mut Option<Vec<obs::ledger::LedgerRecord>>,
) -> coflow_bench::diff::DiffSide {
    use coflow_bench::diff::{side_from_path, DiffSide};
    if std::path::Path::new(spec).is_file() {
        match side_from_path(spec) {
            Ok(side) => return side,
            Err(e) => {
                eprintln!("error: {}", e);
                std::process::exit(2);
            }
        }
    }
    let Some(path) = ledger else {
        eprintln!("error: ledger disabled and '{}' is not a report file", spec);
        std::process::exit(2);
    };
    if cache.is_none() {
        match obs::ledger::load(path) {
            Ok(records) => *cache = Some(records),
            Err(e) => {
                eprintln!("error: {}", e);
                std::process::exit(2);
            }
        }
    }
    let records = cache.as_ref().map(|r| r.as_slice()).unwrap_or(&[]);
    match coflow_bench::ledger::select(records, spec) {
        Ok(rec) => DiffSide::from_record(rec, spec),
        Err(e) => {
            eprintln!("error: {}: {}", path, e);
            std::process::exit(2);
        }
    }
}

fn diff_cmd(
    extras: &[String],
    tolerance_flag: Option<f64>,
    ledger: &Option<String>,
    out: Option<&str>,
) {
    use coflow_bench::diff::{diff_sides, render_diff_json, render_diff_table, DEFAULT_TOLERANCE};
    let tolerance = tolerance_flag.unwrap_or(DEFAULT_TOLERANCE);
    let a_spec = extras.first().map(String::as_str).unwrap_or("prev");
    let b_spec = extras.get(1).map(String::as_str).unwrap_or("latest");
    let mut cache = None;
    let a = diff_side(a_spec, ledger, &mut cache);
    let b = diff_side(b_spec, ledger, &mut cache);
    let report = diff_sides(&a, &b, tolerance);
    print!("{}", render_diff_table(&report));
    if let Some(out) = out {
        write_report(out, "diff report", &render_diff_json(&report, &a.schema, &b.schema));
        println!("# diff report written to {}", out);
    }
    if !report.regressions().is_empty() {
        std::process::exit(1);
    }
}

fn report_cmd(ledger: &Option<String>, out: Option<&str>) {
    let Some(path) = ledger else {
        eprintln!("error: report needs a ledger (--ledger PATH)");
        std::process::exit(2);
    };
    let records = match obs::ledger::load(path) {
        Ok(r) if !r.is_empty() => r,
        Ok(_) => {
            eprintln!("error: ledger {} holds no records yet", path);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(1);
        }
    };
    let title = format!("Coflow run ledger — {}", path);
    let html = coflow_bench::dash::render_dash(&records, &title);
    let out = out.unwrap_or("dash.html");
    if let Err(e) = obs::atomic_write(out, &html) {
        eprintln!("error: {}", e);
        std::process::exit(1);
    }
    println!(
        "# dashboard over {} ledger records written to {}",
        records.len(),
        out
    );
}

fn verdict_cmd(
    gate: Option<&str>,
    status: Option<&str>,
    mut kvs: Vec<(String, String)>,
    note: &str,
    ledger: &Option<String>,
) {
    let Some(gate) = gate else {
        eprintln!("error: verdict needs --gate NAME");
        std::process::exit(2);
    };
    if let Some(status) = status {
        if status != "pass" && status != "fail" {
            eprintln!("error: --status must be pass or fail, got '{}'", status);
            std::process::exit(2);
        }
        kvs.push(("status".to_string(), status.to_string()));
    }
    if kvs.is_empty() {
        eprintln!("error: verdict needs --status or at least one --verdict K=V");
        std::process::exit(2);
    }
    append_ledger(ledger, coflow_bench::ledger::verdict_record(gate, kvs, note));
}

/// Writes a report via the shared atomic write-then-rename sink (which
/// also drops a `source:"report"` breadcrumb on the telemetry stream when
/// one is installed); a concurrent reader (or a SIGINT mid-write) never
/// sees a torn file.
fn write_report(path: &str, what: &str, contents: &str) {
    if let Err(e) = coflow_bench::sink::write_json_report(path, what, contents) {
        eprintln!("error: writing {}: {}", path, e);
        std::process::exit(1);
    }
}

/// Exits 130 (the conventional SIGINT code) if an interrupt arrived,
/// after the caller has flushed its partial report.
fn exit_if_interrupted(partial: &str) {
    if obs::interrupted() {
        eprintln!("interrupted: partial {} written; exiting", partial);
        std::process::exit(obs::SIGINT_EXIT_CODE);
    }
}

/// Reads a committed baseline-style file, failing with the file name and
/// the exact command that regenerates it when the file is missing, empty,
/// or truncated.
fn read_baseline_file(path: &str, what: &str, regen: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) if s.trim_start().starts_with('{') && s.trim_end().ends_with('}') => s,
        Ok(_) => {
            eprintln!(
                "error: {} '{}' is empty or truncated (not a complete JSON document).\n\
                 Regenerate it with:\n    {}",
                what, path, regen
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!(
                "error: cannot read {} '{}': {}.\n\
                 Regenerate it with:\n    {}",
                what, path, e, regen
            );
            std::process::exit(1);
        }
    }
}

fn chaos(seed: u64, args: &ChaosArgs) {
    use coflow_bench::chaos::{
        render_chaos, render_chaos_json, run_chaos, validate_chaos_json, worst_window_search,
        ChaosConfig, ChaosReport,
    };

    // Validation-only mode: check an existing report and exit.
    if let Some(path) = &args.validate {
        let regen = format!(
            "cargo run --release -p coflow-bench --bin experiments -- chaos --out {}",
            path
        );
        let text = read_baseline_file(path, "chaos report", &regen);
        match validate_chaos_json(&text) {
            Ok(summary) => {
                println!("{}: {}", path, summary);
                return;
            }
            Err(e) => {
                eprintln!("error: {}: {}", path, e);
                std::process::exit(1);
            }
        }
    }

    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let config = ChaosConfig {
        kills: args.kills,
        seed,
        fault_rate: args.fault_rate,
    };
    let mut report = run_chaos(&inst, &config);
    if obs::interrupted() {
        write_report(&args.out, "chaos report (partial)", &render_chaos_json(&report));
        exit_if_interrupted(&args.out);
    }
    if args.windows > 0 {
        let windows = worst_window_search(&inst, 2, 8, args.windows, seed);
        report = ChaosReport {
            windows: Some(windows),
            ..report
        };
    }
    print!("{}", render_chaos(&report));
    let rendered = render_chaos_json(&report);
    write_report(&args.out, "chaos report", &rendered);
    println!("# chaos report written to {}", args.out);
    exit_if_interrupted(&args.out);
    // Close the loop: the report must satisfy its own validator.
    match validate_chaos_json(&rendered) {
        Ok(summary) => println!("# {}", summary),
        Err(e) => {
            eprintln!("error: fresh chaos report failed validation: {}", e);
            std::process::exit(1);
        }
    }
}

fn profile(
    seed: u64,
    args: &ProfileArgs,
    ledger: &Option<String>,
    started: std::time::Instant,
) {
    use coflow_bench::profile::{
        compare_mem, compare_reports, render_json, render_mem_json, render_profile, run_profile,
    };

    let cfg = if args.full {
        // The paper's 150-rack cluster; solver budgets keep the H_LP cells
        // bounded (falling back would abort the profile, so the budgets are
        // generous).
        TraceConfig {
            ports: 150,
            num_coflows: 100,
            seed,
            flow_size_mu: 1.9,
            flow_size_sigma: 1.1,
            max_flow_size: 512,
            coflow_scale_sigma: 1.8,
            fanout_alpha: 0.7,
            ..TraceConfig::default()
        }
    } else {
        paper_scale_config(seed)
    };
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let lp_opts = SimplexOptions {
        max_iterations: 400_000,
        time_limit_ms: Some(120_000),
        stall_window: Some(40_000),
        ..SimplexOptions::default()
    };
    let report = run_profile(&inst, seed, &lp_opts);
    print!("{}", render_profile(&report));

    if let Some(trace_path) = &args.trace {
        // The registry still holds the last cell's events.
        if let Err(e) = obs::write_chrome_trace(trace_path) {
            eprintln!("error: writing chrome trace: {}", e);
            std::process::exit(1);
        }
        println!("# chrome trace (last cell) written to {}", trace_path);
    }

    let rendered = render_json(&report);
    write_report(&args.out, "profile grid report", &rendered);
    println!("# per-stage report written to {}", args.out);

    // Gate outcomes accumulate here; the run record carries them and the
    // process exits nonzero after the ledger append (a failed gate must
    // still leave its record behind for `diff`/`report` to explain).
    let mut gate_entries: Vec<(String, String)> = Vec::new();
    let mut gate_failed = false;

    if let Some(baseline_path) = &args.baseline {
        let regen = "scripts/bench-baseline.sh --update".to_string();
        let baseline = read_baseline_file(baseline_path, "profile baseline", &regen);
        let deltas = match compare_reports(&baseline, &rendered, args.tolerance) {
            Ok(d) => d,
            Err(e) => {
                eprintln!(
                    "error: comparing against baseline {}: {}.\nRegenerate it with:\n    {}",
                    baseline_path, e, regen
                );
                std::process::exit(1);
            }
        };
        let mut regressed = false;
        println!(
            "# baseline comparison vs {} (tolerance +{:.0}%):",
            baseline_path,
            args.tolerance * 100.0
        );
        for d in &deltas {
            println!(
                "#   {:<10} {:>10.2} ms -> {:>10.2} ms  {}",
                d.stage,
                d.baseline_ms,
                d.current_ms,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
            regressed |= d.regressed;
        }
        gate_entries.push((
            "perf-baseline".to_string(),
            if regressed { "fail" } else { "pass" }.to_string(),
        ));
        if regressed {
            eprintln!("error: per-stage regression beyond tolerance");
            gate_failed = true;
        }
    }

    if let Some(mem_out) = &args.mem_out {
        write_report(mem_out, "memory report", &render_mem_json(&report));
        println!("# memory report written to {}", mem_out);
    }

    if let Some(mem_baseline_path) = &args.mem_baseline {
        let regen = format!(
            "cargo run --release -p coflow-bench --bin experiments -- profile --mem-out {}",
            mem_baseline_path
        );
        let baseline = read_baseline_file(mem_baseline_path, "memory baseline", &regen);
        let current = render_mem_json(&report);
        let deltas = match compare_mem(&baseline, &current, args.mem_tolerance) {
            Ok(d) => d,
            Err(e) => {
                eprintln!(
                    "error: comparing against memory baseline {}: {}.\nRegenerate it with:\n    {}",
                    mem_baseline_path, e, regen
                );
                std::process::exit(1);
            }
        };
        let mut regressed = false;
        println!(
            "# memory comparison vs {} (tolerance +{:.0}%):",
            mem_baseline_path,
            args.mem_tolerance * 100.0
        );
        for d in &deltas {
            println!(
                "#   {:<24} {:>14.0} -> {:>14.0}  {}",
                d.metric,
                d.baseline,
                d.current,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
            regressed |= d.regressed;
        }
        gate_entries.push((
            "mem-baseline".to_string(),
            if regressed { "fail" } else { "pass" }.to_string(),
        ));
        if regressed {
            eprintln!("error: memory regression beyond tolerance");
            gate_failed = true;
        }
    }

    let mut rec = coflow_bench::ledger::record_from_profile(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    rec.verdicts = gate_entries;
    append_ledger(ledger, rec);
    if gate_failed {
        std::process::exit(1);
    }
}

fn explain(seed: u64, args: &ExplainArgs) {
    use coflow_bench::explain::{
        render_json, render_text, run_explain, validate_report, ValidateOpts,
    };

    // Validation-only mode: check an existing report and exit.
    if let Some(path) = &args.validate {
        let text = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading {}: {}", path, e);
                std::process::exit(1);
            }
        };
        let opts = ValidateOpts { expect_starvation: args.expect_starvation };
        match validate_report(&text, &opts) {
            Ok(summary) => {
                println!("{}: {}", path, summary);
                return;
            }
            Err(e) => {
                eprintln!("error: {}: {}", path, e);
                std::process::exit(1);
            }
        }
    }

    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let lp_opts = SimplexOptions {
        max_iterations: 400_000,
        time_limit_ms: Some(120_000),
        stall_window: Some(40_000),
        ..SimplexOptions::default()
    };
    obs::reset();
    obs::set_enabled(true);
    let report = run_explain(
        &inst,
        seed,
        &lp_opts,
        args.faults,
        &coflow::DiagnosticsConfig::default(),
    );
    obs::set_enabled(false);
    print!("{}", render_text(&report));

    write_report(&args.out, "diagnostics report", &render_json(&report));
    println!("# diagnostics report written to {}", args.out);

    if let Some(svg_path) = &args.svg {
        // Re-run the attribution cell to materialize its trace for the
        // heatmap (run_with_order is cheap next to the LP).
        let att = report.attribution_cell();
        let order = att.diag.committed_order.clone();
        let outcome =
            coflow::sched::run_with_order(&inst, order, att.grouping, att.backfill);
        let svg = coflow_netsim::render_svg_heatmap(&outcome.trace, 128);
        write_report(svg_path, "port-utilization heatmap", &svg);
        println!("# port-utilization heatmap written to {}", svg_path);
    }

    if let Some(trace_path) = &args.trace {
        if let Err(e) = obs::write_chrome_trace(trace_path) {
            eprintln!("error: writing chrome trace: {}", e);
            std::process::exit(1);
        }
        println!("# chrome trace (spans + anomaly instants) written to {}", trace_path);
    }

    // Gate: fail on firings at or above the requested severity. Fault
    // sections are expected to fire; the clean grid is not.
    let mut firings = 0usize;
    for cell in &report.cells {
        firings += cell.diag.anomalies_at_least(args.severity).count();
    }
    let fault_firings = report
        .faults
        .as_ref()
        .map(|f| f.diag.anomalies_at_least(args.severity).count())
        .unwrap_or(0);
    if args.expect_starvation {
        let starved = report
            .faults
            .as_ref()
            .map(|f| {
                f.diag
                    .anomalies
                    .iter()
                    .any(|a| a.detector == coflow::Detector::Starvation)
            })
            .unwrap_or(false);
        if !starved {
            eprintln!("error: expected a starvation firing under faults, found none");
            std::process::exit(1);
        }
        println!(
            "# faults section fired {} anomalies at >= {} (expected)",
            fault_firings,
            args.severity.name()
        );
    } else {
        firings += fault_firings;
    }
    if firings > 0 {
        eprintln!(
            "error: {} anomalies at or above severity '{}'",
            firings,
            args.severity.name()
        );
        std::process::exit(1);
    }
}

fn trace_banner(cfg: &TraceConfig) {
    println!(
        "# synthetic trace: {} ports, {} coflows, seed {}",
        cfg.ports, cfg.num_coflows, cfg.seed
    );
}

/// The experiment filters are scaled with the fabric: the paper filters a
/// 150-port trace at `M0 ≥ 30/40/50`; at 60 ports the same fraction of the
/// fabric corresponds to roughly 12/16/20.
fn scaled_filters(ports: usize) -> [usize; 3] {
    let scale = ports as f64 / 150.0;
    [
        (50.0 * scale).round() as usize,
        (40.0 * scale).round() as usize,
        (30.0 * scale).round() as usize,
    ]
}

fn table1(seed: u64) {
    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let trace = generate_trace(&cfg);
    println!("== Table 1: normalized total weighted completion times ==");
    let filters = scaled_filters(cfg.ports);
    println!(
        "(width filters scaled to the {}-port fabric: {:?})",
        cfg.ports, filters
    );
    for &filter in &filters {
        for scheme in [
            WeightScheme::Equal,
            WeightScheme::RandomPermutation { seed },
        ] {
            let block = coflow_bench::table1::run_block(&trace, filter, scheme);
            println!("{}", render_table1_block(&block));
        }
    }
}

fn fig2a(seed: u64) {
    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let trace = generate_trace(&cfg);
    let filter = scaled_filters(cfg.ports)[0];
    println!("{}", render_fig2a(&run_fig2a(&trace, filter, seed)));
}

fn fig2b(seed: u64) {
    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let trace = generate_trace(&cfg);
    let filter = scaled_filters(cfg.ports)[0];
    println!("{}", render_fig2b(&run_fig2b(&trace, filter, seed)));
}

fn lpexp(seed: u64) {
    // LP-EXP is exponential in the horizon: run at reduced scale.
    let cfg = TraceConfig {
        ports: 10,
        num_coflows: 12,
        seed,
        flow_size_mu: 0.9,
        flow_size_sigma: 0.7,
        max_flow_size: 8,
        ..TraceConfig::default()
    };
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    println!("{}", render_lowerbound(&run_lowerbound(&inst)));
}

fn ratios(seed: u64) {
    println!("{}", render_ratios(&run_ratios(24, seed)));
}

fn gridsweep(seed: u64) {
    // Small instance: the sweep also solves (LP-EXP) as the limit.
    let cfg = TraceConfig {
        ports: 10,
        num_coflows: 12,
        seed,
        flow_size_mu: 0.9,
        flow_size_sigma: 0.7,
        max_flow_size: 8,
        ..TraceConfig::default()
    };
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let sweep = coflow_bench::gridsweep::run_gridsweep(&inst, &[4.0, 2.0, 1.5, 1.25, 1.1]);
    println!("{}", coflow_bench::gridsweep::render_gridsweep(&sweep));
}

fn integrality(seed: u64) {
    let cfg = TraceConfig {
        ports: 24,
        num_coflows: 40,
        seed,
        max_flow_size: 128,
        ..TraceConfig::default()
    };
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let report = coflow_bench::integrality::run_integrality(&inst);
    println!("{}", coflow_bench::integrality::render_integrality(&report));
}

fn faults(seed: u64, policies: Option<&str>) {
    // Full 150-port fabric (the paper's cluster size): presolve keeps the
    // interval LP tractable, and the solver budgets below turn any
    // numerical trouble into recorded fallback-tier degradation instead of
    // a panic.
    let cfg = TraceConfig {
        ports: 150,
        num_coflows: 100,
        seed,
        flow_size_mu: 1.9,
        flow_size_sigma: 1.1,
        max_flow_size: 512,
        coflow_scale_sigma: 1.8,
        fanout_alpha: 0.7,
        ..TraceConfig::default()
    };
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let lp_opts = SimplexOptions {
        max_iterations: 200_000,
        time_limit_ms: Some(30_000),
        stall_window: Some(20_000),
        ..SimplexOptions::default()
    };
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let report = run_faults(&inst, &rates, seed, &lp_opts);
    print!("{}", render_faults(&report));
    exit_if_interrupted("fault-sweep table (printed above)");
    // The engine-only policies under the same seeded plans — the default
    // online/online-stale/greedy trio, or any fault-capable registry
    // selection via --policies (with `all` = every fault-capable canonical
    // policy; the open-loop BvN batch planner sits this table out).
    let report = match policies {
        Some(spec) => {
            let names: Vec<String> = if spec == "all" {
                coflow::PolicyRegistry::builtin()
                    .canonical()
                    .into_iter()
                    .filter(|e| e.caps.supports_faults)
                    .map(|e| e.name.to_string())
                    .collect()
            } else {
                spec.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            };
            match run_fault_policies_selected(&inst, &rates, seed, &names) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: --policies {}: {}", spec, e);
                    std::process::exit(2);
                }
            }
        }
        None => run_fault_policies(&inst, &rates, seed),
    };
    print!("{}", render_fault_policies(&report));
    exit_if_interrupted("fault-policy table (printed above)");
}

/// Parses a comma-separated list of positive integers (`--ports 100,1000`).
fn parse_usize_list(value: &str, flag: &str) -> Vec<usize> {
    let parsed: Option<Vec<usize>> = value
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&v| v > 0))
        .collect();
    match parsed {
        Some(list) if !list.is_empty() => list,
        _ => {
            eprintln!(
                "error: {} needs a comma-separated list of positive integers, got '{}'",
                flag, value
            );
            std::process::exit(2);
        }
    }
}

fn scale(seed: u64, args: &ScaleArgs, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::scale::{
        compare_scale, render_scale, render_scale_json, run_scale, DEFAULT_CELLS,
    };

    // Resolve the swept cells: an explicit --cell wins; --ports/--coflows
    // build the cross product; otherwise the committed default curve.
    let cells: Vec<(usize, usize)> = if let Some(cell) = args.cell {
        vec![cell]
    } else if args.ports.is_some() || args.coflows.is_some() {
        let default_ports: Vec<usize> = DEFAULT_CELLS.iter().map(|&(p, _)| p).collect();
        let default_coflows: Vec<usize> = DEFAULT_CELLS.iter().map(|&(_, c)| c).collect();
        let ports = args.ports.as_deref().unwrap_or(&default_ports);
        let coflows = args.coflows.as_deref().unwrap_or(&default_coflows);
        let mut cells = Vec::new();
        for &p in ports {
            for &c in coflows {
                if !cells.contains(&(p, c)) {
                    cells.push((p, c));
                }
            }
        }
        cells
    } else {
        DEFAULT_CELLS.to_vec()
    };

    // Read the baseline before the sweep so a missing file fails fast.
    let baseline = args.check.as_ref().map(|check| {
        let regen = format!(
            "cargo run --release -p coflow-bench --bin experiments -- scale --out {}",
            check
        );
        read_baseline_file(check, "scale baseline", &regen)
    });

    println!(
        "# scale sweep: {} cells, window {}, seed {}",
        cells.len(),
        args.window,
        seed
    );
    let report = run_scale(&cells, seed, args.window);
    print!("{}", render_scale(&report));
    let rendered = render_scale_json(&report);

    // A gate run (--check without --out) must not clobber the committed
    // baseline with its single-cell subset.
    let write_out = args.check.is_none() || out_flag_differs(&args.out, args.check.as_deref());
    if write_out {
        write_report(&args.out, "scale report", &rendered);
        println!("# scale report written to {}", args.out);
    }
    exit_if_interrupted(&args.out);

    let mut rec = coflow_bench::ledger::record_from_scale(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    let mut gate_failed = false;
    if let Some(baseline) = baseline {
        let check = args.check.as_deref().unwrap_or_default();
        match compare_scale(&baseline, &rendered, args.wall_tolerance, args.alloc_tolerance) {
            Ok(deltas) => {
                let mut regressed = false;
                println!(
                    "# scale comparison vs {} (wall +{:.0}%, alloc +{:.0}%):",
                    check,
                    args.wall_tolerance * 100.0,
                    args.alloc_tolerance * 100.0
                );
                for d in &deltas {
                    println!(
                        "#   {:<18} {:<12} {:>16.2} -> {:>16.2}  {}",
                        d.cell,
                        d.metric,
                        d.baseline,
                        d.current,
                        if d.regressed { "REGRESSED" } else { "ok" }
                    );
                    regressed |= d.regressed;
                }
                rec.verdicts.push((
                    "scale-baseline".to_string(),
                    if regressed { "fail" } else { "pass" }.to_string(),
                ));
                if regressed {
                    eprintln!("error: scale regression beyond tolerance");
                    gate_failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: comparing against scale baseline {}: {}", check, e);
                rec.verdicts.push(("scale-baseline".to_string(), "fail".to_string()));
                gate_failed = true;
            }
        }
    }
    append_ledger(ledger, rec);
    if gate_failed {
        std::process::exit(1);
    }
}

/// True when `--out` was explicitly pointed away from the checked
/// baseline (the default out path is suppressed under `--check`).
fn out_flag_differs(out: &str, check: Option<&str>) -> bool {
    match check {
        Some(check) => out != "BENCH_scale.json" && out != check,
        None => true,
    }
}

fn pin(seed: u64, args: &PinArgs, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::pins::{collect_pins, compare_pins, parse_pins, render_pins, render_pins_json};

    // Read and parse the committed pin file *before* the expensive pin
    // collection, so a missing/truncated file fails in milliseconds with
    // the regeneration command instead of after a full grid run.
    let checked = args.check.as_ref().map(|check| {
        let regen = format!(
            "cargo run --release -p coflow-bench --bin experiments -- pin --out {}",
            check
        );
        let text = read_baseline_file(check, "pin file", &regen);
        match parse_pins(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "error: {}: {}.\nRegenerate it with:\n    {}",
                    check, e, regen
                );
                std::process::exit(1);
            }
        }
    });

    let report = collect_pins(seed);
    print!("{}", render_pins(&report));

    if let Some(out) = &args.out {
        write_report(out, "pin file", &render_pins_json(&report));
        println!("# pin file written to {}", out);
    }

    let mut rec = coflow_bench::ledger::record_from_pins(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    let mut gate_failed = false;
    if let Some(check) = &args.check {
        let baseline = match checked {
            Some(b) => b,
            None => unreachable!(),
        };
        let status = match compare_pins(&baseline, &report, args.tolerance) {
            Ok(summary) => {
                println!("# {}: {}", check, summary);
                "pass"
            }
            Err(e) => {
                eprintln!("error: pin gate failed vs {}: {}", check, e);
                gate_failed = true;
                "fail"
            }
        };
        rec.verdicts.push(("pin-check".to_string(), status.to_string()));
    }
    append_ledger(ledger, rec);
    if gate_failed {
        std::process::exit(1);
    }
}

fn tournament(
    seed: u64,
    args: &TournamentArgs,
    ledger: &Option<String>,
    started: std::time::Instant,
) {
    use coflow_bench::tournament::{
        compare_tournament, render_tournament, render_tournament_json, run_tournament,
        validate_tournament_json,
    };

    // Read the committed golden *before* the runs so a missing/truncated
    // file fails in milliseconds with the regeneration command.
    let baseline = args.check.as_ref().map(|check| {
        let regen = format!(
            "cargo run --release -p coflow-bench --bin experiments -- tournament --out {}",
            check
        );
        read_baseline_file(check, "tournament golden", &regen)
    });

    let inst = coflow_bench::arrivals::arrivals_instance(24, 36, seed);
    println!(
        "# tournament: 24 ports, 36 coflows, selection '{}', seed {}",
        args.policies, seed
    );
    let report = match run_tournament(&inst, seed, &args.policies) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(2);
        }
    };
    print!("{}", render_tournament(&report));
    let rendered = render_tournament_json(&report);

    // A gate run (--check without an explicit --out elsewhere) must not
    // clobber the committed golden.
    let write_out = args.check.is_none()
        || (args.out != "BENCH_tournament.json"
            && Some(args.out.as_str()) != args.check.as_deref());
    if write_out {
        write_report(&args.out, "tournament report", &rendered);
        println!("# tournament report written to {}", args.out);
    }
    exit_if_interrupted(&args.out);

    let mut gate_entries: Vec<(String, String)> = Vec::new();
    let mut gate_failed = false;

    // Close the loop: the fresh report must satisfy its own validator —
    // every ratio >= 1 and within the policy's proven bound, canonical
    // registry coverage, fault-round consistency.
    match validate_tournament_json(&rendered) {
        Ok(summary) => {
            println!("# {}", summary);
            gate_entries.push(("tournament-validate".to_string(), "pass".to_string()));
        }
        Err(e) => {
            eprintln!("error: fresh tournament report failed validation: {}", e);
            gate_entries.push(("tournament-validate".to_string(), "fail".to_string()));
            gate_failed = true;
        }
    }

    if let Some(baseline) = baseline {
        let check = args.check.as_deref().unwrap_or_default();
        match compare_tournament(&baseline, &rendered, args.tolerance) {
            Ok(deltas) => {
                let mut regressed = false;
                println!(
                    "# tournament comparison vs {} (objectives bit-exact, wall +{:.0}%):",
                    check,
                    args.tolerance * 100.0
                );
                for d in &deltas {
                    println!(
                        "#   {:<5} {:<16} {:<15} {:>14.3} -> {:>14.3}  {}",
                        d.section,
                        d.policy,
                        d.metric,
                        d.baseline,
                        d.current,
                        if d.regressed { "REGRESSED" } else { "ok" }
                    );
                    regressed |= d.regressed;
                }
                gate_entries.push((
                    "tournament-golden".to_string(),
                    if regressed { "fail" } else { "pass" }.to_string(),
                ));
                if regressed {
                    eprintln!("error: tournament regression vs the committed golden");
                    gate_failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: comparing against tournament golden {}: {}", check, e);
                gate_entries.push(("tournament-golden".to_string(), "fail".to_string()));
                gate_failed = true;
            }
        }
    }

    let mut rec = coflow_bench::ledger::record_from_tournament(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    rec.verdicts = gate_entries;
    append_ledger(ledger, rec);
    if gate_failed {
        std::process::exit(1);
    }
}

fn arrivals(seed: u64) {
    let inst = coflow_bench::arrivals::arrivals_instance(24, 36, seed);
    println!(
        "# arrivals trace: 24 ports, 36 coflows, Poisson arrivals, seed {}",
        seed
    );
    let report = coflow_bench::arrivals::run_arrivals(&inst);
    println!("{}", coflow_bench::arrivals::render_arrivals(&report));
}
