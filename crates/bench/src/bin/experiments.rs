//! Regenerates every table and figure of the paper's evaluation, and
//! gates the committed reports.
//!
//! `experiments` with a bad argument prints the usage text, which lists
//! every subcommand and the flags it takes (`COMMANDS`, also what the
//! argument check reads). Every subcommand also takes `--seed N`,
//! `--ledger PATH|none` and `--telemetry PATH`. An unknown flag, a flag
//! the subcommand does not take, or an operand it does not take exits 2
//! with the usage text.
//!
//! Every workload subcommand appends one self-contained `coflow-ledger/1`
//! record to the run ledger (default `LEDGER.ndjson`; `--ledger PATH` or
//! `COFLOW_LEDGER` overrides, `--ledger none` disables): command, seed,
//! config fingerprint, git provenance, per-stage wall-clock and
//! allocation attribution, peak RSS, per-cell objectives, and gate
//! verdicts. Ledger appends are non-fatal — a read-only checkout still
//! runs every experiment.
//!
//! `gate NAME` judges a fresh run against a committed golden with the one
//! regression model of `coflow_bench::gate`: `perf` profiles the grid
//! against `BENCH_baseline.json`, `mem` its memory view against
//! `BENCH_mem.json`, `pins` the engine pins against `BENCH_pins.json`,
//! `scale` the m=1,000 / 10k-coflow cell against the matching cell of
//! `BENCH_scale.json`, and `tournament` the race against
//! `BENCH_tournament.json` (after its own check). It reads the golden
//! first (a missing or malformed golden fails with the command that
//! regenerates it), runs the workload, prints one verdict table (exact
//! rows bit for bit, wall and alloc rows against the rule table's
//! tolerance and floor), appends the run record and a `gate-NAME` verdict
//! record, and exits 1 on any regressed or one-sided row. It never writes
//! a golden; the workload subcommands (`profile --out`, `pin --out`, …)
//! regenerate them.
//!
//! `diff A B` compares two runs. `A`/`B` are ledger selectors (`latest`,
//! `prev`, `~N`, `#SEQ`, `green`) or paths to committed reports
//! (`coflow-bench-grid/3`, `coflow-bench-mem/1`, `coflow-pins/1`,
//! `coflow-bench-scale/2`, `coflow-tournament/2`); the default is `prev
//! latest`. It prints a per-metric table, optionally writes a
//! `coflow-diff/1` document (`--out`), and exits 1 on any regression past
//! `--tolerance` (default 0.5; objectives are bit-exact regardless of
//! tolerance) — so it doubles as a gate.
//!
//! `report` renders the whole ledger as a self-contained HTML dashboard
//! (inline CSS + SVG, no external assets): per-stage trend sparklines,
//! memory trajectories, objective comparison tables, gate-verdict
//! history. `verdict` appends a gate outcome record;
//! `scripts/check-all.sh` calls it with one status per step.
//!
//! `--telemetry PATH` (any subcommand) installs the streaming NDJSON sink:
//! one self-contained `coflow-telemetry/1` line per heartbeat appended (and
//! flushed) to `PATH` while the run progresses — engine decision epochs,
//! fault replans, per-cell profile samples, report writes. Because every
//! line is flushed before the next heartbeat, the stream is valid NDJSON
//! even after a SIGINT. Tail it live with `scripts/watch-telemetry.sh PATH`.
//!
//! No subcommand but `report` writes a file it is not given: every report
//! lands at `--out PATH` (or `--mem-out`, `--svg`, `--trace`) only.
//!
//! `profile` runs the 12-cell grid with the `obs` registry enabled and
//! prints a per-stage timing/counter table; `--out` writes the report
//! (schema `coflow-bench-grid/3` — `/3` adds a per-cell `mem` object: peak
//! live bytes, peak RSS, per-stage allocation attribution); `--trace`
//! additionally writes a chrome://tracing view of the last cell; `--full`
//! profiles the paper's 150-port fabric instead of the default reduced
//! scale. `--mem-out` writes the compact `coflow-bench-mem/1` memory
//! report.
//!
//! `explain` runs the schedule-forensics pipeline over the same grid:
//! per-coflow LP attribution, anomaly detectors, and a
//! `coflow-diagnostics/1` JSON report (`--out`). It exits 1 when the
//! attribution cell leaves a coflow out or a ratio outside [1, 67/3], or
//! when any detector fires at or above `--severity` (default `warning`);
//! `--faults RATE` adds a fault-injected section, which
//! `--expect-starvation` requires to fire the starvation detector instead
//! of staying quiet; `--svg` writes the attribution cell's
//! port-utilization heatmap; `--trace` writes the chrome trace (spans +
//! anomaly instants).
//!
//! `chaos` runs the crash-safety harness on the 60-port cell: every engine
//! policy is killed at randomized decision epochs, checkpointed to a
//! `coflow-snapshot/1` document, restored from the re-parsed document, and
//! required to finish **bit-identically** to an uninterrupted run, with
//! demand-conservation and monotone-progress invariants checked at every
//! kill; the run panics on the first violation. `--windows N` adds the
//! adversarial worst-window search (targeted outages vs matched-budget
//! random plans). `--out` writes the `coflow-chaos/2` report.
//!
//! All subcommands install a SIGINT handler: an interrupt finishes the
//! current unit of work, prints (and, with `--out`, writes via the shared
//! atomic write-then-rename sink) whatever partial report exists, and
//! exits 130.
//!
//! `scale` runs the streaming scale sweep (`coflow-bench-scale/2`): each
//! `(ports, coflows)` cell streams its workload in admission windows
//! through the `greedy` registry policy on the engine, one window after
//! another, and replays every window's schedule — recording wall-clock
//! per stage (gen/sched/verify), peak RSS, allocator counts, and the
//! deterministic objective. The default cells form the committed
//! `BENCH_scale.json` curve up to 10,000 ports and 10⁶ streamed coflows
//! (`scale --out BENCH_scale.json` regenerates it).
//! `--cell 1000x10000` runs one cell; `--ports`/`--coflows` sweep a custom
//! cross product; `--window` sets the admission window.
//!
//! `pin` recomputes the engine's 22 pinned objectives — the 12-cell grid,
//! the online scheduler, the greedy baseline, the successor policies and
//! the fault-injected combinations, the watchdog's Finished rescue among
//! them — on the canonical arrivals instance;
//! `--out` writes a pin file.
//!
//! `tournament` races a registry selection of schedulers (`--policies
//! a,b,c`, default `all` = the registry's six) across the whole harness on
//! the canonical arrivals instance: a clean round (TWCT and measured
//! approximation ratio against the interval-LP lower bound, per-policy
//! wall-clock), a fault round under one shared rate-0.20 plan (objective
//! inflation over the surviving coflows), and a scale round where each
//! policy streams the 96×960 cell through the engine on its own run. The
//! `coflow-tournament/2` report lands at `--out`, and
//! the run is checked on the report it built (every ratio ≥ 1 and within
//! the policy's proven bound). The `faults` subcommand
//! accepts the same `--policies` list to extend its engine-policy table
//! beyond the default `online`/`greedy` pair.
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
use coflow_bench::ratios::run_ratios;
use coflow_bench::report::{
    render_fig2a, render_fig2b, render_lowerbound, render_ratios, render_table1_block,
};
use coflow_lp::SimplexOptions;
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

/// Every option of every subcommand. Each flag sets one field, which
/// subcommands take it is [`accepts`], and each subcommand applies its
/// own default.
#[derive(Default)]
struct Args {
    seed: Option<u64>,
    ledger: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    full: bool,
    mem_out: Option<String>,
    ports: Option<Vec<usize>>,
    coflows: Option<Vec<usize>>,
    cell: Option<(usize, usize)>,
    window: Option<usize>,
    kills: Option<usize>,
    windows: usize,
    faults: Option<f64>,
    svg: Option<String>,
    severity: Option<coflow::Severity>,
    expect_starvation: bool,
    policies: Option<String>,
    tolerance: Option<f64>,
    gate: Option<String>,
    status: Option<String>,
    note: String,
    verdicts: Vec<(String, String)>,
}

/// Flags every subcommand takes.
const GLOBAL_FLAGS: [&str; 3] = ["--seed N", "--ledger PATH|none", "--telemetry PATH"];

/// The subcommands, as `(names, operands, flags)`: `|`-separated names,
/// the operands they take, and their flags, each with its value's
/// placeholder (none for a switch). [`accepts`] and the usage text both
/// read this table.
type Command = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);
const COMMANDS: [Command; 12] = [
    (
        "table1|fig2a|fig2b|lpexp|ratios|gridsweep|integrality|arrivals|all",
        &[],
        &[],
    ),
    ("faults", &[], &["--policies a,b,c|all"]),
    (
        "profile",
        &[],
        &["--out PATH", "--trace PATH", "--full", "--mem-out PATH"],
    ),
    (
        "explain",
        &[],
        &[
            "--out PATH",
            "--svg PATH",
            "--trace PATH",
            "--faults RATE",
            "--severity LEVEL",
            "--expect-starvation",
        ],
    ),
    ("pin", &[], &["--out PATH"]),
    (
        "scale",
        &[],
        &[
            "--ports LIST",
            "--coflows LIST",
            "--cell MxN",
            "--window W",
            "--out PATH",
        ],
    ),
    (
        "chaos",
        &[],
        &["--kills N", "--windows N", "--faults RATE", "--out PATH"],
    ),
    ("tournament", &[], &["--policies a,b,c|all", "--out PATH"]),
    ("gate", &["perf|mem|pins|scale|tournament"], &[]),
    ("diff", &["[A]", "[B]"], &["--tolerance F", "--out PATH"]),
    ("report", &[], &["--out PATH"]),
    (
        "verdict",
        &[],
        &[
            "--gate NAME",
            "--status pass|fail",
            "--verdict K=V",
            "--note STR",
        ],
    ),
];

/// The flag a [`COMMANDS`] flag entry names.
fn flag_name(entry: &str) -> &str {
    entry.split(' ').next().unwrap_or(entry)
}

/// The usage text, one line per [`COMMANDS`] entry, wrapped at 80
/// columns.
fn usage_text() -> String {
    let optional = |flag: &&str| format!(" [{}]", flag);
    let global: String = GLOBAL_FLAGS.iter().map(optional).collect();
    let mut text = format!("usage: experiments [SUBCOMMAND]{}", global);
    for (names, operands, flags) in COMMANDS {
        let mut line = format!("\n  {}", names);
        let words = operands.iter().map(|o| format!(" {}", o));
        for word in words.chain(flags.iter().map(optional)) {
            if line.len() + word.len() > 80 {
                text += &line;
                line = format!("\n{:width$}", "", width = names.len() + 2);
            }
            line += &word;
        }
        text += &line;
    }
    text
}

/// Prints `error` and the usage text, and exits 2.
fn usage(error: &str) -> ! {
    eprintln!("error: {}\n{}", error, usage_text());
    std::process::exit(2);
}

/// Whether `subcommand` takes the flag `flag` besides [`GLOBAL_FLAGS`],
/// and how many operands; `None` for an unknown subcommand.
fn accepts(subcommand: &str) -> Option<(impl Fn(&str) -> bool, usize)> {
    let (_, operands, flags) = COMMANDS
        .iter()
        .find(|(names, _, _)| names.split('|').any(|n| n == subcommand))?;
    Some((
        move |flag: &str| flags.iter().any(|f| flag_name(f) == flag),
        operands.len(),
    ))
}

/// Parses `value` of `flag`, or exits 2 saying it must be `what`.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {} must be {}, got '{}'", flag, what, value);
        std::process::exit(2);
    })
}

fn main() {
    obs::install_sigint_handler();
    let started = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut operands: Vec<String> = Vec::new();
    let mut flags: Vec<String> = Vec::new();
    let mut args = Args::default();
    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        if a.starts_with('-') {
            flags.push(a.clone());
        }
        let mut value_of = |flag: &str| -> String {
            match iter.next() {
                Some(v) => v.clone(),
                None => usage(&format!("{} needs a value", flag)),
            }
        };
        match a.as_str() {
            "--seed" => args.seed = Some(parsed("--seed", &value_of(a), "an integer")),
            "--out" => args.out = Some(value_of(a)),
            "--ports" => args.ports = Some(parse_usize_list(&value_of(a), a)),
            "--coflows" => args.coflows = Some(parse_usize_list(&value_of(a), a)),
            "--cell" => {
                let value = value_of(a);
                let side = |s: &str| s.trim().parse::<std::num::NonZeroUsize>().ok();
                args.cell = match value
                    .split_once('x')
                    .and_then(|(m, n)| Some((side(m)?, side(n)?)))
                {
                    Some((m, n)) => Some((m.get(), n.get())),
                    None => usage(&format!(
                        "--cell needs PORTSxCOFLOWS, two positive integers (e.g. 1000x10000), \
                         got '{}'",
                        value
                    )),
                };
            }
            "--window" => {
                let window: std::num::NonZeroUsize =
                    parsed("--window", &value_of(a), "a positive integer");
                args.window = Some(window.get());
            }
            "--ledger" => args.ledger = Some(value_of(a)),
            "--gate" => args.gate = Some(value_of(a)),
            "--status" => args.status = Some(value_of(a)),
            "--note" => args.note = value_of(a),
            "--verdict" => {
                let value = value_of(a);
                match value.split_once('=') {
                    Some((k, v)) => args.verdicts.push((k.to_string(), v.to_string())),
                    None => {
                        eprintln!("error: --verdict needs KEY=VALUE, got '{}'", value);
                        std::process::exit(2);
                    }
                }
            }
            "--kills" => args.kills = Some(parsed("--kills", &value_of(a), "an integer")),
            "--windows" => args.windows = parsed("--windows", &value_of(a), "an integer"),
            "--trace" => args.trace = Some(value_of(a)),
            "--mem-out" => args.mem_out = Some(value_of(a)),
            "--telemetry" => {
                let value = value_of(a);
                if let Err(e) = obs::telemetry::install(&value) {
                    eprintln!("error: opening telemetry sink {}: {}", value, e);
                    std::process::exit(2);
                }
            }
            "--svg" => args.svg = Some(value_of(a)),
            "--faults" => args.faults = Some(parsed("--faults", &value_of(a), "a rate")),
            "--severity" => {
                let value = value_of(a);
                args.severity = match coflow::Severity::parse(&value) {
                    Some(s) => Some(s),
                    None => {
                        eprintln!(
                            "error: --severity must be info|warning|critical, got '{}'",
                            value
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--expect-starvation" => args.expect_starvation = true,
            "--policies" => args.policies = Some(value_of(a)),
            "--tolerance" => args.tolerance = Some(parsed("--tolerance", &value_of(a), "a number")),
            "--full" => args.full = true,
            flag if flag.starts_with('-') => usage(&format!("unknown flag '{}'", flag)),
            other => {
                // The first operand selects the subcommand; the rest are
                // its operands (the diff sides, the gate name).
                if which.is_none() {
                    which = Some(other.to_string());
                } else {
                    operands.push(other.to_string());
                }
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let Some((takes, max_operands)) = accepts(&which) else {
        usage(&format!("unknown experiment '{}'", which));
    };
    let global = |flag: &str| GLOBAL_FLAGS.iter().any(|f| flag_name(f) == flag);
    if let Some(flag) = flags.iter().find(|f| !global(f) && !takes(f)) {
        usage(&format!("{} does not take {}", which, flag));
    }
    if let Some(extra) = operands.get(max_operands) {
        usage(&format!("{} does not take the operand '{}'", which, extra));
    }
    let seed = args.seed.unwrap_or(2015);
    let ledger = coflow_bench::ledger::ledger_path(args.ledger.as_deref());

    match which.as_str() {
        "table1" => table1(seed),
        "fig2a" => fig2a(seed),
        "fig2b" => fig2b(seed),
        "lpexp" => lpexp(seed),
        "ratios" => ratios(seed),
        "gridsweep" => gridsweep(seed),
        "integrality" => integrality(seed),
        "arrivals" => arrivals(seed),
        "faults" => faults(seed, args.policies.as_deref()),
        "profile" => profile(seed, &args, &ledger, started),
        "explain" => explain(seed, &args),
        "pin" => pin(seed, args.out.as_deref(), &ledger, started),
        "scale" => scale(seed, &args, &ledger, started),
        "chaos" => chaos(seed, &args),
        "tournament" => tournament(seed, &args, &ledger, started),
        "gate" => match operands.first() {
            Some(name) => gate_cmd(name, seed, &ledger, started),
            None => usage("gate needs a gate name"),
        },
        "diff" => diff_cmd(&operands, args.tolerance, &ledger, args.out.as_deref()),
        "report" => report_cmd(&ledger, args.out.as_deref()),
        "verdict" => verdict_cmd(
            args.gate.as_deref(),
            args.status.as_deref(),
            args.verdicts,
            &args.note,
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
        other => unreachable!("accepts() rejected '{}'", other),
    }

    // The simple experiment subcommands record a base run entry (workload
    // identity + wall-clock + memory marks); profile, pin, scale,
    // tournament and gate append their own enriched records above, and
    // diff/report/verdict are not runs.
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
        Ok(seq) => println!(
            "# ledger: appended {} record seq {} to {}",
            rec.kind, seq, path
        ),
        Err(e) => eprintln!("warning: ledger append failed: {}", e),
    }
}

/// Resolves one side of a diff to its rows and identity: an existing file
/// path is flattened as a committed report; anything else is a ledger
/// selector.
fn diff_side(
    spec: &str,
    ledger: &Option<String>,
    cache: &mut Option<Vec<obs::ledger::LedgerRecord>>,
) -> (coflow_bench::gate::Flat, String) {
    use coflow_bench::gate::{flatten, flatten_record, Flat};
    if std::path::Path::new(spec).is_file() {
        let text = match std::fs::read_to_string(spec) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {}: {}", spec, e);
                std::process::exit(2);
            }
        };
        match flatten(&text) {
            Ok(flat) => return (flat, spec.to_string()),
            Err(e) => {
                eprintln!("error: {}: {}", spec, e);
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
            Ok(loaded) => {
                if let Some(warning) = loaded.skipped_warning(path) {
                    eprintln!("{}", warning);
                }
                *cache = Some(loaded.records);
            }
            Err(e) => {
                eprintln!("error: {}", e);
                std::process::exit(2);
            }
        }
    }
    let records = cache.as_ref().map(|r| r.as_slice()).unwrap_or(&[]);
    match coflow_bench::ledger::select(records, spec) {
        Ok(rec) => (
            Flat {
                schema: obs::ledger::LEDGER_SCHEMA,
                metrics: flatten_record(rec),
            },
            coflow_bench::diff::record_id(rec, spec),
        ),
        Err(e) => {
            eprintln!("error: {}: {}", path, e);
            std::process::exit(2);
        }
    }
}

fn diff_cmd(
    operands: &[String],
    tolerance_flag: Option<f64>,
    ledger: &Option<String>,
    out: Option<&str>,
) {
    use coflow_bench::diff::{
        default_tolerance, diff_metrics, render_diff_json, render_diff_table,
    };
    let tolerance = tolerance_flag.unwrap_or_else(default_tolerance);
    let a_spec = operands.first().map(String::as_str).unwrap_or("prev");
    let b_spec = operands.get(1).map(String::as_str).unwrap_or("latest");
    let mut cache = None;
    let (a, a_id) = diff_side(a_spec, ledger, &mut cache);
    let (b, b_id) = diff_side(b_spec, ledger, &mut cache);
    let report = diff_metrics(&a.metrics, &b.metrics, &a_id, &b_id, tolerance);
    print!("{}", render_diff_table(&report));
    write_out(out, "diff report", || {
        render_diff_json(&report, a.schema, b.schema)
    });
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
        Ok(loaded) => {
            if let Some(warning) = loaded.skipped_warning(path) {
                eprintln!("{}", warning);
            }
            loaded.records
        }
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(1);
        }
    };
    if records.is_empty() {
        eprintln!("error: ledger {} holds no records yet", path);
        std::process::exit(1);
    }
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
    append_ledger(
        ledger,
        coflow_bench::ledger::verdict_record(gate, kvs, note),
    );
}

/// Writes the report `what` to `out` when the command was given one, via
/// the shared atomic write-then-rename sink (which also drops a
/// `source:"report"` breadcrumb on the telemetry stream when one is
/// installed); a concurrent reader (or a SIGINT mid-write) never sees a
/// torn file. Without a path nothing is rendered or written.
fn write_out(out: Option<&str>, what: &str, render: impl FnOnce() -> String) {
    let Some(path) = out else { return };
    if let Err(e) = coflow_bench::sink::write_json_report(path, what, &render()) {
        eprintln!("error: writing {}: {}", path, e);
        std::process::exit(1);
    }
    println!("# {} written to {}", what, path);
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

fn chaos(seed: u64, args: &Args) {
    use coflow_bench::chaos::{
        render_chaos, render_chaos_json, run_chaos, worst_window_search, ChaosConfig,
    };

    let cfg = paper_scale_config(seed);
    trace_banner(&cfg);
    let inst = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed },
    );
    let config = ChaosConfig {
        kills: args.kills.unwrap_or(4),
        seed,
        fault_rate: args.faults.unwrap_or(0.3),
    };
    // Every invariant is checked inside the run, which panics on the
    // first violation; a SIGINT skips the window search.
    let mut report = run_chaos(&inst, &config);
    if args.windows > 0 && !obs::interrupted() {
        report.windows = Some(worst_window_search(&inst, 2, 8, args.windows, seed));
    }
    print!("{}", render_chaos(&report));
    write_out(args.out.as_deref(), "chaos report", || {
        render_chaos_json(&report)
    });
    exit_if_interrupted(args.out.as_deref().unwrap_or("chaos table (printed above)"));
}

/// Profiles the 12-cell grid: the reduced default trace, or the paper's
/// 150-port fabric with `full`.
fn profile_report(seed: u64, full: bool) -> coflow_bench::profile::ProfileReport {
    let cfg = if full {
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
    let report = coflow_bench::profile::run_profile(&inst, seed, &lp_opts);
    print!("{}", coflow_bench::profile::render_profile(&report));
    report
}

fn profile(seed: u64, args: &Args, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::profile::{render_json, render_mem_json};

    let report = profile_report(seed, args.full);

    if let Some(trace_path) = &args.trace {
        // The registry still holds the last cell's events.
        if let Err(e) = obs::write_chrome_trace(trace_path) {
            eprintln!("error: writing chrome trace: {}", e);
            std::process::exit(1);
        }
        println!("# chrome trace (last cell) written to {}", trace_path);
    }

    write_out(args.out.as_deref(), "profile grid report", || {
        render_json(&report)
    });
    write_out(args.mem_out.as_deref(), "memory report", || {
        render_mem_json(&report)
    });

    let rec = coflow_bench::ledger::record_from_profile(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    append_ledger(ledger, rec);
}

fn explain(seed: u64, args: &Args) {
    use coflow_bench::explain::{check, render_json, render_text, run_explain};

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

    write_out(args.out.as_deref(), "diagnostics report", || {
        render_json(&report)
    });
    write_out(args.svg.as_deref(), "port-utilization heatmap", || {
        // Re-run the attribution cell to materialize its trace for the
        // heatmap (run_with_order is cheap next to the LP).
        let att = report.attribution_cell();
        let order = att.diag.committed_order.clone();
        let opts = coflow::ExecOptions::paper(att.spec.backfill);
        let outcome = coflow::sched::run_with_order(&inst, order, att.spec.grouping, opts);
        coflow_netsim::render_svg_heatmap(&outcome.trace, 128)
    });

    if let Some(trace_path) = &args.trace {
        if let Err(e) = obs::write_chrome_trace(trace_path) {
            eprintln!("error: writing chrome trace: {}", e);
            std::process::exit(1);
        }
        println!(
            "# chrome trace (spans + anomaly instants) written to {}",
            trace_path
        );
    }

    let severity = args.severity.unwrap_or(coflow::Severity::Warning);
    match check(&report, severity, args.expect_starvation) {
        Ok(summary) => println!("# {}", summary),
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(1);
        }
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
    coflow_bench::table1::WIDTH_FILTERS.map(|f| (f as f64 * scale).round() as usize)
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
    // `online`/`greedy` pair, or any fault-capable registry selection via
    // --policies (with `all` = every fault-capable registry policy; the
    // open-loop BvN batch planner sits this table out).
    let report = match policies {
        Some(spec) => {
            let names: Vec<String> = if spec == "all" {
                coflow::PolicyRegistry::builtin()
                    .entries()
                    .iter()
                    .filter(|e| e.supports_faults)
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

/// Runs the scale sweep; a window whose schedule fails its replay ends
/// the process with exit 1.
fn scale_report(
    cells: &[(usize, usize)],
    seed: u64,
    window: usize,
) -> coflow_bench::scale::ScaleReport {
    match coflow_bench::scale::run_scale(cells, seed, window) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(1);
        }
    }
}

fn scale(seed: u64, args: &Args, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::scale::{render_scale, render_scale_json, DEFAULT_CELLS};

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

    let window = args.window.unwrap_or(coflow_bench::scale::DEFAULT_WINDOW);
    println!(
        "# scale sweep: {} cells, window {}, seed {}",
        cells.len(),
        window,
        seed
    );
    let report = scale_report(&cells, seed, window);
    print!("{}", render_scale(&report));
    write_out(args.out.as_deref(), "scale report", || {
        render_scale_json(&report)
    });
    exit_if_interrupted(args.out.as_deref().unwrap_or("scale table (printed above)"));

    let rec =
        coflow_bench::ledger::record_from_scale(&report, started.elapsed().as_secs_f64() * 1000.0);
    append_ledger(ledger, rec);
}

fn pin(seed: u64, out: Option<&str>, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::pins::{collect_pins, render_pins, render_pins_json};

    let report = collect_pins(seed);
    print!("{}", render_pins(&report));

    write_out(out, "pin file", || render_pins_json(&report));

    let rec =
        coflow_bench::ledger::record_from_pins(&report, started.elapsed().as_secs_f64() * 1000.0);
    append_ledger(ledger, rec);
}

/// Races `policies` on the canonical arrivals instance and prints the
/// table.
fn tournament_report(seed: u64, policies: &str) -> coflow_bench::tournament::TournamentReport {
    use coflow_bench::tournament::{render_tournament, run_tournament};
    let inst = coflow_bench::arrivals::arrivals_instance(24, 36, seed);
    println!(
        "# tournament: 24 ports, 36 coflows, selection '{}', seed {}",
        policies, seed
    );
    let report = match run_tournament(&inst, seed, policies) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::exit(2);
        }
    };
    print!("{}", render_tournament(&report));
    report
}

/// Holds a fresh tournament report to [`coflow_bench::tournament::check`]
/// (every ratio >= 1 and within the policy's proven bound, fault-round
/// consistency). Prints the outcome and returns its ledger status.
fn check_status(report: &coflow_bench::tournament::TournamentReport) -> &'static str {
    match coflow_bench::tournament::check(report) {
        Ok(summary) => {
            println!("# {}", summary);
            "pass"
        }
        Err(e) => {
            eprintln!("error: tournament check failed: {}", e);
            "fail"
        }
    }
}

fn tournament(seed: u64, args: &Args, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::tournament::render_tournament_json;

    let report = tournament_report(seed, args.policies.as_deref().unwrap_or("all"));
    write_out(args.out.as_deref(), "tournament report", || {
        render_tournament_json(&report)
    });
    exit_if_interrupted(
        args.out
            .as_deref()
            .unwrap_or("tournament table (printed above)"),
    );

    let status = check_status(&report);
    let mut rec = coflow_bench::ledger::record_from_tournament(
        &report,
        started.elapsed().as_secs_f64() * 1000.0,
    );
    rec.verdicts = vec![("tournament-validate".to_string(), status.to_string())];
    append_ledger(ledger, rec);
    if status == "fail" {
        std::process::exit(1);
    }
}

/// `gate NAME`: read the golden, run the workload, judge, record, exit.
fn gate_cmd(name: &str, seed: u64, ledger: &Option<String>, started: std::time::Instant) {
    use coflow_bench::gate::{self, Scope, GATES};
    use coflow_bench::{ledger as led, pins, profile, scale, tournament};

    let Some(g) = gate::gate(name) else {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        usage(&format!(
            "unknown gate '{}' (expected {})",
            name,
            names.join("|")
        ));
    };
    // The golden is read and flattened before the workload, so a missing
    // or malformed file fails in milliseconds with its regeneration
    // command. It is not held while the workload runs, whose live heap
    // the mem gate measures, but read again to judge it.
    let regen = format!(
        "cargo run --release -p coflow-bench --bin experiments -- {}",
        g.regen
    );
    let read_golden = || {
        let golden = read_baseline_file(g.golden, "golden", &regen);
        if let Err(e) = gate::read_golden(g, &golden) {
            eprintln!(
                "error: {}: {}.\nRegenerate it with:\n    {}",
                g.golden, e, regen
            );
            std::process::exit(1);
        }
        golden
    };
    drop(read_golden());

    let elapsed = || started.elapsed().as_secs_f64() * 1000.0;
    let mut statuses: Vec<(String, String)> = Vec::new();
    let (current, rec) = match g.name {
        "perf" | "mem" => {
            let report = profile_report(seed, false);
            let text = if g.name == "perf" {
                profile::render_json(&report)
            } else {
                profile::render_mem_json(&report)
            };
            (text, led::record_from_profile(&report, elapsed()))
        }
        "pins" => {
            let report = pins::collect_pins(seed);
            print!("{}", pins::render_pins(&report));
            (
                pins::render_pins_json(&report),
                led::record_from_pins(&report, elapsed()),
            )
        }
        "scale" => {
            let report = scale_report(&[scale::GATE_CELL], seed, scale::DEFAULT_WINDOW);
            print!("{}", scale::render_scale(&report));
            (
                scale::render_scale_json(&report),
                led::record_from_scale(&report, elapsed()),
            )
        }
        _ => {
            let report = tournament_report(seed, "all");
            statuses.push(("validate".to_string(), check_status(&report).to_string()));
            (
                tournament::render_tournament_json(&report),
                led::record_from_tournament(&report, elapsed()),
            )
        }
    };
    if obs::interrupted() {
        eprintln!("interrupted: gate {} not judged; exiting", g.name);
        std::process::exit(obs::SIGINT_EXIT_CODE);
    }

    let golden = read_golden();
    match gate::check(g, &golden, &current) {
        Ok(rows) => {
            let title = format!("# gate {} vs {}", g.name, g.golden);
            print!("{}", gate::render_verdict(&title, &rows, Scope::of(g.name)));
            statuses.splice(0..0, gate::statuses(&rows));
        }
        Err(e) => {
            eprintln!("error: judging against {}: {}", g.golden, e);
            statuses.push(("coverage".to_string(), "fail".to_string()));
        }
    }
    let failed = statuses.iter().any(|(_, s)| s != "pass");
    for record in led::gate_records(g.name, rec, statuses) {
        append_ledger(ledger, record);
    }
    if failed {
        eprintln!("error: gate {} failed", g.name);
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
