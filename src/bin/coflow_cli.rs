//! `coflow-cli` — schedule a coflow trace from a file.
//!
//! ```text
//! coflow-cli <trace.{json,csv}> [--ports N] [--order H_A|H_rho|H_LP|H_size]
//!            [--no-group] [--no-backfill] [--rematch] [--policy NAME]
//!            [--analyze] [--explain] [--emit-json] [--profile]
//!            [--trace-out PATH] [--telemetry PATH]
//! coflow-cli --generate <n> [--ports N] [--seed S]   # print a trace as CSV
//! ```
//!
//! Without `--ports`, a CSV trace runs on the fabric its rows imply
//! (`workloads::io::csv_ports`, which skips a header as the reader does).
//!
//! Without `--policy`, the CLI runs the paper's pipeline: the `--order`
//! permutation (default `H_LP`), Algorithm 2's doubling groups unless
//! `--no-group`, same-pair backfilling unless `--no-backfill`, and the
//! work-conserving rematch extension with `--rematch`.
//!
//! `--policy NAME` instead builds the named scheduler from the policy
//! registry (`coflow::PolicyRegistry`) exactly as the registry defines it
//! and runs it on the engine under the empty fault plan: `bvn-batch`
//! (Algorithm 2 + backfill over `H_LP`), `online` (ρ/w priorities
//! re-sorted on arrivals *and* completions), `greedy` (work-conserving
//! priority greedy over `H_ρ`), `resilient` (the fault-recovery pipeline,
//! which with no fault to recover from plans the whole trace once and
//! executes the plan), `shafiee-ghaderi` (LP-free primal–dual, 5-approx),
//! and `im-purohit` (LP-completion-time order, 4-approx). The pipeline
//! options do not apply to a registry policy: combining them with
//! `--policy` is a usage error (exit 2). Run `experiments -- faults` for
//! the fault sweep.
//!
//! `--profile` enables the `obs` registry and prints the span/counter
//! summary tree to stderr after scheduling; `--trace-out PATH` additionally
//! writes a `chrome://tracing`-compatible JSON view (implies `--profile`).
//!
//! `--telemetry PATH` appends streaming `coflow-telemetry/1` NDJSON
//! heartbeats (decision epochs, residual demand, live allocator bytes) to
//! PATH while the scheduler runs; each line is flushed as it is written, so
//! the stream stays valid NDJSON across a SIGINT. Watch it live with
//! `scripts/watch-telemetry.sh PATH`.
//!
//! Every run appends one `coflow-ledger/1` record to the run ledger
//! (default `LEDGER.ndjson`; `--ledger PATH` or `COFLOW_LEDGER`
//! overrides, `--ledger none` disables): objective, makespan, git
//! provenance, wall-clock, memory marks, and — under `--profile` —
//! per-stage wall-clock and allocation attribution from the registry.
//! `experiments -- diff`/`report` consume the ledger; appends are
//! non-fatal so a read-only checkout still schedules.
//!
//! `--explain` solves the interval-indexed LP and prints per-coflow
//! forensics — realized completion vs `C̄_k`, the wait/service split, and
//! any anomaly-detector firings (see `coflow::diagnostics`).
//!
//! CSV format: `coflow_id,src,dst,mb,release,weight` (header optional).
//! Exit code 0 on success; the schedule is validated end-to-end before any
//! output is printed.

use coflow::analysis::analyze;
use coflow::ordering::OrderRule;
use coflow::sched::{run_with_order, ExecOptions, ScheduleOutcome};
use coflow::{compute_order, run_policy, verify_outcome, Instance, PolicyRegistry};
use coflow_workloads::{generate_trace, io, TraceConfig};
use std::process::exit;

struct Args {
    trace_path: Option<String>,
    ports: Option<usize>,
    order: OrderRule,
    grouping: bool,
    backfill: bool,
    rematch: bool,
    /// The first pipeline option given (`--order`, `--no-group`, ...).
    pipeline_flag: Option<&'static str>,
    policy: Option<String>,
    do_analyze: bool,
    do_explain: bool,
    emit_json: bool,
    profile: bool,
    trace_out: Option<String>,
    telemetry: Option<String>,
    ledger: Option<String>,
    generate: Option<usize>,
    seed: u64,
}

/// Resolve the run-ledger path: `--ledger` beats `COFLOW_LEDGER` beats the
/// default `LEDGER.ndjson`; the sentinels `none`/`off` disable appends.
/// (Mirrors `coflow_bench::ledger::ledger_path`; the root crate does not
/// depend on the bench crate, so the three-line rule is restated here.)
fn resolve_ledger(flag: Option<&str>) -> Option<String> {
    let chosen = flag
        .map(str::to_string)
        .or_else(|| std::env::var("COFLOW_LEDGER").ok())
        .unwrap_or_else(|| "LEDGER.ndjson".to_string());
    match chosen.as_str() {
        "none" | "off" | "" => None,
        _ => Some(chosen),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: coflow-cli <trace.json|trace.csv> [--ports N] \
         [--order H_A|H_rho|H_LP|H_size] [--no-group] [--no-backfill] \
         [--rematch] [--policy NAME] [--analyze] \
         [--explain] [--emit-json] [--profile] [--trace-out PATH]\n\
         \x20      [--telemetry PATH] [--ledger PATH|none]\n\
         \x20      coflow-cli --generate <n> [--ports N] [--seed S]\n\
         \x20      (--order/--no-group/--no-backfill/--rematch configure the \
         default pipeline and cannot be combined with --policy)"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        trace_path: None,
        ports: None,
        order: OrderRule::LpBased,
        grouping: true,
        backfill: true,
        rematch: false,
        pipeline_flag: None,
        policy: None,
        do_analyze: false,
        do_explain: false,
        emit_json: false,
        profile: false,
        trace_out: None,
        telemetry: None,
        ledger: None,
        generate: None,
        seed: 2015,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--ports" => {
                i += 1;
                args.ports = Some(
                    argv.get(i)
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--order" => {
                args.pipeline_flag.get_or_insert("--order");
                i += 1;
                args.order = match argv.get(i).map(String::as_str) {
                    Some("H_A") => OrderRule::Arrival,
                    Some("H_rho") => OrderRule::LoadOverWeight,
                    Some("H_LP") => OrderRule::LpBased,
                    Some("H_size") => OrderRule::SizeOverWeight,
                    _ => usage(),
                };
            }
            "--no-group" => {
                args.pipeline_flag.get_or_insert("--no-group");
                args.grouping = false;
            }
            "--no-backfill" => {
                args.pipeline_flag.get_or_insert("--no-backfill");
                args.backfill = false;
            }
            "--rematch" => {
                args.pipeline_flag.get_or_insert("--rematch");
                args.rematch = true;
            }
            "--policy" => {
                i += 1;
                args.policy = Some(argv.get(i).unwrap_or_else(|| usage()).to_string());
            }
            "--analyze" => args.do_analyze = true,
            "--explain" => args.do_explain = true,
            "--emit-json" => args.emit_json = true,
            "--profile" => args.profile = true,
            "--trace-out" => {
                i += 1;
                args.trace_out = Some(argv.get(i).unwrap_or_else(|| usage()).to_string());
                args.profile = true;
            }
            "--telemetry" => {
                i += 1;
                args.telemetry = Some(argv.get(i).unwrap_or_else(|| usage()).to_string());
            }
            "--ledger" => {
                i += 1;
                args.ledger = Some(argv.get(i).unwrap_or_else(|| usage()).to_string());
            }
            "--generate" => {
                i += 1;
                args.generate = Some(
                    argv.get(i)
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--seed" => {
                i += 1;
                args.seed = argv
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            path if !path.starts_with('-') && args.trace_path.is_none() => {
                args.trace_path = Some(path.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    if let (Some(flag), Some(name)) = (args.pipeline_flag, &args.policy) {
        eprintln!(
            "error: {} configures the default pipeline; --policy {} runs the registry policy as defined",
            flag, name
        );
        usage();
    }
    args
}

fn load_instance(path: &str, ports: Option<usize>) -> Instance {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {}", path, e);
        exit(1)
    });
    let result = if path.ends_with(".json") {
        io::from_json(&text)
    } else {
        io::from_csv(ports.unwrap_or_else(|| io::csv_ports(&text)), &text)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {}", path, e);
        exit(1)
    })
}

fn main() {
    // Convert Ctrl-C into a graceful exit: the current phase finishes, any
    // output produced so far is flushed, and the process exits 130 instead
    // of being killed mid-write (report files are written atomically, so a
    // reader never observes a torn document either way).
    obs::install_sigint_handler();
    let started = std::time::Instant::now();
    let args = parse_args();

    if let Some(n) = args.generate {
        let cfg = TraceConfig {
            ports: args.ports.unwrap_or(40),
            num_coflows: n,
            seed: args.seed,
            ..TraceConfig::default()
        };
        print!("{}", io::to_csv(&generate_trace(&cfg)));
        return;
    }

    let Some(path) = args.trace_path.as_deref() else {
        usage();
    };
    let instance = load_instance(path, args.ports);
    eprintln!(
        "loaded {} coflows on a {}x{} fabric",
        instance.len(),
        instance.ports(),
        instance.ports()
    );

    if let Some(telemetry_path) = &args.telemetry {
        if let Err(e) = obs::telemetry::install(telemetry_path) {
            eprintln!("cannot open telemetry sink {}: {}", telemetry_path, e);
            exit(2);
        }
    }
    if args.profile {
        obs::set_enabled(true);
    }
    let outcome: ScheduleOutcome = match args.policy.as_deref() {
        // No selection: the paper's pipeline with the pipeline options.
        None => {
            let order = compute_order(&instance, args.order);
            let opts = ExecOptions {
                rematch: args.rematch,
                ..ExecOptions::paper(args.backfill)
            };
            run_with_order(&instance, order, args.grouping, opts)
        }
        Some(name) => {
            let entry = PolicyRegistry::builtin().resolve(name).unwrap_or_else(|e| {
                eprintln!("error: {}", e);
                exit(2)
            });
            run_policy(&instance, &mut *entry.build(&instance)).unwrap_or_else(|e| {
                eprintln!("error: policy {}: {}", entry.name, e);
                exit(1)
            })
        }
    };
    if args.profile {
        obs::set_enabled(false);
        eprint!("{}", obs::summary());
        if let Some(trace_path) = &args.trace_out {
            if let Err(e) = obs::write_chrome_trace(trace_path) {
                eprintln!("cannot write {}: {}", trace_path, e);
                exit(1);
            }
            eprintln!("chrome trace written to {}", trace_path);
        }
    }
    if let Err(e) = verify_outcome(&instance, &outcome) {
        eprintln!("internal error: schedule failed verification: {}", e);
        exit(1);
    }
    if obs::interrupted() {
        // The schedule completed before the signal was observed; report it
        // (it is valid and verified) but surface the interruption.
        eprintln!("interrupted: reporting the completed schedule and exiting 130");
    }

    if args.emit_json {
        // Shape: [objective, makespan, [[coflow_id, completion_slot], ...]]
        let mut out = String::new();
        out.push_str(&format!(
            "[\n  {:?},\n  {},\n  [",
            outcome.objective,
            outcome.makespan()
        ));
        for (idx, (c, &t)) in instance
            .coflows()
            .iter()
            .zip(&outcome.completions)
            .enumerate()
        {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    [{}, {}]", c.id, t));
        }
        out.push_str("\n  ]\n]");
        println!("{}", out);
    } else {
        println!("total weighted completion time: {:.1}", outcome.objective);
        println!("makespan: {} slots", outcome.makespan());
        println!("coflow_id,completion_slot");
        for (c, &t) in instance.coflows().iter().zip(&outcome.completions) {
            println!("{},{}", c.id, t);
        }
    }

    if args.do_analyze {
        let a = analyze(&instance, &outcome);
        eprintln!(
            "mean slowdown {:.2} (weighted {:.2}), worst {:.2} on coflow {}, \
             utilization {:.2}",
            a.mean_slowdown,
            a.weighted_mean_slowdown,
            a.max_slowdown.0,
            a.max_slowdown.1,
            a.fabric_utilization
        );
    }

    if args.do_explain && !obs::interrupted() {
        // Skipped after an interrupt: the forensics LP is the most
        // expensive stage and the schedule report above is already
        // complete and verified.
        let lp = coflow::solve_interval_lp(&instance);
        let d = coflow::diagnose(
            &instance,
            &outcome,
            &lp,
            &coflow::DiagnosticsConfig::default(),
        );
        println!(
            "explain: objective {:.0} vs LP lower bound {:.0}{}",
            d.objective,
            d.lp_lower_bound,
            d.approx_ratio
                .map(|r| format!(" (ratio {:.3})", r))
                .unwrap_or_default()
        );
        println!("coflow_id,completion,lp_completion,ratio,wait,service,idle_share");
        for r in &d.per_coflow {
            println!(
                "{},{},{:.2},{},{},{},{:.3}",
                instance.coflow(r.coflow).id,
                r.completion.map_or("-".to_string(), |c| c.to_string()),
                r.lp_completion,
                r.ratio.map_or("-".to_string(), |x| format!("{:.3}", x)),
                r.wait_slots,
                r.service_slots,
                r.idle_share
            );
        }
        if d.anomalies.is_empty() {
            println!("no anomalies detected");
        }
        for a in &d.anomalies {
            println!(
                "anomaly [{}] {}: {}",
                a.severity.name(),
                a.detector.name(),
                a.message
            );
        }
    }

    if let Some(ledger_path) = resolve_ledger(args.ledger.as_deref()) {
        let stats = obs::alloc::stats();
        let mut rec = obs::ledger::LedgerRecord {
            kind: "run".to_string(),
            command: "cli".to_string(),
            label: path.to_string(),
            seed: args.seed,
            fingerprint: format!(
                "ports={} coflows={} order={} policy={}",
                instance.ports(),
                instance.len(),
                args.order.name(),
                args.policy.as_deref().unwrap_or("bvn-batch")
            ),
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            peak_rss_kb: obs::alloc::peak_rss_kb().unwrap_or(0),
            peak_live_bytes: stats.peak_live_bytes,
            alloc_calls: stats.alloc_calls,
            objectives: vec![
                ("objective".to_string(), outcome.objective),
                ("makespan".to_string(), outcome.makespan() as f64),
            ],
            ..obs::ledger::LedgerRecord::default()
        };
        if args.profile {
            let (ms, allocs, bytes) = obs::ledger::stage_digest(&obs::snapshot());
            rec.stages_ms = ms;
            rec.stage_allocs = allocs;
            rec.stage_alloc_bytes = bytes;
        }
        match obs::ledger::append(&ledger_path, &mut rec) {
            Ok(seq) => eprintln!("ledger: appended run record seq {} to {}", seq, ledger_path),
            Err(e) => eprintln!("warning: ledger append failed: {}", e),
        }
    }

    if obs::interrupted() {
        exit(obs::SIGINT_EXIT_CODE);
    }
}
