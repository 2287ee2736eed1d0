//! The N-algorithm tournament: every registry policy raced on the shared
//! grid instance, under faults, and through one streamed scale cell
//! (`BENCH_tournament.json`, schema `coflow-tournament/2`).
//!
//! Three rounds, one report:
//!
//! 1. **clean** — each selected [`PolicyEntry`] runs the pinned arrivals
//!    instance through the engine under a quiet fault plan (the engine
//!    `run_policy` runs, here returning the fault outcome the faults
//!    round compares against). Per policy: TWCT, its
//!    ratio against the interval-LP lower bound (Lemma 1) — which the
//!    gate checks against the paper bound the registry entry carries
//!    (67/3 for Algorithm 2, 5 for Shafiee–Ghaderi, 4 for Im–Purohit) —
//!    and wall-clock;
//! 2. **faults** — one shared [`FaultPlan`] at rate
//!    [`TOURNAMENT_FAULT_RATE`] replayed against every fault-capable
//!    policy; inflation is measured over each plan's surviving coflows
//!    exactly as in [`crate::faults`]. Open-loop policies (`bvn-batch`)
//!    sit this round out and say so in the report;
//! 3. **scale** — one streamed cell ([`SCALE_PORTS`] ports,
//!    [`SCALE_COFLOWS`] coflows, windows of [`SCALE_WINDOW`]) per policy:
//!    each policy schedules every window itself on the engine through
//!    [`stream_policy`], and each window's schedule is replayed before it
//!    counts.
//!
//! `experiments -- tournament` and `gate tournament` hold a fresh run to
//! [`check`] on the report they built; the gate then judges it against
//! the committed golden with [`crate::gate`]: objectives and ratios
//! bit-exact in both directions, wall-clock within the gate's tolerance
//! over its floor.

use crate::pins::{FAULT20_SEED_OFFSET, FAULT_RATE_20};
use crate::scale::stream_policy;
use coflow::bounds::interval_lp_bound;
use coflow::{
    run_policy_with_faults, verify_faulty_outcome, FaultyOutcome, Instance, PolicyEntry,
    PolicyRegistry,
};
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64};
use coflow_workloads::StreamConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of the tournament report; bump on breaking layout changes.
pub const SCHEMA: &str = "coflow-tournament/2";

/// Fault rate of the shared tournament plan (the pinned `faults20` rate).
pub const TOURNAMENT_FAULT_RATE: f64 = FAULT_RATE_20;

/// Fabric of the scale round.
pub const SCALE_PORTS: usize = 96;

/// Coflows streamed through the scale round (15 windows of 64).
pub const SCALE_COFLOWS: usize = 960;

/// Admission window of the scale round.
pub const SCALE_WINDOW: usize = 64;

/// Fault-round numbers of one policy (`None` on the row when the policy
/// cannot run under live faults).
#[derive(Clone, Debug)]
pub struct TournamentFault {
    /// `Σ w_k C_k` over surviving coflows, under the shared plan.
    pub objective: f64,
    /// `objective / clean objective over the same survivors`.
    pub inflation: f64,
    /// Coflows cancelled by the plan.
    pub cancelled: usize,
    /// Injected events (identical across rows — one shared plan).
    pub events: usize,
    /// Planning epochs charged by the engine.
    pub replans: usize,
}

/// One policy's tournament row.
#[derive(Clone, Debug)]
pub struct TournamentRow {
    /// Registry name.
    pub policy: String,
    /// Proven approximation bound, when the policy carries one.
    pub bound: Option<f64>,
    /// Clean TWCT on the grid instance.
    pub objective: f64,
    /// Clean schedule makespan.
    pub makespan: u64,
    /// `objective / lp_bound` — the measured approximation ratio.
    pub ratio: f64,
    /// Clean run wall-clock (policy construction + engine), ms.
    pub wall_ms: f64,
    /// Fault-round numbers; `None` when `supports_faults` is false.
    pub fault: Option<TournamentFault>,
}

/// One policy's scale row.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Registry name.
    pub policy: String,
    /// Streamed TWCT.
    pub objective: f64,
    /// Last busy slot of the last window.
    pub makespan: u64,
    /// The policy's streamed run (generation, engine and replay), ms.
    pub wall_ms: f64,
}

/// The full tournament report.
#[derive(Clone, Debug)]
pub struct TournamentReport {
    /// Workload seed (grid instance, fault plan, and scale stream).
    pub seed: u64,
    /// Grid instance fabric.
    pub ports: usize,
    /// Grid instance coflow count.
    pub coflows: usize,
    /// Interval-LP lower bound of the grid instance.
    pub lp_bound: f64,
    /// Shared fault-plan rate.
    pub fault_rate: f64,
    /// One row per selected policy, in selection order.
    pub rows: Vec<TournamentRow>,
    /// The scale round's cell: ports, coflows, admission window.
    pub scale_cell: [usize; 3],
    /// Scale-round rows, same order.
    pub scale: Vec<ScaleRow>,
}

/// The stream of the scale round.
fn scale_stream(seed: u64) -> StreamConfig {
    StreamConfig {
        ports: SCALE_PORTS,
        num_coflows: SCALE_COFLOWS,
        seed,
        ..StreamConfig::default()
    }
}

/// Runs the tournament on `instance` over the registry selection `spec`
/// (`all` or a comma-separated name list). Every policy runs through the
/// unmodified unified engine; an invalid schedule in rounds 1–2 panics via
/// [`verify_faulty_outcome`] — that is an engine bug, not data — and one
/// in the scale round is [`stream_policy`]'s error.
pub fn run_tournament(
    instance: &Instance,
    seed: u64,
    spec: &str,
) -> Result<TournamentReport, String> {
    let registry = PolicyRegistry::builtin();
    let entries = registry.select(spec)?;
    let lp_bound = interval_lp_bound(instance);

    // Round 1: clean runs via a quiet plan (rate 0 == the clean schedule).
    let quiet = FaultPlan::generate(instance.ports(), instance.len(), 1, 0.0, seed);
    let mut clean: Vec<(&PolicyEntry, FaultyOutcome, f64)> = Vec::with_capacity(entries.len());
    for entry in &entries {
        let started = Instant::now();
        let mut policy = entry.build(instance);
        let out = run_policy_with_faults(instance, policy.as_mut(), &quiet)
            .map_err(|e| format!("policy {}: {}", entry.name, e))?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = verify_faulty_outcome(instance, &quiet, &out) {
            panic!("policy {}: invalid clean schedule: {}", entry.name, e);
        }
        clean.push((entry, out, wall_ms));
    }

    // Round 2: one shared plan over the horizon every fault-capable clean
    // schedule fits in, replayed per policy.
    let horizon = clean
        .iter()
        .filter(|(e, ..)| e.supports_faults)
        .map(|(_, out, _)| out.executed.makespan())
        .max()
        .unwrap_or(1)
        .max(1);
    let plan = FaultPlan::generate(
        instance.ports(),
        instance.len(),
        horizon,
        TOURNAMENT_FAULT_RATE,
        seed.wrapping_add(FAULT20_SEED_OFFSET),
    );

    let mut rows = Vec::with_capacity(clean.len());
    for (entry, clean_out, wall_ms) in &clean {
        let fault = if entry.supports_faults {
            let mut policy = entry.build(instance);
            let out = run_policy_with_faults(instance, policy.as_mut(), &plan)
                .map_err(|e| format!("policy {} under faults: {}", entry.name, e))?;
            if let Err(e) = verify_faulty_outcome(instance, &plan, &out) {
                panic!("policy {}: invalid faulted schedule: {}", entry.name, e);
            }
            let cancelled = out.completions.iter().filter(|c| c.is_none()).count();
            let baseline_objective: f64 = out
                .completions
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(k, _)| {
                    instance.coflow(k).weight * clean_out.completions[k].unwrap_or(0) as f64
                })
                .sum();
            let inflation = if baseline_objective > 0.0 {
                out.objective / baseline_objective
            } else {
                1.0
            };
            Some(TournamentFault {
                objective: out.objective,
                inflation,
                cancelled,
                events: plan.events.len(),
                replans: out.replans,
            })
        } else {
            None
        };
        rows.push(TournamentRow {
            policy: entry.name.to_string(),
            bound: entry.bound,
            objective: clean_out.objective,
            makespan: clean_out.executed.makespan(),
            ratio: if lp_bound > 0.0 {
                clean_out.objective / lp_bound
            } else {
                1.0
            },
            wall_ms: *wall_ms,
            fault,
        });
    }

    // Round 3: every policy streams the scale cell on its own run.
    let mut scale = Vec::with_capacity(entries.len());
    for entry in &entries {
        let started = Instant::now();
        let run = stream_policy(entry, &scale_stream(seed), SCALE_WINDOW, |_, _, _| {})?;
        scale.push(ScaleRow {
            policy: entry.name.to_string(),
            objective: run.objective,
            makespan: run.makespan,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }

    Ok(TournamentReport {
        seed,
        ports: instance.ports(),
        coflows: instance.len(),
        lp_bound,
        fault_rate: TOURNAMENT_FAULT_RATE,
        rows,
        scale_cell: [SCALE_PORTS, SCALE_COFLOWS, SCALE_WINDOW],
        scale,
    })
}

/// Plain-text tournament table.
pub fn render_tournament(report: &TournamentReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== tournament: {} policies, {}x{} grid, LP bound {:.1}, fault rate {} (seed {}) ==",
        report.rows.len(),
        report.ports,
        report.coflows,
        report.lp_bound,
        report.fault_rate,
        report.seed
    );
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>10} {:>7} {:>8} {:>10} {:>10} {:>9}",
        "policy", "bound", "TWCT", "ratio", "wall_ms", "fault_TWCT", "inflation", "cancelled"
    );
    for r in &report.rows {
        let bound = r
            .bound
            .map(|b| format!("{:.2}", b))
            .unwrap_or_else(|| "-".into());
        let (ft, fi, fc) = match &r.fault {
            Some(f) => (
                format!("{:.0}", f.objective),
                format!("{:.3}", f.inflation),
                f.cancelled.to_string(),
            ),
            None => ("n/a".into(), "n/a".into(), "n/a".into()),
        };
        let _ = writeln!(
            s,
            "{:<16} {:>8} {:>10.0} {:>7.3} {:>8.1} {:>10} {:>10} {:>9}",
            r.policy, bound, r.objective, r.ratio, r.wall_ms, ft, fi, fc
        );
    }
    let _ = writeln!(
        s,
        "-- scale round: m={}, n={}, window {} --",
        report.scale_cell[0], report.scale_cell[1], report.scale_cell[2]
    );
    let _ = writeln!(
        s,
        "{:<16} {:>12} {:>10} {:>8}",
        "policy", "TWCT", "makespan", "wall_ms"
    );
    for r in &report.scale {
        let _ = writeln!(
            s,
            "{:<16} {:>12.0} {:>10} {:>8.1}",
            r.policy, r.objective, r.makespan, r.wall_ms
        );
    }
    s
}

/// Serializes the report as `coflow-tournament/2` JSON.
pub fn render_tournament_json(report: &TournamentReport) -> String {
    let mut rows = String::from("[\n");
    for (i, r) in report.rows.iter().enumerate() {
        rows.push_str("    {\n");
        let _ = writeln!(rows, "      \"policy\": {},", json::quote(&r.policy));
        let _ = writeln!(
            rows,
            "      \"bound\": {},",
            r.bound.map(fmt_f64).unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(rows, "      \"objective\": {},", fmt_f64(r.objective));
        let _ = writeln!(rows, "      \"makespan\": {},", r.makespan);
        let _ = writeln!(rows, "      \"ratio\": {},", fmt_f64(r.ratio));
        let _ = writeln!(rows, "      \"wall_ms\": {},", fmt_f64(r.wall_ms));
        match &r.fault {
            Some(f) => {
                let _ = writeln!(
                    rows,
                    "      \"fault\": {{\"objective\": {}, \"inflation\": {}, \
                     \"cancelled\": {}, \"events\": {}, \"replans\": {}}}",
                    fmt_f64(f.objective),
                    fmt_f64(f.inflation),
                    f.cancelled,
                    f.events,
                    f.replans
                );
            }
            None => {
                let _ = writeln!(rows, "      \"fault\": null");
            }
        }
        rows.push_str(if i + 1 < report.rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    rows.push_str("  ]");

    let mut scale_rows = String::from("[\n");
    for (i, r) in report.scale.iter().enumerate() {
        let _ = write!(
            scale_rows,
            "      {{\"policy\": {}, \"objective\": {}, \"makespan\": {}, \
             \"wall_ms\": {}}}",
            json::quote(&r.policy),
            fmt_f64(r.objective),
            r.makespan,
            fmt_f64(r.wall_ms)
        );
        scale_rows.push_str(if i + 1 < report.scale.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    scale_rows.push_str("    ]");
    let [ports, coflows, window] = report.scale_cell;
    let scale = format!(
        "{{\n    \"ports\": {}, \"coflows\": {}, \"window\": {},\n    \"rows\": {}\n  }}",
        ports, coflows, window, scale_rows
    );

    let mut doc = crate::sink::JsonDoc::new(SCHEMA);
    doc.num("seed", report.seed)
        .num("ports", report.ports)
        .num("coflows", report.coflows)
        .float("lp_bound", report.lp_bound)
        .float("fault_rate", report.fault_rate)
        .raw("rows", rows)
        .raw("scale", scale);
    doc.render()
}

/// Holds a tournament run to its bounds, on the report it built:
///
/// * the LP lower bound is positive;
/// * every ratio is ≥ 1 (no schedule beats the LP lower bound), agrees
///   with `objective / lp_bound`, and, when the row carries a proven
///   bound, is ≤ that bound;
/// * fault cells never deflate without cancellations;
/// * every scale row has a positive objective.
///
/// Any registry selection passes; a policy missing against the golden is
/// the gate's one-sided row. Returns a one-line summary, or the first
/// rule broken.
pub fn check(report: &TournamentReport) -> Result<String, String> {
    let lp_bound = report.lp_bound;
    if lp_bound <= 0.0 {
        return Err(format!("non-positive lp_bound {}", lp_bound));
    }
    for row in &report.rows {
        if row.ratio < 1.0 - 1e-9 {
            return Err(format!(
                "policy {}: ratio {} < 1 — schedule beats the LP lower bound",
                row.policy, row.ratio
            ));
        }
        if let Some(bound) = row.bound {
            if row.ratio > bound + 1e-9 {
                return Err(format!(
                    "policy {}: measured ratio {} exceeds the proven bound {}",
                    row.policy, row.ratio, bound
                ));
            }
        }
        if (row.objective / lp_bound - row.ratio).abs() > 1e-6 {
            return Err(format!(
                "policy {}: ratio {} disagrees with objective/lp_bound {}",
                row.policy,
                row.ratio,
                row.objective / lp_bound
            ));
        }
        if let Some(f) = &row.fault {
            if f.cancelled == 0 && f.inflation < 1.0 - 1e-9 {
                return Err(format!(
                    "policy {}: fault inflation {} < 1 without cancellations",
                    row.policy, f.inflation
                ));
            }
        }
    }
    if let Some(r) = report.scale.iter().find(|r| r.objective <= 0.0) {
        return Err(format!("scale row {}: non-positive objective", r.policy));
    }
    Ok(format!(
        "{} policies, {} scale rows, ratios within bounds",
        report.rows.len(),
        report.scale.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::arrivals_instance;
    use crate::gate::Kind;

    fn run_tiny() -> TournamentReport {
        run_tournament(&arrivals_instance(8, 10, 3), 3, "all").expect("tournament runs")
    }

    /// One run shared by the tests that only read it.
    fn tiny_report() -> &'static TournamentReport {
        static REPORT: std::sync::OnceLock<TournamentReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(run_tiny)
    }

    #[test]
    fn tournament_covers_the_canonical_six_and_passes_its_check() {
        let report = tiny_report();
        let names: Vec<&str> = report.rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(
            names,
            [
                "bvn-batch",
                "online",
                "greedy",
                "resilient",
                "shafiee-ghaderi",
                "im-purohit"
            ]
        );
        // The open-loop planner sits the fault round out; everyone else runs.
        for r in &report.rows {
            assert_eq!(r.fault.is_some(), r.policy != "bvn-batch", "{}", r.policy);
            assert!(r.ratio >= 1.0 - 1e-9, "{}: ratio {}", r.policy, r.ratio);
            if let Some(bound) = r.bound {
                assert!(
                    r.ratio <= bound + 1e-9,
                    "{}: {} > {}",
                    r.policy,
                    r.ratio,
                    bound
                );
            }
        }
        assert_eq!(report.scale.len(), 6);
        let summary = check(report).expect("report passes its check");
        assert!(summary.contains("6 policies"), "{}", summary);
        assert!(render_tournament(report).contains("-- scale round: m=96, n=960"));
    }

    /// Each scale row is its policy's own streamed run, so policies that
    /// schedule differently get different rows.
    #[test]
    fn each_scale_row_is_its_own_run() {
        let report = tiny_report();
        let registry = PolicyRegistry::builtin();
        for row in &report.scale {
            let entry = registry.resolve(&row.policy).expect("registry policy");
            let run = stream_policy(entry, &scale_stream(3), SCALE_WINDOW, |_, _, _| {})
                .expect("stream runs");
            assert_eq!(
                (row.objective.to_bits(), row.makespan),
                (run.objective.to_bits(), run.makespan),
                "{}",
                row.policy
            );
        }
        let objective = |name: &str| {
            let row = report.scale.iter().find(|r| r.policy == name);
            row.expect("canonical row").objective
        };
        assert_ne!(objective("online"), objective("greedy"));
    }

    fn judge_tournament(baseline: &str, current: &str) -> Vec<crate::gate::Judged> {
        let gate = crate::gate::gate("tournament").expect("tournament gate");
        crate::gate::check(gate, baseline, current).expect("judge")
    }

    #[test]
    fn tournament_is_deterministic_and_self_compares_clean() {
        let a = render_tournament_json(tiny_report());
        let b = render_tournament_json(&run_tiny());
        let rows = judge_tournament(&a, &b);
        assert!(
            rows.iter()
                .all(|r| !r.one_sided() && (!r.regressed || r.kind == Kind::Wall)),
            "objective/ratio drift between identical runs: {:?}",
            rows.iter().filter(|r| r.regressed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn comparison_flags_drift_and_missing_rows() {
        let report = tiny_report();
        let baseline = render_tournament_json(report);
        let mut drifted = report.clone();
        drifted.rows[0].objective += 1.0;
        let rows = judge_tournament(&baseline, &render_tournament_json(&drifted));
        assert!(rows
            .iter()
            .any(|r| r.key == "twct/bvn-batch" && r.regressed));
        let mut missing = report.clone();
        missing.rows.pop();
        missing.scale.pop();
        assert!(
            !crate::gate::passed(&judge_tournament(
                &baseline,
                &render_tournament_json(&missing)
            )),
            "a vanished policy is a drift, not a skip"
        );
        let gate = crate::gate::gate("tournament").expect("tournament gate");
        assert!(crate::gate::check(gate, "{\"schema\": \"other/9\"}", &baseline).is_err());
    }

    #[test]
    fn check_rejects_bound_and_lower_bound_violations() {
        let report = tiny_report();
        let rejects = |what: &str, doctor: &dyn Fn(&mut TournamentReport)| {
            let mut forged = report.clone();
            doctor(&mut forged);
            let err = check(&forged).expect_err(what);
            assert!(err.contains(what), "{}: {}", what, err);
        };
        // Forge Shafiee–Ghaderi's ratio, keeping its objective consistent
        // (the consistency rule would catch a lone ratio).
        let ratio = |ratio: f64| {
            move |r: &mut TournamentReport| {
                let lp_bound = r.lp_bound;
                let sg = r.rows.iter_mut().find(|r| r.policy == "shafiee-ghaderi");
                let sg = sg.expect("canonical row");
                sg.ratio = ratio;
                sg.objective = lp_bound * ratio;
            }
        };
        rejects("exceeds the proven bound", &ratio(99.0));
        rejects("beats the LP lower bound", &ratio(0.5));
        rejects("disagrees", &|r| r.rows[0].ratio *= 1.5);
        rejects("non-positive lp_bound", &|r| r.lp_bound = 0.0);
        rejects("without cancellations", &|r| {
            let f = r.rows.iter_mut().find_map(|r| r.fault.as_mut());
            let f = f.expect("a fault-capable row");
            f.cancelled = 0;
            f.inflation = 0.5;
        });
        rejects("non-positive objective", &|r| r.scale[0].objective = 0.0);
    }
}
