//! The scale sweep: ports × coflows → wall-clock, peak RSS, per-stage
//! attribution (`BENCH_scale.json`, schema `coflow-bench-scale/2`).
//!
//! Every other harness in this crate materializes a full
//! [`coflow::Instance`]; at 10,000 ports and 10⁶ coflows the trace alone
//! would not fit. The scale runner streams it instead, and schedules it
//! with the same registry policy and engine every other harness runs:
//!
//! * **streaming generation** — [`coflow_workloads::CoflowStream`] yields
//!   sparse coflows one at a time; the full trace never exists in memory;
//! * **windowed admission** — [`stream_policy`] draws coflows in
//!   fixed-size windows and turns each into an [`Instance`] with
//!   window-local ids, so live memory is bounded by one window;
//! * **a barrier between windows** — a window starts when the previous
//!   one has drained: with `base` the previous window's makespan, each
//!   release `r` becomes `max(r, base) − base` and each completion `C`
//!   counts as `base + C`, so the windows' schedules never share a slot;
//! * **the engine** — each window runs the registry policy through
//!   [`run_policy_with_faults`] under a quiet plan, and
//!   [`verify_faulty_outcome`] replays it and recomputes its `Σ w·C`
//!   before the window counts.
//!
//! The sweep runs [`SCALE_POLICY`] on every cell; the tournament streams
//! its scale cell once per policy through the same function. Per cell the
//! report records the objective (deterministic, compared bit-exactly by
//! the gate), the makespan, per-stage wall-clock (`gen`/`sched`/`verify`),
//! and the allocator view (peak live bytes, kernel peak RSS, allocation
//! calls/bytes). `experiments -- gate scale` re-runs the [`GATE_CELL`] and
//! judges it against the matching cell of the committed `BENCH_scale.json`
//! curve with [`crate::gate`].

use coflow::{
    run_policy_with_faults, verify_faulty_outcome, Coflow, Demand, FaultyOutcome, Instance,
    PolicyEntry, PolicyRegistry,
};
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64};
use coflow_workloads::{CoflowStream, SparseCoflow, StreamConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of the scale report; bump on breaking layout changes.
pub const SCHEMA: &str = "coflow-bench-scale/2";

/// Stage keys of the per-cell `stages_ms` object, in report order.
pub const SCALE_STAGES: [&str; 4] = ["gen", "sched", "verify", "total"];

/// The registry policy every sweep cell runs: the `H_ρ` order (`ρ_k / w_k`
/// ascending) served by greedy matching.
pub const SCALE_POLICY: &str = "greedy";

/// Default admission window.
pub const DEFAULT_WINDOW: usize = 512;

/// Default sweep cells `(ports, coflows)`: the committed
/// `BENCH_scale.json` curve. The second cell is the [`GATE_CELL`]; the
/// last streams 10⁶ coflows over the 10,000-port fabric.
pub const DEFAULT_CELLS: [(usize, usize); 5] = [
    (100, 10_000),
    (1_000, 10_000),
    (1_000, 100_000),
    (10_000, 100_000),
    (10_000, 1_000_000),
];

/// The cell `experiments -- gate scale` re-runs against the curve.
pub const GATE_CELL: (usize, usize) = (1_000, 10_000);

/// Stable cell label used by the gate, the diff sides, and the ledger
/// objectives (e.g. `m=1000/n=10000`).
pub fn cell_label(ports: usize, coflows: usize) -> String {
    format!("m={}/n={}", ports, coflows)
}

/// One policy streamed through the engine, window by window.
#[derive(Clone, Debug, Default)]
pub struct StreamRun {
    /// Windows scheduled.
    pub windows: u64,
    /// `Σ w·C` over the stream, with each completion on the stream's
    /// clock, summed in stream order.
    pub objective: f64,
    /// Last busy slot of the last window, on the stream's clock.
    pub makespan: u64,
    /// Drawing coflows and building each window's instance, ms.
    pub gen_ms: f64,
    /// Building the policy and running the engine, ms.
    pub sched_ms: f64,
    /// Replaying each window's schedule, ms.
    pub verify_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The instance of one window: window-local ids, and releases relative to
/// `base`, the slot the previous window drained in.
fn window_instance(ports: usize, coflows: &[SparseCoflow], base: u64) -> Result<Instance, String> {
    let mut window = Vec::with_capacity(coflows.len());
    for (k, c) in coflows.iter().enumerate() {
        let demand = Demand::from_flows(ports, c.flows.iter().copied())
            .map_err(|e| format!("streamed coflow {}: {}", c.id, e))?;
        window.push(Coflow {
            id: k,
            demand,
            release: c.release.max(base) - base,
            weight: c.weight,
        });
    }
    Ok(Instance::new(ports, window))
}

/// Streams `cfg` through `entry`'s policy in admission windows of
/// `window` coflows. Each window becomes an [`Instance`], starts when the
/// previous window has drained (see the module docs), runs on the engine
/// under a quiet plan and is replayed by [`verify_faulty_outcome`]; a
/// failed run or replay is an error. `on_window(base, coflows, outcome)`
/// sees each verified window: the slot it started after, its coflows and
/// its outcome in window-local slots and ids.
pub fn stream_policy(
    entry: &PolicyEntry,
    cfg: &StreamConfig,
    window: usize,
    mut on_window: impl FnMut(u64, &[SparseCoflow], &FaultyOutcome),
) -> Result<StreamRun, String> {
    let quiet = FaultPlan::default();
    let mut stream = CoflowStream::new(cfg.clone());
    let mut run = StreamRun::default();
    let mut batch: Vec<SparseCoflow> = Vec::with_capacity(window);
    loop {
        let t = Instant::now();
        batch.clear();
        batch.extend(stream.by_ref().take(window));
        if batch.is_empty() {
            break;
        }
        let base = run.makespan;
        let inst = window_instance(cfg.ports, &batch, base)?;
        run.gen_ms += ms_since(t);
        let failed = |e: String| format!("policy {}, window {}: {}", entry.name, run.windows, e);
        let t = Instant::now();
        let mut policy = entry.build(&inst);
        let out = run_policy_with_faults(&inst, policy.as_mut(), &quiet)
            .map_err(|e| failed(e.to_string()))?;
        run.sched_ms += ms_since(t);
        let t = Instant::now();
        verify_faulty_outcome(&inst, &quiet, &out).map_err(failed)?;
        run.verify_ms += ms_since(t);
        for (c, done) in batch.iter().zip(&out.completions) {
            let done = done.ok_or_else(|| failed(format!("coflow {} never completed", c.id)))?;
            run.objective += c.weight * (base + done) as f64;
        }
        run.makespan = base + out.executed.makespan();
        run.windows += 1;
        on_window(base, &batch, &out);
    }
    Ok(run)
}

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Fabric size.
    pub ports: usize,
    /// Coflows streamed through the cell.
    pub coflows: usize,
    /// Registry policy that scheduled the cell ([`SCALE_POLICY`]).
    pub policy: &'static str,
    /// Admission window.
    pub window: usize,
    /// The streamed run: objective, makespan, windows, stage wall-clock.
    pub run: StreamRun,
    /// Whole cell wall-clock, ms.
    pub total_ms: f64,
    /// High-water mark of live bytes inside the cell window.
    pub peak_live_bytes: u64,
    /// Kernel peak RSS (`VmHWM`, kB) at cell end; 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Allocation calls during the cell.
    pub alloc_calls: u64,
    /// Bytes allocated during the cell.
    pub alloc_bytes: u64,
}

impl ScaleCell {
    /// Stage value by report key ([`SCALE_STAGES`]).
    pub fn stage(&self, key: &str) -> f64 {
        match key {
            "gen" => self.run.gen_ms,
            "sched" => self.run.sched_ms,
            "verify" => self.run.verify_ms,
            "total" => self.total_ms,
            other => panic!("unknown scale stage '{}'", other),
        }
    }
}

/// A full sweep: config identity plus one entry per cell.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Stream seed shared by every cell.
    pub seed: u64,
    /// Admission window of every cell.
    pub window: usize,
    /// The swept cells, in run order.
    pub cells: Vec<ScaleCell>,
}

/// Runs one cell: streams `coflows` coflows over the `ports` fabric
/// through [`SCALE_POLICY`] with [`stream_policy`]. Emits one telemetry
/// heartbeat per window when a sink is installed.
pub fn run_scale_cell(
    ports: usize,
    coflows: usize,
    seed: u64,
    window: usize,
) -> Result<ScaleCell, String> {
    let entry = PolicyRegistry::builtin().resolve(SCALE_POLICY)?;
    obs::alloc::reset_peak();
    let mem_before = obs::alloc::stats();
    let label = cell_label(ports, coflows);
    let started = Instant::now();
    let cfg = StreamConfig {
        ports,
        num_coflows: coflows,
        seed,
        ..StreamConfig::default()
    };
    let (mut windows, mut completed) = (0, 0);
    let run = stream_policy(entry, &cfg, window, |_, batch, _| {
        windows += 1;
        completed += batch.len() as u64;
        if obs::telemetry::active() {
            obs::telemetry::emit(&obs::telemetry::Sample {
                source: "scale",
                label: &label,
                epoch: windows,
                completed_coflows: completed,
                ..Default::default()
            });
        }
    })?;
    let total_ms = ms_since(started);
    let mem_after = obs::alloc::stats();
    Ok(ScaleCell {
        ports,
        coflows,
        policy: entry.name,
        window,
        run,
        total_ms,
        peak_live_bytes: mem_after.peak_live_bytes,
        peak_rss_kb: obs::alloc::peak_rss_kb().unwrap_or(0),
        alloc_calls: mem_after.alloc_calls.saturating_sub(mem_before.alloc_calls),
        alloc_bytes: mem_after.alloc_bytes.saturating_sub(mem_before.alloc_bytes),
    })
}

/// Runs the sweep over `cells` (pairs of `(ports, coflows)`).
pub fn run_scale(
    cells: &[(usize, usize)],
    seed: u64,
    window: usize,
) -> Result<ScaleReport, String> {
    let cells = cells
        .iter()
        .map(|&(ports, coflows)| run_scale_cell(ports, coflows, seed, window))
        .collect::<Result<_, _>>()?;
    Ok(ScaleReport {
        seed,
        window,
        cells,
    })
}

/// Serializes `report` as `coflow-bench-scale/2` JSON.
pub fn render_scale_json(report: &ScaleReport) -> String {
    let mut cells = String::from("[\n");
    for (idx, cell) in report.cells.iter().enumerate() {
        cells.push_str("    {\n");
        let _ = writeln!(cells, "      \"ports\": {},", cell.ports);
        let _ = writeln!(cells, "      \"coflows\": {},", cell.coflows);
        let _ = writeln!(cells, "      \"policy\": {},", json::quote(cell.policy));
        let _ = writeln!(cells, "      \"window\": {},", cell.window);
        let _ = writeln!(cells, "      \"windows\": {},", cell.run.windows);
        let _ = writeln!(
            cells,
            "      \"objective\": {},",
            fmt_f64(cell.run.objective)
        );
        let _ = writeln!(cells, "      \"makespan\": {},", cell.run.makespan);
        cells.push_str("      \"stages_ms\": {");
        for (i, stage) in SCALE_STAGES.iter().enumerate() {
            if i > 0 {
                cells.push_str(", ");
            }
            let _ = write!(
                cells,
                "{}: {}",
                json::quote(stage),
                fmt_f64(cell.stage(stage))
            );
        }
        cells.push_str("},\n");
        let _ = writeln!(
            cells,
            "      \"mem\": {{\"peak_live_bytes\": {}, \"peak_rss_kb\": {}, \
             \"alloc_calls\": {}, \"alloc_bytes\": {}}}",
            cell.peak_live_bytes, cell.peak_rss_kb, cell.alloc_calls, cell.alloc_bytes,
        );
        cells.push_str(if idx + 1 < report.cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    cells.push_str("  ]");
    let mut doc = crate::sink::JsonDoc::new(SCHEMA);
    doc.num("seed", report.seed)
        .num("window", report.window)
        .raw("cells", cells);
    doc.render()
}

/// Plain-text table of a sweep (stderr-friendly progress report).
pub fn render_scale(report: &ScaleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== scale sweep: {} cells, window {}, seed {} ==",
        report.cells.len(),
        report.window,
        report.seed
    );
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>10}",
        "ports",
        "coflows",
        "policy",
        "windows",
        "gen_ms",
        "sched_ms",
        "verify_ms",
        "total_ms",
        "rss_MiB",
        "makespan"
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{:>6} {:>9} {:<8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.1} {:>10}",
            c.ports,
            c.coflows,
            c.policy,
            c.run.windows,
            c.run.gen_ms,
            c.run.sched_ms,
            c.run.verify_ms,
            c.total_ms,
            c.peak_rss_kb as f64 / 1024.0,
            c.run.makespan,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Kind;
    use coflow_netsim::{Run, ScheduleTrace, Transfer};
    use coflow_workloads::json::JsonValue;

    fn tiny_report() -> ScaleReport {
        // Small enough to run in a debug test.
        run_scale(&[(16, 60), (200, 120)], 11, 32).expect("cells run")
    }

    #[test]
    fn cells_schedule_everything_deterministically() {
        let a = tiny_report();
        let b = tiny_report();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!((x.policy, x.window), (SCALE_POLICY, 32));
            assert!(x.run.objective > 0.0);
            assert!(x.run.makespan > 0);
            assert_eq!(x.run.windows, x.coflows.div_ceil(32) as u64);
            assert_eq!(x.run.objective.to_bits(), y.run.objective.to_bits());
            assert_eq!(x.run.makespan, y.run.makespan);
        }
    }

    /// The windows of every canonical policy, each run shifted by its
    /// window's `base` and its ids mapped to stream ids, form one schedule
    /// of the whole stream with its original releases: the replay check
    /// passes it, and its `Σ w·C` is `stream_policy`'s bit for bit. The
    /// windows share ports, so schedules that overlap in time would fail.
    #[test]
    fn windows_form_one_feasible_schedule_of_the_stream() {
        let (ports, coflows, window) = (6, 60, 7);
        let cfg = StreamConfig {
            ports,
            num_coflows: coflows,
            seed: 5,
            ..StreamConfig::default()
        };
        let whole: Vec<SparseCoflow> = CoflowStream::new(cfg.clone()).collect();
        let whole = Instance::new(
            ports,
            whole
                .iter()
                .map(|c| Coflow {
                    id: c.id,
                    demand: Demand::from_flows(ports, c.flows.iter().copied()).expect("flows"),
                    release: c.release,
                    weight: c.weight,
                })
                .collect(),
        );
        for entry in PolicyRegistry::builtin().entries() {
            let mut executed = ScheduleTrace::new(ports);
            let mut completions = vec![None; coflows];
            let run = stream_policy(entry, &cfg, window, |base, batch, out| {
                for r in &out.executed.runs {
                    let to_stream = |t: &Transfer| {
                        let id = batch[t.coflow()].id;
                        Transfer::new(t.src(), t.dst(), id, t.units).expect("ids fit")
                    };
                    executed.runs.push(Run {
                        start: base + r.start,
                        duration: r.duration,
                        transfers: r.transfers.iter().map(to_stream).collect(),
                    });
                }
                for (c, done) in batch.iter().zip(&out.completions) {
                    completions[c.id] = done.map(|d| base + d);
                }
            })
            .expect("stream runs");
            assert_eq!(run.windows, 9, "{}", entry.name);
            assert_eq!(run.makespan, executed.makespan(), "{}", entry.name);
            let out = FaultyOutcome {
                completions,
                executed,
                objective: run.objective,
                replans: 1,
                tiers: Vec::new(),
                blocked_units: 0,
                blocked: Vec::new(),
            };
            verify_faulty_outcome(&whole, &FaultPlan::default(), &out)
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
        }
    }

    fn judge_scale(baseline: &str, current: &str) -> Vec<crate::gate::Judged> {
        let gate = crate::gate::gate("scale").expect("scale gate");
        crate::gate::check(gate, baseline, current).expect("judge")
    }

    fn row<'a>(rows: &'a [crate::gate::Judged], key: &str) -> &'a crate::gate::Judged {
        rows.iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("no row {}", key))
    }

    #[test]
    fn report_json_round_trips_and_self_compares_clean() {
        let report = tiny_report();
        let rendered = render_scale_json(&report);
        let doc = json::parse(&rendered).expect("scale JSON must parse");
        assert_eq!(doc.get("schema"), Some(&JsonValue::Str(SCHEMA.to_string())));
        let Some(JsonValue::Arr(cells)) = doc.get("cells") else {
            panic!("cells array missing");
        };
        assert_eq!(cells.len(), 2);
        let rows = judge_scale(&rendered, &rendered);
        // Per cell: objective, makespan, total wall, alloc calls and bytes.
        for cell in [cell_label(16, 60), cell_label(200, 120)] {
            assert_eq!(
                rows.iter()
                    .filter(|r| r.key.ends_with(cell.as_str()))
                    .count(),
                5
            );
        }
        assert!(crate::gate::passed(&rows));
    }

    #[test]
    fn comparison_flags_wall_and_objective_drift() {
        let report = tiny_report();
        let baseline = render_scale_json(&report);
        let mut slowed = report.clone();
        slowed.cells[0].total_ms = slowed.cells[0].total_ms * 10.0 + 100.0;
        slowed.cells[1].run.objective += 1.0;
        let rows = judge_scale(&baseline, &render_scale_json(&slowed));
        let wall = row(&rows, &format!("total:{}", cell_label(16, 60)));
        assert!(wall.regressed, "10x + 100ms must breach 20% + floor");
        assert!(
            row(&rows, &cell_label(200, 120)).regressed,
            "objective drift is bit-exact"
        );
        // The untouched cell's other rows stay green.
        assert!(rows
            .iter()
            .filter(|r| r.key.ends_with(cell_label(200, 120).as_str()) && r.kind != Kind::Exact)
            .all(|r| !r.regressed));
    }

    /// `diff` judges each cell's total wall-clock, not only the stage
    /// sums: one cell 60% slower is its one regression.
    #[test]
    fn diff_judges_each_cells_total() {
        let mut base = tiny_report();
        base.cells[0].total_ms = 100.0;
        let mut slowed = base.clone();
        slowed.cells[0].total_ms = 160.0;
        let flat = |r: &ScaleReport| {
            let flat = crate::gate::flatten(&render_scale_json(r)).expect("flattens");
            flat.metrics
        };
        let tolerance = crate::diff::default_tolerance();
        let diff = crate::diff::diff_metrics(&flat(&base), &flat(&slowed), "a", "b", tolerance);
        let regressed: Vec<&str> = (diff.rows.iter().filter(|r| r.regressed))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(regressed, [format!("total:{}", cell_label(16, 60))]);
    }

    #[test]
    fn comparison_rejects_foreign_schemas() {
        let report = render_scale_json(&tiny_report());
        let gate = crate::gate::gate("scale").expect("scale gate");
        let foreign = "{\"schema\": \"other/9\", \"cells\": []}";
        assert!(crate::gate::check(gate, foreign, &report).is_err());
    }
}
