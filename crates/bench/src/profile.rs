//! Per-stage performance profile of the 12-cell experiment grid.
//!
//! Runs every cell of the §4.1 grid (orders {H_A, H_ρ, H_LP} × cases
//! {a, b, c, d}) with the `obs` registry enabled and reports, per cell,
//! the wall-clock spent in each pipeline stage plus the solver/matching
//! counters. The report serializes to `BENCH_grid.json` (schema
//! `coflow-bench-grid/3`, documented in DESIGN.md); `experiments -- gate
//! perf` judges a fresh run against the committed `BENCH_baseline.json`
//! and `gate mem` its memory view against `BENCH_mem.json` (see
//! [`crate::gate`]).
//!
//! Cells run sequentially — the registry is global, and a per-cell
//! `reset()`/`snapshot()` window is what makes the attribution exact.

use coflow::ordering::{try_compute_order_with, OrderRule};
use coflow::sched::{run_with_order, AlgorithmSpec, ExecOptions};
use coflow::Instance;
use coflow_lp::SimplexOptions;
use coflow_workloads::json::{self, fmt_f64};
use std::fmt::Write as _;
use std::time::Instant;

use crate::grid::CASES;

/// Schema tag written into every report; bump on breaking layout changes.
///
/// `/2` reports **exclusive** self-times: each stage counts only the time
/// inside its own spans, with nested reported stages subtracted (in `/1`,
/// `order` swallowed `lp_build` + `lp_solve` for the `H_LP` cells). The
/// `other` bucket absorbs un-instrumented work, so the stages sum to
/// `total`.
///
/// `/3` adds a per-cell `mem` object from the counting allocator: peak
/// live bytes and kernel peak RSS for the cell window, allocation
/// calls/bytes for the whole cell, and exclusive per-stage allocation
/// attribution (same nearest-reported-ancestor rule as the timings).
pub const SCHEMA: &str = "coflow-bench-grid/3";

/// Schema tag of the standalone memory report judged by `experiments --
/// gate mem` (see [`render_mem_json`]).
pub const MEM_SCHEMA: &str = "coflow-bench-mem/1";

/// The pipeline stages extracted from span leaf names, in report order.
/// `decompose` sums the greedy and max-min BvN variants.
pub const STAGES: [&str; 7] = [
    "lp_build",
    "lp_solve",
    "order",
    "decompose",
    "simulate",
    "other",
    "total",
];

/// Span leaves that map to reported stages; used to compute exclusive
/// self-times (a leaf nested under another reported leaf is attributed to
/// itself and subtracted from the nearest reported ancestor).
const REPORTED_LEAVES: [&str; 6] = [
    "lp.build_model",
    "lp.solve",
    "sched.order",
    "matching.bvn_decompose",
    "matching.bvn_decompose_maxmin",
    "sched.simulate",
];

/// Per-stage wall-clock of one cell, milliseconds (exclusive self-times).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Interval-LP model construction (`lp.build_model`).
    pub lp_build_ms: f64,
    /// Simplex solves (`lp.solve`); near zero when the basis cache answers
    /// from an exact hit.
    pub lp_solve_ms: f64,
    /// Ordering stage self-time (`sched.order` minus the nested LP build
    /// and solve).
    pub order_ms: f64,
    /// BvN decompositions (`matching.bvn_decompose[_maxmin]`).
    pub decompose_ms: f64,
    /// Switch simulation (`sched.simulate`).
    pub simulate_ms: f64,
    /// Un-instrumented remainder: `total` minus the other stages, clamped
    /// at zero against clock jitter.
    pub other_ms: f64,
    /// Whole cell, measured directly around order + schedule.
    pub total_ms: f64,
}

impl StageTimings {
    /// Stage value by report name ([`STAGES`]).
    pub fn get(&self, stage: &str) -> f64 {
        match stage {
            "lp_build" => self.lp_build_ms,
            "lp_solve" => self.lp_solve_ms,
            "order" => self.order_ms,
            "decompose" => self.decompose_ms,
            "simulate" => self.simulate_ms,
            "other" => self.other_ms,
            "total" => self.total_ms,
            other => panic!("unknown stage '{}'", other),
        }
    }
}

/// The stages carrying per-stage allocation attribution (the measured
/// pipeline stages; `other`/`total` remain timing-only).
pub const MEM_STAGES: [&str; 5] = ["lp_build", "lp_solve", "order", "decompose", "simulate"];

/// Allocator view of one cell: whole-cell deltas plus exclusive per-stage
/// attribution, indexed like [`MEM_STAGES`].
#[derive(Clone, Debug, Default)]
pub struct CellMem {
    /// High-water mark of live bytes inside the cell window.
    pub peak_live_bytes: u64,
    /// Kernel peak RSS (`VmHWM`, kB) at cell end; 0 when unavailable.
    /// Monotone per process — compare across runs, not across cells.
    pub peak_rss_kb: u64,
    /// Allocation calls during the cell.
    pub alloc_calls: u64,
    /// Bytes allocated during the cell.
    pub alloc_bytes: u64,
    /// Exclusive allocation calls per stage ([`MEM_STAGES`] order).
    pub stage_allocs: [u64; 5],
    /// Exclusive allocated bytes per stage ([`MEM_STAGES`] order).
    pub stage_alloc_bytes: [u64; 5],
}

impl CellMem {
    /// Stage allocation calls by report name.
    pub fn allocs(&self, stage: &str) -> u64 {
        let i = MEM_STAGES.iter().position(|s| *s == stage);
        i.map(|i| self.stage_allocs[i]).unwrap_or(0)
    }

    /// Stage allocated bytes by report name.
    pub fn bytes(&self, stage: &str) -> u64 {
        let i = MEM_STAGES.iter().position(|s| *s == stage);
        i.map(|i| self.stage_alloc_bytes[i]).unwrap_or(0)
    }
}

/// One profiled grid cell.
#[derive(Clone, Debug)]
pub struct ProfiledCell {
    /// The grid cell: ordering rule, grouping and backfilling flags.
    pub spec: AlgorithmSpec,
    /// Total weighted completion time of the produced schedule.
    pub objective: f64,
    /// Schedule makespan.
    pub makespan: u64,
    /// Per-stage wall-clock.
    pub stages: StageTimings,
    /// Allocator accounting for the cell.
    pub mem: CellMem,
    /// Every counter the cell recorded, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// A full profile run: instance parameters plus one entry per grid cell.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Trace seed.
    pub seed: u64,
    /// Fabric size (ports).
    pub ports: usize,
    /// Number of coflows in the trace.
    pub coflows: usize,
    /// The 12 profiled cells, in rule-major order.
    pub cells: Vec<ProfiledCell>,
}

/// Profiles the full 12-cell grid on `instance`.
///
/// Each cell gets a fresh registry window (`obs::reset` + enable), runs
/// ordering and scheduling sequentially, and snapshots its stage spans and
/// counters. Recording is left disabled afterwards.
pub fn run_profile(instance: &Instance, seed: u64, lp_opts: &SimplexOptions) -> ProfileReport {
    let mut cells = Vec::with_capacity(OrderRule::PAPER_RULES.len() * CASES.len());
    for &rule in &OrderRule::PAPER_RULES {
        for &(grouping, backfill) in &CASES {
            let spec = AlgorithmSpec {
                order: rule,
                grouping,
                backfill,
            };
            obs::reset();
            obs::alloc::reset_peak();
            let mem_before = obs::alloc::stats();
            obs::set_enabled(true);
            let cell_start = Instant::now();
            let order = match try_compute_order_with(instance, rule, lp_opts) {
                Ok(order) => order,
                Err(e) => panic!("profile: {:?} order failed: {}", rule, e),
            };
            let outcome = run_with_order(instance, order, grouping, ExecOptions::paper(backfill));
            let total_ms = cell_start.elapsed().as_secs_f64() * 1e3;
            let snap = obs::snapshot();
            obs::set_enabled(false);
            let mem = {
                let mem_after = &snap.alloc;
                let stage_mem = |leaf: &str| snap.span_mem_self(leaf, &REPORTED_LEAVES);
                let (lp_build_a, lp_build_b) = stage_mem("lp.build_model");
                let (lp_solve_a, lp_solve_b) = stage_mem("lp.solve");
                let (order_a, order_b) = stage_mem("sched.order");
                let (dec_a, dec_b) = stage_mem("matching.bvn_decompose");
                let (decm_a, decm_b) = stage_mem("matching.bvn_decompose_maxmin");
                let (sim_a, sim_b) = stage_mem("sched.simulate");
                let clamp = |x: i64| x.max(0) as u64;
                CellMem {
                    peak_live_bytes: mem_after.peak_live_bytes,
                    peak_rss_kb: snap.peak_rss_kb.unwrap_or(0),
                    alloc_calls: mem_after.alloc_calls.saturating_sub(mem_before.alloc_calls),
                    alloc_bytes: mem_after.alloc_bytes.saturating_sub(mem_before.alloc_bytes),
                    stage_allocs: [
                        clamp(lp_build_a),
                        clamp(lp_solve_a),
                        clamp(order_a),
                        clamp(dec_a + decm_a),
                        clamp(sim_a),
                    ],
                    stage_alloc_bytes: [
                        clamp(lp_build_b),
                        clamp(lp_solve_b),
                        clamp(order_b),
                        clamp(dec_b + decm_b),
                        clamp(sim_b),
                    ],
                }
            };
            if obs::telemetry::active() {
                let label = format!("{}/{}", rule.name(), spec.case_label());
                obs::telemetry::emit(&obs::telemetry::Sample {
                    source: "profile",
                    label: &label,
                    epoch: cells.len() as u64,
                    completed_coflows: instance.len() as u64,
                    ..Default::default()
                });
            }
            cells.push(ProfiledCell {
                spec,
                objective: outcome.objective,
                makespan: outcome.makespan(),
                stages: {
                    let self_ms = |leaf: &str| snap.span_self_ms(leaf, &REPORTED_LEAVES);
                    let lp_build_ms = self_ms("lp.build_model");
                    let lp_solve_ms = self_ms("lp.solve");
                    let order_ms = self_ms("sched.order");
                    let decompose_ms = self_ms("matching.bvn_decompose")
                        + self_ms("matching.bvn_decompose_maxmin");
                    let simulate_ms = self_ms("sched.simulate");
                    let accounted =
                        lp_build_ms + lp_solve_ms + order_ms + decompose_ms + simulate_ms;
                    StageTimings {
                        lp_build_ms,
                        lp_solve_ms,
                        order_ms,
                        decompose_ms,
                        simulate_ms,
                        other_ms: (total_ms - accounted).max(0.0),
                        total_ms,
                    }
                },
                mem,
                counters: {
                    let mut counters = snap.counters;
                    // Zero-delta counters are never registered (e.g. a
                    // presolve pass that eliminates nothing), but the
                    // report schema promises these keys in every cell.
                    for required in REQUIRED_COUNTERS {
                        counters.entry(required.to_string()).or_insert(0);
                    }
                    counters.into_iter().collect()
                },
            });
        }
    }
    ProfileReport {
        seed,
        ports: instance.ports(),
        coflows: instance.len(),
        cells,
    }
}

/// Renders the `mem` object of one cell (shared by the grid and mem
/// reports; `indent` is the continuation-line indentation).
fn render_cell_mem(mem: &CellMem) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"peak_live_bytes\": {}, \"peak_rss_kb\": {}, \"alloc_calls\": {}, \
         \"alloc_bytes\": {}, ",
        mem.peak_live_bytes, mem.peak_rss_kb, mem.alloc_calls, mem.alloc_bytes,
    );
    out.push_str("\"stage_allocs\": {");
    for (i, stage) in MEM_STAGES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json::quote(stage), mem.stage_allocs[i]);
    }
    out.push_str("}, \"stage_alloc_bytes\": {");
    for (i, stage) in MEM_STAGES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json::quote(stage), mem.stage_alloc_bytes[i]);
    }
    out.push_str("}}");
    out
}

/// Serializes `report` as `coflow-bench-grid/3` JSON.
pub fn render_json(report: &ProfileReport) -> String {
    let mut cells = String::from("[\n");
    for (idx, cell) in report.cells.iter().enumerate() {
        cells.push_str("    {\n");
        let _ = writeln!(
            cells,
            "      \"order\": {},",
            json::quote(cell.spec.order.name())
        );
        let _ = writeln!(
            cells,
            "      \"case\": {},",
            json::quote(cell.spec.case_label())
        );
        let _ = writeln!(cells, "      \"grouping\": {},", cell.spec.grouping);
        let _ = writeln!(cells, "      \"backfill\": {},", cell.spec.backfill);
        let _ = writeln!(cells, "      \"objective\": {},", fmt_f64(cell.objective));
        let _ = writeln!(cells, "      \"makespan\": {},", cell.makespan);
        cells.push_str("      \"stages_ms\": {");
        for (i, stage) in STAGES.iter().enumerate() {
            if i > 0 {
                cells.push_str(", ");
            }
            let _ = write!(
                cells,
                "{}: {}",
                json::quote(stage),
                fmt_f64(cell.stages.get(stage))
            );
        }
        cells.push_str("},\n");
        let _ = writeln!(cells, "      \"mem\": {},", render_cell_mem(&cell.mem));
        cells.push_str("      \"counters\": {");
        for (i, (name, value)) in cell.counters.iter().enumerate() {
            if i > 0 {
                cells.push_str(", ");
            }
            let _ = write!(cells, "{}: {}", json::quote(name), value);
        }
        cells.push_str("}\n");
        cells.push_str(if idx + 1 < report.cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    cells.push_str("  ]");
    let mut doc = crate::sink::JsonDoc::new(SCHEMA);
    doc.num("seed", report.seed)
        .num("ports", report.ports)
        .num("coflows", report.coflows)
        .raw("cells", cells);
    doc.render()
}

/// Serializes the memory view of `report` as `coflow-bench-mem/1` JSON —
/// the committed `BENCH_mem.json` baseline format.
pub fn render_mem_json(report: &ProfileReport) -> String {
    let mut cells = String::from("[\n");
    for (idx, cell) in report.cells.iter().enumerate() {
        let _ = write!(
            cells,
            "    {{\"order\": {}, \"case\": {}, \"mem\": {}}}",
            json::quote(cell.spec.order.name()),
            json::quote(cell.spec.case_label()),
            render_cell_mem(&cell.mem),
        );
        cells.push_str(if idx + 1 < report.cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    cells.push_str("  ]");
    let mut doc = crate::sink::JsonDoc::new(MEM_SCHEMA);
    doc.num("seed", report.seed)
        .num("ports", report.ports)
        .num("coflows", report.coflows)
        .raw("cells", cells);
    doc.render()
}

/// Counter keys the report guarantees in every cell, zero-filled when the
/// cell never touched them (H_A/H_ρ cells solve no LP; a presolve pass may
/// eliminate nothing).
pub const REQUIRED_COUNTERS: [&str; 5] = [
    "lp.simplex.pivots",
    "lp.presolve.rows_removed",
    "lp.basis_cache.exact_hits",
    "matching.bvn.permutations",
    "netsim.fabric.slots",
];

/// Plain-text table of a profile run (stderr-friendly progress report).
pub fn render_profile(report: &ProfileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== profile: {} ports, {} coflows, seed {} ==",
        report.ports, report.coflows, report.seed
    );
    let _ = writeln!(
        out,
        "{:<6} {:<4} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "order",
        "case",
        "objective",
        "lp_build",
        "lp_solve",
        "order",
        "decomp",
        "simulate",
        "other",
        "total",
        "peakMiB",
        "allocs"
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{:<6} {:<4} {:>12.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} \
             {:>9.1} {:>9}",
            c.spec.order.name(),
            c.spec.case_label(),
            c.objective,
            c.stages.lp_build_ms,
            c.stages.lp_solve_ms,
            c.stages.order_ms,
            c.stages.decompose_ms,
            c.stages.simulate_ms,
            c.stages.other_ms,
            c.stages.total_ms,
            c.mem.peak_live_bytes as f64 / (1024.0 * 1024.0),
            c.mem.alloc_calls,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Kind;
    use coflow_workloads::json::JsonValue;
    use coflow_workloads::{generate_trace, TraceConfig};
    use std::sync::OnceLock;

    /// The report every test reads, computed once: `run_profile` resets and
    /// toggles the process-global obs registry, so runs from tests on
    /// parallel threads would wipe each other's counters.
    fn tiny_report() -> &'static ProfileReport {
        static REPORT: OnceLock<ProfileReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            let inst = generate_trace(&TraceConfig::small(7));
            run_profile(&inst, 7, &SimplexOptions::default())
        })
    }

    #[test]
    fn profile_covers_all_twelve_cells_with_required_counters() {
        let report = tiny_report();
        assert_eq!(report.cells.len(), 12);
        for cell in &report.cells {
            assert!(cell.stages.total_ms > 0.0);
            let counter = |name: &str| {
                cell.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
            };
            // The schema-promised keys are present in every cell, even
            // where the underlying counter never fired.
            for required in REQUIRED_COUNTERS {
                assert!(
                    counter(required).is_some(),
                    "cell missing required counter {}",
                    required
                );
            }
            // Every cell decomposes and simulates.
            assert!(counter("matching.bvn.permutations").unwrap_or(0) > 0);
            assert!(counter("netsim.fabric.slots").unwrap_or(0) > 0);
            if cell.spec.order == OrderRule::LpBased {
                // An H_LP cell either solved the interval LP (pivots) or
                // got the stored solution from the process-global basis
                // cache (exact hit) — identical output either way.
                assert!(
                    counter("lp.simplex.pivots").unwrap_or(0) > 0
                        || counter("lp.basis_cache.exact_hits").unwrap_or(0) > 0,
                    "H_LP cells must record pivots or a basis-cache hit"
                );
            }
        }
    }

    fn gate(name: &str) -> &'static crate::gate::Gate {
        crate::gate::gate(name).expect("gate")
    }

    fn row<'a>(rows: &'a [crate::gate::Judged], key: &str) -> &'a crate::gate::Judged {
        rows.iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("no row {}", key))
    }

    #[test]
    fn report_json_round_trips_and_self_compares_clean() {
        let report = tiny_report();
        let rendered = render_json(report);
        let doc = json::parse(&rendered).expect("profile JSON must parse");
        assert_eq!(doc.get("schema"), Some(&JsonValue::Str(SCHEMA.to_string())));
        let Some(JsonValue::Arr(cells)) = doc.get("cells") else {
            panic!("cells array missing");
        };
        assert_eq!(cells.len(), 12);
        // A report never regresses against itself.
        let rows = crate::gate::check(gate("perf"), &rendered, &rendered).expect("judge");
        assert_eq!(
            rows.iter().filter(|r| r.kind == Kind::Wall).count(),
            STAGES.len()
        );
        // Allocations are the mem gate's, judged against its own golden.
        assert!(rows
            .iter()
            .all(|r| matches!(r.kind, Kind::Exact | Kind::Wall)));
        assert!(crate::gate::passed(&rows));
    }

    #[test]
    fn comparison_flags_large_slow_stages_only() {
        let report = tiny_report();
        let baseline = render_json(report);
        let mut slowed = report.clone();
        for cell in &mut slowed.cells {
            cell.stages.simulate_ms = cell.stages.simulate_ms * 10.0 + 50.0;
            cell.stages.total_ms += 50.0;
        }
        let current = render_json(&slowed);
        let rows = crate::gate::check(gate("perf"), &baseline, &current).expect("judge");
        assert!(
            row(&rows, "simulate").regressed,
            "10x + 50ms/cell must breach 20%+floor"
        );
        // Sub-floor stages stay green even at huge ratios.
        assert!(!row(&rows, "lp_build").regressed);
        // Objectives and makespans did not move.
        assert!(rows
            .iter()
            .filter(|r| r.kind == Kind::Exact)
            .all(|r| !r.regressed));
    }

    #[test]
    fn comparison_rejects_foreign_schemas() {
        let report = render_json(tiny_report());
        let foreign = "{\"schema\": \"other/9\", \"cells\": []}";
        assert!(crate::gate::check(gate("perf"), foreign, &report).is_err());
        assert!(crate::gate::check(gate("perf"), &report, foreign).is_err());
    }

    #[test]
    fn cells_carry_allocator_accounting() {
        let report = tiny_report();
        for cell in &report.cells {
            // Every cell schedules something, so it must allocate.
            assert!(cell.mem.alloc_calls > 0, "cell recorded no allocations");
            assert!(cell.mem.alloc_bytes > 0);
            assert!(cell.mem.peak_live_bytes > 0);
            // Stage attribution never exceeds the whole cell.
            let stage_total: u64 = cell.mem.stage_allocs.iter().sum();
            assert!(
                stage_total <= cell.mem.alloc_calls,
                "stage allocs {} exceed cell total {}",
                stage_total,
                cell.mem.alloc_calls
            );
            // Simulation allocates in every cell (trace growth).
            assert!(cell.mem.allocs("simulate") > 0);
        }
        if cfg!(target_os = "linux") {
            assert!(report.cells.iter().all(|c| c.mem.peak_rss_kb > 0));
        }
    }

    #[test]
    fn mem_report_round_trips_and_self_compares_clean() {
        let report = tiny_report();
        let rendered = render_mem_json(report);
        let doc = json::parse(&rendered).expect("mem JSON must parse");
        assert_eq!(
            doc.get("schema"),
            Some(&JsonValue::Str(MEM_SCHEMA.to_string()))
        );
        let rows = crate::gate::check(gate("mem"), &rendered, &rendered).expect("judge");
        // Per-stage calls and bytes, whole-run calls, bytes and peak live.
        assert_eq!(
            rows.iter().filter(|r| r.kind == Kind::Alloc).count(),
            MEM_STAGES.len() * 2 + 3
        );
        assert!(crate::gate::passed(&rows));
        // The grid report embeds the same mem object per cell.
        let grid = json::parse(&render_json(report)).expect("grid JSON");
        let Some(JsonValue::Arr(cells)) = grid.get("cells") else {
            panic!("cells")
        };
        assert!(cells.iter().all(|c| c.get("mem").is_some()));
    }

    #[test]
    fn mem_comparison_flags_growth_above_floor_and_tolerance() {
        let report = tiny_report();
        let baseline = render_mem_json(report);
        let mut grown = report.clone();
        for cell in &mut grown.cells {
            cell.mem.alloc_calls = cell.mem.alloc_calls * 3 + 100_000;
            cell.mem.stage_allocs[4] = cell.mem.stage_allocs[4] * 3 + 100_000;
        }
        let current = render_mem_json(&grown);
        let rows = crate::gate::check(gate("mem"), &baseline, &current).expect("judge");
        let total = row(&rows, "alloc_calls(total)");
        assert!(
            total.regressed,
            "3x + 100k calls/cell must breach 25% + floor"
        );
        assert!(row(&rows, "allocs:simulate").regressed);
        // Byte metrics did not move; they stay green.
        assert!(!row(&rows, "alloc_bytes(total)").regressed);
        // Foreign schemas are rejected.
        let foreign = "{\"schema\": \"other/9\", \"cells\": []}";
        assert!(crate::gate::check(gate("mem"), foreign, &current).is_err());
    }
}
