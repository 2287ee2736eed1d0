//! Pinned-objective regression gate for the scheduling engine.
//!
//! The engine refactor promised bit-identical schedules: every grid cell,
//! the online ρ/w scheduler, the greedy baseline, the successor policies
//! and the fault-injected combinations must keep producing the
//! exact objectives they produced when the pins were written. This module
//! computes those objectives on a deterministic arrivals instance and
//! renders them as `coflow-pins/1` JSON (`BENCH_pins.json`); `experiments
//! -- gate pins` judges a fresh run against the committed file with
//! [`crate::gate`] — objectives are matched on their f64 **bit
//! patterns**, so even a last-ulp drift fails the gate.
//!
//! The cells are one table ([`pin_cells`]): a label, the policy
//! constructor and the fault plan of each. The checkpoint differential
//! test replays the same table through the fault engine.
//!
//! The report also records the wall-clock of the engine-driven section
//! (online + greedy + fault combos, the paths the old hand loops served),
//! which the pin gate bounds as its one `Wall` row.

use crate::arrivals::arrivals_instance;
use crate::grid::paper_grid;
use coflow::sched::recovery::verify_faulty_outcome;
use coflow::{
    compute_order, run_policy, run_policy_with_faults, AlgorithmSpec, BvnBatchPolicy, ExecOptions,
    Instance, OrderRule, Policy, PolicyRegistry, ResilientPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of the pin file; bump on layout changes.
pub const SCHEMA: &str = "coflow-pins/1";

/// Fault rate of the pinned fault-injected cells.
pub const FAULT_RATE: f64 = 0.3;

/// Fault rate of the successor-policy fault cells (`faults20/*`) — the
/// tournament's shared rate. The plan stream is decoupled from the 0.3
/// plan by [`FAULT20_SEED_OFFSET`].
pub const FAULT_RATE_20: f64 = 0.2;

/// Seed offset of the `faults20/*` plan stream relative to the pin seed.
pub const FAULT20_SEED_OFFSET: u64 = 20;

/// One pinned measurement.
#[derive(Clone, Debug)]
pub struct Pin {
    /// Stable label, e.g. `grid/H_LP/d`, `online/fixed`, `faults/greedy`.
    pub label: String,
    /// Total weighted completion time (over survivors for fault cells).
    pub objective: f64,
    /// Schedule makespan (executed-trace makespan for fault cells).
    pub makespan: u64,
}

/// A full pin run.
#[derive(Clone, Debug)]
pub struct PinReport {
    /// Instance seed.
    pub seed: u64,
    /// Wall-clock of the engine-driven section (online/greedy/faults), ms.
    pub engine_ms: f64,
    /// Every pinned cell, in a stable order.
    pub pins: Vec<Pin>,
}

/// The fault plan a pin cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinPlan {
    /// No fault: the cell runs through `run_policy`.
    Clean,
    /// Rate [`FAULT_RATE`] on the pin seed, over the clean online and
    /// greedy makespans.
    Faults,
    /// Rate [`FAULT_RATE_20`] on the seed offset by
    /// [`FAULT20_SEED_OFFSET`], over the clean makespans of every engine
    /// policy.
    Faults20,
}

impl PinPlan {
    /// The plan on `instance` for pin seed `seed`. Its horizon is the
    /// largest makespan among the clean `pins` listed for it, so the
    /// committed pins reproduce the plan they were measured under.
    pub fn generate(self, instance: &Instance, seed: u64, pins: &[Pin]) -> FaultPlan {
        let (rate, seed, horizon_cells): (f64, u64, &[&str]) = match self {
            PinPlan::Clean => return FaultPlan::new(vec![]),
            PinPlan::Faults => (FAULT_RATE, seed, &["online/fixed", "greedy"]),
            PinPlan::Faults20 => (
                FAULT_RATE_20,
                seed.wrapping_add(FAULT20_SEED_OFFSET),
                &["online/fixed", "greedy", "shafiee-ghaderi", "im-purohit"],
            ),
        };
        let horizon = pins
            .iter()
            .filter(|p| horizon_cells.contains(&p.label.as_str()))
            .map(|p| p.makespan)
            .max()
            .unwrap_or(1)
            .max(1);
        FaultPlan::generate(instance.ports(), instance.len(), horizon, rate, seed)
    }
}

/// Builds a fresh policy over an instance.
type PolicyCtor = Box<dyn Fn(&Instance) -> Box<dyn Policy>>;

/// One row of the pin table: a label, the policy it pins and the fault
/// plan it runs under.
pub struct PinCell {
    /// Stable label, e.g. `grid/H_LP/d`, `online/fixed`, `faults/greedy`.
    pub label: String,
    /// The fault plan of the cell.
    pub plan: PinPlan,
    build: PolicyCtor,
}

impl PinCell {
    /// Builds a fresh policy for the cell.
    pub fn build(&self, instance: &Instance) -> Box<dyn Policy> {
        (self.build)(instance)
    }
}

/// The pin table, in report order: the 12 §4 grid cells on the BvN batch
/// policy, the clean engine-policy cells, the rate-0.3 fault cells and the
/// rate-0.2 successor-policy cells. Every cell but the grid and
/// `faults/resilient` (the replanner on the `H_ρ` order, where the
/// registry's `resilient` plans `H_LP`) is a registry entry. The clean
/// cells come first: the fault plans' horizons are read from them.
pub fn pin_cells() -> Vec<PinCell> {
    let registry = |label: &str, plan: PinPlan, name: &str| {
        let entry = PolicyRegistry::builtin()
            .get(name)
            .expect("built-in policy");
        PinCell {
            label: label.to_string(),
            plan,
            build: Box::new(move |instance| entry.build(instance)),
        }
    };
    let mut cells: Vec<PinCell> = paper_grid()
        .map(|spec| PinCell {
            label: format!("grid/{}/{}", spec.order.name(), spec.case_label()),
            plan: PinPlan::Clean,
            build: Box::new(move |instance| {
                let order = compute_order(instance, spec.order);
                let opts = ExecOptions::paper(spec.backfill);
                Box::new(BvnBatchPolicy::grouped(
                    instance,
                    order,
                    spec.grouping,
                    opts,
                ))
            }),
        })
        .collect();
    cells.extend([
        registry("online/fixed", PinPlan::Clean, "online"),
        registry("greedy", PinPlan::Clean, "greedy"),
        registry("shafiee-ghaderi", PinPlan::Clean, "shafiee-ghaderi"),
        registry("im-purohit", PinPlan::Clean, "im-purohit"),
        PinCell {
            label: "faults/resilient".to_string(),
            plan: PinPlan::Faults,
            build: Box::new(|_| {
                let spec = AlgorithmSpec {
                    order: OrderRule::LoadOverWeight,
                    grouping: true,
                    backfill: true,
                };
                Box::new(ResilientPolicy::new(spec, SimplexOptions::default()))
            }),
        },
        registry("faults/online", PinPlan::Faults, "online"),
        registry("faults/greedy", PinPlan::Faults, "greedy"),
        registry(
            "faults20/shafiee-ghaderi",
            PinPlan::Faults20,
            "shafiee-ghaderi",
        ),
        registry("faults20/im-purohit", PinPlan::Faults20, "im-purohit"),
    ]);
    cells
}

/// Computes every pin of [`pin_cells`] on `instance` (must have release
/// dates for the online cells to be meaningful): clean cells through
/// `run_policy`, fault cells under their plan. Fault-injected outcomes are
/// verified before pinning; an invalid schedule panics — that is an engine
/// bug.
pub fn collect_pins_on(instance: &Instance, seed: u64) -> PinReport {
    let mut pins: Vec<Pin> = Vec::new();
    // The engine section — every cell after the grid: the policies the old
    // hand loops used to serve, plus the fault combinations — is timed.
    let mut start = None;
    for cell in pin_cells() {
        if start.is_none() && !cell.label.starts_with("grid/") {
            start = Some(Instant::now());
        }
        let mut policy = cell.build(instance);
        let (objective, makespan) = if cell.plan == PinPlan::Clean {
            let out = run_policy(instance, &mut *policy)
                .unwrap_or_else(|e| panic!("pins: {} hit an engine bug: {}", cell.label, e));
            (out.objective, out.makespan())
        } else {
            let plan = cell.plan.generate(instance, seed, &pins);
            let out = run_policy_with_faults(instance, &mut *policy, &plan)
                .unwrap_or_else(|e| panic!("pins: {} hit an engine bug: {}", cell.label, e));
            if let Err(e) = verify_faulty_outcome(instance, &plan, &out) {
                panic!("pins: {} produced an invalid schedule: {}", cell.label, e);
            }
            (out.objective, out.executed.makespan())
        };
        pins.push(Pin {
            label: cell.label,
            objective,
            makespan,
        });
    }
    let engine_ms = start.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
    PinReport {
        seed,
        engine_ms,
        pins,
    }
}

/// Computes the pins on the canonical arrivals instance (24 ports, 36
/// coflows, Poisson arrivals) — the configuration `BENCH_pins.json` was
/// written from.
pub fn collect_pins(seed: u64) -> PinReport {
    collect_pins_on(&arrivals_instance(24, 36, seed), seed)
}

/// Serializes a pin run as `coflow-pins/1` JSON. Objectives are written
/// both as shortest-round-trip decimals and as raw bit patterns; the
/// comparison uses the bits.
pub fn render_pins_json(report: &PinReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json::quote(SCHEMA));
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"engine_ms\": {},", fmt_f64(report.engine_ms));
    out.push_str("  \"pins\": [\n");
    for (i, pin) in report.pins.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": {}, \"objective\": {}, \"objective_bits\": {}, \"makespan\": {}}}",
            json::quote(&pin.label),
            fmt_f64(pin.objective),
            pin.objective.to_bits(),
            pin.makespan,
        );
        out.push_str(if i + 1 < report.pins.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a serialized pin file back into a [`PinReport`] through the
/// strict typed reader ([`crate::gate::read_pins`]; objectives come from
/// the bit patterns, so the round trip is exact).
pub fn parse_pins(text: &str) -> Result<PinReport, String> {
    crate::gate::read_report(text, SCHEMA, crate::gate::read_pins).map_err(|e| e.to_string())
}

/// Plain-text table of a pin run.
pub fn render_pins(report: &PinReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== pins: seed {}, engine section {:.1} ms ==",
        report.seed, report.engine_ms
    );
    let _ = writeln!(out, "{:<22} {:>14} {:>9}", "cell", "objective", "makespan");
    for pin in &report.pins {
        let _ = writeln!(
            out,
            "{:<22} {:>14.1} {:>9}",
            pin.label, pin.objective, pin.makespan
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PinReport {
        collect_pins_on(&arrivals_instance(8, 10, 3), 3)
    }

    #[test]
    fn pins_cover_grid_policies_and_fault_combos() {
        let report = tiny_report();
        let labels: Vec<&str> = report.pins.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            report.pins.len(),
            21,
            "12 grid + 4 policies + 3 fault cells + 2 faults20 cells"
        );
        for required in [
            "grid/H_LP/d",
            "grid/H_A/a",
            "online/fixed",
            "greedy",
            "shafiee-ghaderi",
            "im-purohit",
            "faults/resilient",
            "faults/online",
            "faults/greedy",
            "faults20/shafiee-ghaderi",
            "faults20/im-purohit",
        ] {
            assert!(labels.contains(&required), "missing pin {}", required);
        }
        assert!(report.engine_ms > 0.0);
    }

    fn judge_pins(baseline: &PinReport, current: &PinReport) -> Vec<crate::gate::Judged> {
        let gate = crate::gate::gate("pins").expect("pins gate");
        crate::gate::check(
            gate,
            &render_pins_json(baseline),
            &render_pins_json(current),
        )
        .expect("judge")
    }

    #[test]
    fn pin_json_round_trips_exactly_and_self_compares_clean() {
        let report = tiny_report();
        let parsed = parse_pins(&render_pins_json(&report)).expect("round trip");
        assert_eq!(parsed.seed, report.seed);
        assert_eq!(parsed.engine_ms.to_bits(), report.engine_ms.to_bits());
        assert_eq!(parsed.pins.len(), report.pins.len());
        for (a, b) in report.pins.iter().zip(&parsed.pins) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.makespan, b.makespan);
        }
        assert!(crate::gate::passed(&judge_pins(&parsed, &report)));
    }

    #[test]
    fn comparison_catches_last_ulp_drift_and_slow_engines() {
        let report = tiny_report();
        let mut drifted = report.clone();
        drifted.pins[0].objective = f64::from_bits(drifted.pins[0].objective.to_bits() + 1);
        assert!(
            !crate::gate::passed(&judge_pins(&report, &drifted)),
            "1-ulp drift must fail"
        );

        let floor = crate::gate::rule("pins", crate::gate::Kind::Wall, "engine")
            .expect("pins wall rule")
            .floor;
        let mut slow = report.clone();
        slow.engine_ms = report.engine_ms * 3.0 + floor * 2.0;
        assert!(
            !crate::gate::passed(&judge_pins(&report, &slow)),
            "slow engine must fail"
        );

        let mut renamed = report.clone();
        renamed.pins[0].label = "grid/H_X/z".to_string();
        assert!(
            !crate::gate::passed(&judge_pins(&report, &renamed)),
            "label drift must fail"
        );
    }

    #[test]
    fn parser_rejects_foreign_schemas() {
        assert!(parse_pins("{\"schema\": \"other/9\", \"pins\": []}").is_err());
    }
}
