//! Adversarial chaos harness for the crash-safe engine.
//!
//! Two attack surfaces, one report:
//!
//! * **Process kills** ([`run_chaos`]): every engine-driven policy is run
//!   under a seeded fault plan while being killed at randomized decision
//!   epochs — each kill serializes a full [`EngineSnapshot`] to JSON,
//!   re-parses it, and resumes from the restored engine, exactly the
//!   crash/restart path of a real deployment. Per kill the harness checks
//!   **demand conservation** (delivered + residual = initial for every
//!   surviving coflow), **monotone progress** (time and per-coflow residual
//!   demand never move backwards), and at the end that **all surviving
//!   demand completed** ([`verify_faulty_outcome`]) and the outcome is
//!   **bit-identical** to an uninterrupted run — objective bits, replans,
//!   tiers, and the executed trace.
//! * **Adversarial faults** ([`worst_window_search`]): instead of seeded
//!   random outages, [`FaultPlan::adversarial`] targets the busiest ports
//!   of the heaviest-`ρ·w` coflow, and the harness searches outage start
//!   slots (candidates derived from the clean run's makespan) for the
//!   window maximizing TWCT inflation, compared against seeded-random
//!   plans at the same event budget.
//!
//! Every invariant is checked inside the run: [`run_chaos`] panics on the
//! first violation, so a report that exists describes rounds that held
//! them all. It serializes as `coflow-chaos/2`; `scripts/check-all.sh`
//! runs a fixed-seed kill harness as its `chaos` step.

use coflow::sched::engine::{run_policy, run_policy_with_faults, Engine};
use coflow::sched::recovery::verify_faulty_outcome;
use coflow::sched::snapshot::EngineSnapshot;
use coflow::{
    compute_order, AlgorithmSpec, BvnBatchPolicy, ExecOptions, FaultyOutcome, Instance, OrderRule,
    Policy, PolicyRegistry, ResilientPolicy, WatchdogPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::{AdversarialConfig, FaultPlan};
use coflow_workloads::json::{self, fmt_f64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Schema tag of the chaos report; bump on layout changes.
pub const SCHEMA: &str = "coflow-chaos/2";

/// The policies the kill harness drives, in report order.
pub const CHAOS_POLICIES: [&str; 4] = ["resilient", "online", "greedy", "watchdog-bvn"];

/// Chaos-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Kill/restore interruptions per policy run.
    pub kills: usize,
    /// Seed for the fault plan and the kill schedule.
    pub seed: u64,
    /// Fault rate of the seeded background plan.
    pub fault_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            kills: 4,
            seed: 2015,
            fault_rate: 0.3,
        }
    }
}

/// One policy's kill-harness result. A round exists only when the
/// interrupted run matched the uninterrupted reference bit for bit
/// (objective bits, replans, tiers, executed trace, completions).
#[derive(Clone, Debug)]
pub struct ChaosRound {
    /// Policy label (one of [`CHAOS_POLICIES`]).
    pub policy: String,
    /// Kills actually performed (a short run may finish before the
    /// schedule calls for more).
    pub kills: usize,
    /// Decision epochs of the interrupted run.
    pub epochs: u64,
    /// Snapshot document bytes of the largest checkpoint.
    pub snapshot_bytes: usize,
    /// Final TWCT over survivors.
    pub objective: f64,
    /// Planning epochs of the final outcome.
    pub replans: usize,
}

/// One adversarial-window measurement.
#[derive(Clone, Debug)]
pub struct WindowCell {
    /// Outage start slot.
    pub start: u64,
    /// TWCT inflation of the adversarial plan over the clean run.
    pub adversarial_inflation: f64,
    /// Inflation of a seeded-random plan with a matched event budget.
    pub random_inflation: f64,
}

/// The adversarial worst-window search result.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Ports attacked per side.
    pub ports: usize,
    /// Outage window length in slots.
    pub window: u64,
    /// Every candidate start, in scan order.
    pub cells: Vec<WindowCell>,
    /// Start slot of the worst window found.
    pub worst_start: u64,
    /// Its inflation.
    pub worst_inflation: f64,
}

/// The full chaos report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Configuration used.
    pub config: ChaosConfig,
    /// One round per policy.
    pub rounds: Vec<ChaosRound>,
    /// The adversarial search (when run).
    pub windows: Option<WindowReport>,
    /// True when a SIGINT cut the run short, so rounds may be missing;
    /// otherwise there is one round per [`CHAOS_POLICIES`] entry.
    pub partial: bool,
}

/// Builds a fresh instance of the named chaos policy.
fn make_policy(instance: &Instance, name: &str, lp_opts: &SimplexOptions) -> Box<dyn Policy> {
    match name {
        "resilient" => Box::new(ResilientPolicy::new(
            AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
            lp_opts.clone(),
        )),
        "online" | "greedy" => PolicyRegistry::builtin()
            .get(name)
            .expect("registry policy")
            .build(instance),
        "watchdog-bvn" => {
            // The batch pipeline has no replanning story of its own; the
            // watchdog's Finished-rescue makes it survivable under faults.
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            Box::new(WatchdogPolicy::over_bvn(BvnBatchPolicy::grouped(
                instance,
                order,
                true,
                ExecOptions::default(),
            )))
        }
        other => panic!("unknown chaos policy '{}'", other),
    }
}

/// Initial demand totals per coflow.
fn initial_totals(instance: &Instance) -> Vec<u64> {
    (0..instance.len())
        .map(|k| instance.coflow(k).demand.total())
        .collect()
}

/// Units delivered per coflow according to a snapshot's executed trace.
/// A transfer moves one unit in every slot of its run.
fn delivered_per_coflow(snapshot: &EngineSnapshot, n: usize) -> Vec<u64> {
    let mut delivered = vec![0u64; n];
    for run in &snapshot.sim.executed.runs {
        for t in &run.transfers {
            delivered[t.coflow()] += run.duration;
        }
    }
    delivered
}

/// Drives one policy run, killing and restoring at seeded-random epochs,
/// checking invariants at every kill. Returns the round summary (or
/// `Ok(None)` when a SIGINT abandoned the round mid-run — the partial
/// report keeps the rounds already finished) or the first invariant
/// violation.
fn chaos_run(
    instance: &Instance,
    name: &str,
    plan: &FaultPlan,
    lp_opts: &SimplexOptions,
    kills: usize,
    seed: u64,
) -> Result<Option<ChaosRound>, String> {
    let fail = |what: String| format!("policy {}: {}", name, what);
    let totals = initial_totals(instance);
    let n = instance.len();

    // Uninterrupted reference.
    let mut reference_policy = make_policy(instance, name, lp_opts);
    let reference = run_policy_with_faults(instance, reference_policy.as_mut(), plan)
        .map_err(|e| fail(format!("reference run failed: {}", e)))?;

    // Interrupted run: step, kill at scheduled epochs, restore from the
    // serialized document, continue.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut engine = Engine::new(instance, plan);
    let mut policy = make_policy(instance, name, lp_opts);
    let mut performed = 0usize;
    let mut epochs = 0u64;
    let mut snapshot_bytes = 0usize;
    let mut next_kill: u64 = rng.gen_range(1..=6);
    let mut last_now = 0u64;
    let mut last_remaining = totals.clone();
    loop {
        // SIGINT mid-round: abandon this round (its engine state is
        // discardable) so the caller can write the partial report through
        // the same atomic path as a completed one.
        if obs::interrupted() {
            return Ok(None);
        }
        let more = engine
            .step(policy.as_mut())
            .map_err(|e| fail(format!("step failed: {}", e)))?;
        epochs += 1;
        if !more {
            break;
        }
        // Count down only while kills remain: once the budget is spent the
        // countdown is disarmed (decrementing past zero underflows in
        // debug builds; release builds used to wrap silently, which
        // happened to behave the same as disarming).
        if performed >= kills {
            continue;
        }
        next_kill -= 1;
        if next_kill == 0 {
            performed += 1;
            next_kill = rng.gen_range(1..=6);
            let snapshot = engine
                .checkpoint(policy.as_ref())
                .map_err(|e| fail(format!("checkpoint failed: {}", e)))?;
            let text = snapshot.to_json();
            snapshot_bytes = snapshot_bytes.max(text.len());
            let parsed = EngineSnapshot::from_json(&text)
                .map_err(|e| fail(format!("snapshot re-parse failed: {}", e)))?;

            // Invariant: monotone progress. Time never rewinds; residual
            // demand never grows.
            if parsed.sim.now < last_now {
                return Err(fail(format!(
                    "time moved backwards: {} -> {}",
                    last_now, parsed.sim.now
                )));
            }
            last_now = parsed.sim.now;
            for (k, last) in last_remaining.iter_mut().enumerate().take(n) {
                if parsed.sim.remaining_total[k] > *last {
                    return Err(fail(format!(
                        "coflow {}: residual demand grew {} -> {}",
                        k, *last, parsed.sim.remaining_total[k]
                    )));
                }
                *last = parsed.sim.remaining_total[k];
            }

            // Invariant: demand conservation. For surviving coflows every
            // initial unit is either delivered or still residual;
            // cancellation drops residual demand but never un-delivers.
            let delivered = delivered_per_coflow(&parsed, n);
            for k in 0..n {
                if parsed.sim.cancelled[k] {
                    if delivered[k] > totals[k] {
                        return Err(fail(format!(
                            "coflow {}: delivered {} > initial {}",
                            k, delivered[k], totals[k]
                        )));
                    }
                } else if delivered[k] + parsed.sim.remaining_total[k] != totals[k] {
                    return Err(fail(format!(
                        "coflow {}: delivered {} + residual {} != initial {}",
                        k, delivered[k], parsed.sim.remaining_total[k], totals[k]
                    )));
                }
            }

            // Kill: throw the live engine and policy away; resume from the
            // parsed document alone.
            let (restored_engine, restored_policy) = Engine::restore(instance, parsed)
                .map_err(|e| fail(format!("restore failed: {}", e)))?;
            engine = restored_engine;
            policy = restored_policy;
        }
    }
    let outcome = engine.into_outcome(policy.as_mut());

    // Invariant: all surviving demand completed, on a structurally valid
    // schedule.
    verify_faulty_outcome(instance, plan, &outcome)
        .map_err(|e| fail(format!("final schedule invalid: {}", e)))?;

    // Invariant: interrupted == uninterrupted, bit for bit — the blocked
    // log too, which every kill writes one entry per unit and merges back.
    let bit_identical = outcome.objective.to_bits() == reference.objective.to_bits()
        && outcome.replans == reference.replans
        && outcome.tiers == reference.tiers
        && outcome.executed == reference.executed
        && outcome.completions == reference.completions
        && outcome.blocked_units == reference.blocked_units
        && outcome.blocked == reference.blocked;
    if !bit_identical {
        return Err(fail(format!(
            "interrupted run diverged: objective {} (bits {:#x}) vs reference {} (bits {:#x}), \
             replans {} vs {}, blocked units {} in {} runs vs {} in {} runs",
            outcome.objective,
            outcome.objective.to_bits(),
            reference.objective,
            reference.objective.to_bits(),
            outcome.replans,
            reference.replans,
            outcome.blocked_units,
            outcome.blocked.len(),
            reference.blocked_units,
            reference.blocked.len(),
        )));
    }

    Ok(Some(ChaosRound {
        policy: name.to_string(),
        kills: performed,
        epochs,
        snapshot_bytes,
        objective: outcome.objective,
        replans: outcome.replans,
    }))
}

/// Runs the kill harness over every policy in [`CHAOS_POLICIES`]. Panics
/// on the first invariant violation — a violation is an engine bug, not
/// data.
pub fn run_chaos(instance: &Instance, config: &ChaosConfig) -> ChaosReport {
    let lp_opts = SimplexOptions::default();
    // A shared seeded plan so rounds are comparable; the horizon comes from
    // a cheap clean reference (greedy).
    let greedy = PolicyRegistry::builtin()
        .get("greedy")
        .expect("registry policy");
    let clean = run_policy(instance, &mut *greedy.build(instance)).expect("greedy is infallible");
    let horizon = clean.makespan().max(1);
    let plan = FaultPlan::generate(
        instance.ports(),
        instance.len(),
        horizon,
        config.fault_rate,
        config.seed,
    );
    let mut rounds = Vec::with_capacity(CHAOS_POLICIES.len());
    let mut partial = false;
    for name in CHAOS_POLICIES {
        // SIGINT: stop between rounds; the caller writes a partial report.
        if obs::interrupted() {
            partial = true;
            break;
        }
        if obs::telemetry::active() {
            obs::telemetry::emit(&obs::telemetry::Sample {
                source: "chaos",
                label: name,
                completed_coflows: rounds.len() as u64,
                ..Default::default()
            });
        }
        match chaos_run(instance, name, &plan, &lp_opts, config.kills, config.seed) {
            Ok(Some(round)) => rounds.push(round),
            Ok(None) => {
                // Interrupted mid-round: the abandoned round is dropped.
                partial = true;
                break;
            }
            Err(e) => panic!("chaos invariant violated: {}", e),
        }
    }
    ChaosReport {
        config: *config,
        rounds,
        windows: None,
        partial,
    }
}

/// Searches adversarial outage windows for the worst TWCT inflation.
///
/// The attack targets the busiest ports of the heaviest `w·ρ` coflow
/// ([`FaultPlan::adversarial`]) with `ports`-per-side outages of length
/// `window`; candidate start slots sweep the clean makespan. Each
/// adversarial plan is compared against a seeded-random plan whose event
/// count is matched (same number of outages over the same horizon), so the
/// reported gap measures *targeting*, not budget.
pub fn worst_window_search(
    instance: &Instance,
    ports: usize,
    window: u64,
    candidates: usize,
    seed: u64,
) -> WindowReport {
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    let lp_opts = SimplexOptions::default();
    let mut clean_policy = ResilientPolicy::new(spec, lp_opts.clone());
    let clean = match run_policy_with_faults(instance, &mut clean_policy, &FaultPlan::new(vec![])) {
        Ok(out) => out,
        Err(e) => panic!("worst-window: clean reference failed: {}", e),
    };
    let clean_objective = clean.objective.max(f64::MIN_POSITIVE);
    let makespan = clean.executed.makespan().max(2);

    let weights = instance.weights();
    let survivors_objective = |out: &FaultyOutcome| -> f64 {
        // Inflation over the same surviving set, as in the fault sweep.
        let base: f64 = out
            .completions
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(k, _)| weights[k] * clean.completions[k].unwrap_or(0) as f64)
            .sum();
        if base > 0.0 {
            out.objective / base
        } else {
            out.objective / clean_objective
        }
    };

    let candidates = candidates.max(1);
    let mut cells = Vec::with_capacity(candidates);
    for c in 0..candidates {
        // SIGINT: stop between candidates; partial cells still validate.
        if obs::interrupted() && !cells.is_empty() {
            break;
        }
        // Sweep start slots across the clean makespan.
        let start = 1 + (makespan - 1) * c as u64 / candidates as u64;
        let cfg = AdversarialConfig {
            ports,
            window,
            start,
        };
        let adv_plan = FaultPlan::adversarial(instance.demands(), &weights, &cfg);
        let mut adv_policy = ResilientPolicy::new(spec, lp_opts.clone());
        let adv = match run_policy_with_faults(instance, &mut adv_policy, &adv_plan) {
            Ok(out) => out,
            Err(e) => panic!("worst-window: adversarial run failed: {}", e),
        };
        if let Err(e) = verify_faulty_outcome(instance, &adv_plan, &adv) {
            panic!("worst-window: adversarial schedule invalid: {}", e);
        }

        // Matched-budget random plan: same outage count over the same
        // horizon, seeded per candidate; rebuilt until the budget matches
        // (the generator is probabilistic) or a bounded number of tries.
        let budget = adv_plan.events.len();
        let mut random_plan = FaultPlan::new(vec![]);
        for attempt in 0..32u64 {
            let trial_rate = (budget as f64) / (2.0 * instance.ports() as f64);
            let trial = FaultPlan::generate(
                instance.ports(),
                0, // no cancellations: outage budget only
                makespan,
                trial_rate.clamp(0.01, 0.95),
                seed.wrapping_add(c as u64 * 131 + attempt),
            );
            random_plan = trial;
            if random_plan.events.len() == budget {
                break;
            }
        }
        let mut rnd_policy = ResilientPolicy::new(spec, lp_opts.clone());
        let rnd = match run_policy_with_faults(instance, &mut rnd_policy, &random_plan) {
            Ok(out) => out,
            Err(e) => panic!("worst-window: random run failed: {}", e),
        };

        cells.push(WindowCell {
            start,
            adversarial_inflation: survivors_objective(&adv),
            random_inflation: survivors_objective(&rnd),
        });
    }
    let (worst_start, worst_inflation) = cells
        .iter()
        .map(|c| (c.start, c.adversarial_inflation))
        .fold((0, f64::MIN), |acc, x| if x.1 > acc.1 { x } else { acc });
    WindowReport {
        ports,
        window,
        cells,
        worst_start,
        worst_inflation,
    }
}

/// Renders the report as plain text.
pub fn render_chaos(report: &ChaosReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Chaos harness: {} kills/policy, fault rate {}, seed {} ==",
        report.config.kills, report.config.fault_rate, report.config.seed
    );
    let _ = writeln!(
        s,
        "{:<14} {:>5} {:>7} {:>9} {:>12} {:>7}",
        "policy", "kills", "epochs", "snapshot", "TWCT", "replans"
    );
    for r in &report.rounds {
        let _ = writeln!(
            s,
            "{:<14} {:>5} {:>7} {:>8}B {:>12.1} {:>7}",
            r.policy, r.kills, r.epochs, r.snapshot_bytes, r.objective, r.replans,
        );
    }
    if let Some(w) = &report.windows {
        let _ = writeln!(
            s,
            "-- adversarial windows: {} ports/side, {} slots --",
            w.ports, w.window
        );
        let _ = writeln!(s, "{:>7} {:>13} {:>13}", "start", "adversarial", "random");
        for c in &w.cells {
            let _ = writeln!(
                s,
                "{:>7} {:>13.3} {:>13.3}",
                c.start, c.adversarial_inflation, c.random_inflation
            );
        }
        let _ = writeln!(
            s,
            "worst window starts at slot {} (inflation {:.3})",
            w.worst_start, w.worst_inflation
        );
    }
    s
}

/// Serializes the report as `coflow-chaos/1` JSON.
pub fn render_chaos_json(report: &ChaosReport) -> String {
    let mut rounds = String::from("[\n");
    for (i, r) in report.rounds.iter().enumerate() {
        let _ = write!(
            rounds,
            "    {{\"policy\": {}, \"kills\": {}, \"epochs\": {}, \"snapshot_bytes\": {}, \
             \"objective\": {}, \"objective_bits\": {}, \"replans\": {}}}",
            json::quote(&r.policy),
            r.kills,
            r.epochs,
            r.snapshot_bytes,
            fmt_f64(r.objective),
            r.objective.to_bits(),
            r.replans,
        );
        rounds.push_str(if i + 1 < report.rounds.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    rounds.push_str("  ]");
    let mut doc = crate::sink::JsonDoc::new(SCHEMA);
    doc.num("seed", report.config.seed)
        .num("kills", report.config.kills)
        .float("fault_rate", report.config.fault_rate)
        .num("partial", report.partial)
        .raw("rounds", rounds);
    match &report.windows {
        None => doc.raw("windows", "null"),
        Some(w) => {
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\n    \"ports\": {},\n    \"window\": {},\n    \"worst_start\": {},\n    \"worst_inflation\": {},\n    \"cells\": [\n",
                w.ports,
                w.window,
                w.worst_start,
                fmt_f64(w.worst_inflation)
            );
            for (i, c) in w.cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "      {{\"start\": {}, \"adversarial_inflation\": {}, \"random_inflation\": {}}}",
                    c.start,
                    fmt_f64(c.adversarial_inflation),
                    fmt_f64(c.random_inflation),
                );
                out.push_str(if i + 1 < w.cells.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]\n  }");
            doc.raw("windows", out)
        }
    };
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::arrivals_instance;
    use coflow_workloads::json::JsonValue;

    fn tiny() -> Instance {
        arrivals_instance(8, 10, 3)
    }

    /// Parses a rendered report and checks its schema tag.
    fn parse(report: &ChaosReport) -> JsonValue {
        let doc = json::parse(&render_chaos_json(report)).expect("rendered report parses");
        assert!(matches!(doc.get("schema"), Some(JsonValue::Str(s)) if s == SCHEMA));
        doc
    }

    fn len(doc: &JsonValue, key: &str) -> usize {
        match doc.get(key) {
            Some(JsonValue::Arr(items)) => items.len(),
            other => panic!("'{}' is not an array: {:?}", key, other),
        }
    }

    #[test]
    fn kill_harness_is_bit_identical_for_every_policy() {
        let inst = tiny();
        let report = run_chaos(
            &inst,
            &ChaosConfig {
                kills: 3,
                seed: 7,
                fault_rate: 0.3,
            },
        );
        let names: Vec<&str> = report.rounds.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, CHAOS_POLICIES);
        for r in &report.rounds {
            assert!(r.epochs >= 1);
            if r.kills > 0 {
                assert!(r.snapshot_bytes > 2, "{}: empty snapshot", r.policy);
            }
        }
        let doc = parse(&report);
        assert_eq!(len(&doc, "rounds"), CHAOS_POLICIES.len());
        assert!(matches!(doc.get("partial"), Some(JsonValue::Bool(false))));
        assert!(matches!(doc.get("windows"), Some(JsonValue::Null)));
    }

    #[test]
    fn delivered_units_of_a_multi_slot_run_are_counted_once() {
        let inst = tiny();
        let plan = FaultPlan::default();
        let mut policy = make_policy(&inst, "online", &SimplexOptions::default());
        let mut engine = Engine::new(&inst, &plan);
        let snapshot = loop {
            assert!(
                engine.step(policy.as_mut()).expect("clean step"),
                "run ended"
            );
            let snapshot = engine.checkpoint(policy.as_ref()).expect("checkpoint");
            if snapshot.sim.executed.runs.iter().any(|r| r.duration > 1) {
                break snapshot;
            }
        };
        let delivered = delivered_per_coflow(&snapshot, inst.len());
        for (k, total) in initial_totals(&inst).into_iter().enumerate() {
            let residual = snapshot.sim.remaining_total[k];
            assert_eq!(delivered[k] + residual, total, "coflow {}", k);
        }
    }

    #[test]
    fn adversarial_search_reports_consistent_worst_window() {
        let inst = tiny();
        let windows = worst_window_search(&inst, 2, 6, 3, 11);
        assert_eq!(windows.cells.len(), 3);
        let max = windows
            .cells
            .iter()
            .map(|c| c.adversarial_inflation)
            .fold(f64::MIN, f64::max);
        assert!((windows.worst_inflation - max).abs() < 1e-9);
        // Targeted outages must actually hurt (or at least not help).
        assert!(windows.worst_inflation >= 1.0 - 1e-9);
        // The rendered report carries the window cells, and a round list
        // cut short by a SIGINT is flagged partial.
        let round = ChaosRound {
            policy: "resilient".to_string(),
            kills: 1,
            epochs: 3,
            snapshot_bytes: 100,
            objective: 42.5,
            replans: 2,
        };
        let report = ChaosReport {
            config: ChaosConfig::default(),
            rounds: vec![round],
            windows: Some(windows),
            partial: true,
        };
        let doc = parse(&report);
        assert_eq!(len(&doc, "rounds"), 1);
        assert!(matches!(doc.get("partial"), Some(JsonValue::Bool(true))));
        let section = doc.get("windows").expect("windows section");
        assert_eq!(len(section, "cells"), 3);
    }
}
