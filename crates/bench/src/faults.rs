//! Fault-injection experiment: TWCT inflation vs fault rate.
//!
//! Runs the fault-tolerant pipeline (`H_LP`, case (d): grouping +
//! backfilling) against seeded [`FaultPlan`]s of increasing intensity and
//! reports, per rate: how often planning degraded below `H_LP` and by how
//! much the total weighted completion time inflated over the fault-free
//! schedule. The objective comparison is restricted to the coflows that
//! survive (are not cancelled by) each plan, so cancellations do not
//! masquerade as speedups.

use coflow::sched::recovery::{verify_faulty_outcome, FaultyOutcome};
use coflow::sched::resilient::fallback_chain;
use coflow::{
    run_policy, run_policy_with_faults, AlgorithmSpec, Instance, OrderRule, PolicyRegistry,
    ResilientPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;
use std::fmt::Write as _;

/// One fault-rate measurement.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// Fault rate fed to [`FaultPlan::generate`].
    pub rate: f64,
    /// Injected events at this rate.
    pub events: usize,
    /// Coflows cancelled by the plan before completing.
    pub cancelled: usize,
    /// Planning epochs (1 = never replanned).
    pub replans: usize,
    /// Planned units stranded by outages/degradations.
    pub blocked_units: u64,
    /// Epoch count per fallback tier: `[H_LP, H_ρ, H_A]` for the grid's
    /// LP-backed chain.
    pub tier_counts: Vec<usize>,
    /// `Σ w_k C_k` over surviving coflows, under faults.
    pub objective: f64,
    /// `Σ w_k C_k` over the *same* surviving coflows, fault-free.
    pub baseline_objective: f64,
    /// `objective / baseline_objective` (1.0 when faults cost nothing).
    pub inflation: f64,
}

/// The full experiment: one cell per fault rate.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The algorithm under test.
    pub spec: AlgorithmSpec,
    /// Plan seed.
    pub seed: u64,
    /// Fault-free TWCT over all coflows (the reference point).
    pub fault_free_objective: f64,
    /// Per-rate results.
    pub cells: Vec<FaultCell>,
}

/// Runs the fault sweep on `instance` with `H_LP` case (d) under
/// `lp_opts`. `rates` are fault probabilities per port/coflow (see
/// [`FaultPlan::generate`]); each rate gets its own deterministic plan
/// derived from `seed`. A SIGINT (see [`obs::interrupted`]) stops the
/// sweep after the in-flight rate cell; the truncated report is still
/// well-formed.
pub fn run_faults(
    instance: &Instance,
    rates: &[f64],
    seed: u64,
    lp_opts: &SimplexOptions,
) -> FaultReport {
    let spec = AlgorithmSpec {
        order: OrderRule::LpBased,
        grouping: true,
        backfill: true,
    };
    let chain_len = fallback_chain(spec.order).len();

    // Fault-free reference run (same solver budgets, so inflation measures
    // the faults, not the budget).
    let baseline = run_policy(instance, &mut ResilientPolicy::new(spec, lp_opts.clone()))
        .unwrap_or_else(|e| panic!("fault-free run: engine bug: {}", e));
    let horizon = baseline.makespan().max(1);
    let fault_free_objective = baseline.objective;

    let mut cells = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        // SIGINT: finish the in-flight rate cell, then stop the sweep so
        // the caller can print the partial table and exit 130.
        if obs::interrupted() {
            break;
        }
        cells.push({
            let plan = FaultPlan::generate(
                instance.ports(),
                instance.len(),
                horizon,
                rate,
                seed.wrapping_add(i as u64),
            );
            let mut policy = ResilientPolicy::new(spec, lp_opts.clone());
            let out = run_policy_with_faults(instance, &mut policy, &plan)
                .unwrap_or_else(|e| panic!("rate {}: engine bug: {}", rate, e));
            if let Err(e) = verify_faulty_outcome(instance, &plan, &out) {
                panic!("rate {}: invalid fault-tolerant schedule: {}", rate, e);
            }
            let mut tier_counts = vec![0usize; chain_len];
            for &t in &out.tiers {
                tier_counts[t] += 1;
            }
            let cancelled = out.completions.iter().filter(|c| c.is_none()).count();
            // Baseline objective over the surviving set only.
            let baseline_objective: f64 = out
                .completions
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(k, _)| instance.coflow(k).weight * baseline.completions[k] as f64)
                .sum();
            let inflation = if baseline_objective > 0.0 {
                out.objective / baseline_objective
            } else {
                1.0
            };
            FaultCell {
                rate,
                events: plan.events.len(),
                cancelled,
                replans: out.replans,
                blocked_units: out.blocked_units,
                tier_counts,
                objective: out.objective,
                baseline_objective,
                inflation,
            }
        });
    }

    FaultReport {
        spec,
        seed,
        fault_free_objective,
        cells,
    }
}

/// Renders the sweep as a plain-text table.
pub fn render_faults(report: &FaultReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "== Fault injection: TWCT inflation vs fault rate (H_LP case (d), seed {}) ==\n",
        report.seed
    ));
    s.push_str(&format!(
        "fault-free TWCT = {:.0}\n",
        report.fault_free_objective
    ));
    s.push_str(
        "rate   events cancelled replans blocked  tiers(LP/rho/A)  TWCT       baseline   inflation\n",
    );
    for c in &report.cells {
        let tiers = c
            .tier_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("/");
        s.push_str(&format!(
            "{:<6.2} {:<6} {:<9} {:<7} {:<8} {:<16} {:<10.0} {:<10.0} {:.3}\n",
            c.rate,
            c.events,
            c.cancelled,
            c.replans,
            c.blocked_units,
            tiers,
            c.objective,
            c.baseline_objective,
            c.inflation
        ));
    }
    s
}

/// The default policy selection compared under fault injection, in report
/// order. These are the combinations the unified engine made possible: the
/// online ρ/w scheduler and the priority-greedy baseline, each running
/// slot-by-slot against a live [`FaultPlan`]. Registry-driven selections
/// (see [`run_fault_policies_selected`]) may name others.
pub const FAULT_POLICIES: [&str; 2] = ["online", "greedy"];

/// One (policy, rate) measurement.
#[derive(Clone, Debug)]
pub struct PolicyFaultCell {
    /// Registry name of the policy.
    pub policy: String,
    /// Fault rate fed to [`FaultPlan::generate`].
    pub rate: f64,
    /// Injected events at this rate.
    pub events: usize,
    /// Coflows cancelled by the plan before completing.
    pub cancelled: usize,
    /// Planning epochs charged by the engine (1 = quiet plan).
    pub replans: usize,
    /// Planned units stranded by outages/degradations.
    pub blocked_units: u64,
    /// `Σ w_k C_k` over surviving coflows, under faults.
    pub objective: f64,
    /// `Σ w_k C_k` over the *same* surviving coflows, fault-free.
    pub baseline_objective: f64,
    /// `objective / baseline_objective` (1.0 when faults cost nothing).
    pub inflation: f64,
}

/// One policy's row block: fault-free reference plus per-rate cells.
#[derive(Clone, Debug)]
pub struct PolicyFaultRows {
    /// Registry name of the policy.
    pub policy: String,
    /// Fault-free TWCT over all coflows.
    pub fault_free_objective: f64,
    /// Per-rate results.
    pub cells: Vec<PolicyFaultCell>,
}

/// The policy × rate experiment.
#[derive(Clone, Debug)]
pub struct PolicyFaultReport {
    /// Plan seed.
    pub seed: u64,
    /// One block per selected policy, in selection order.
    pub policies: Vec<PolicyFaultRows>,
}

/// Runs the default selection ([`FAULT_POLICIES`]) under the same seeded
/// fault plans that [`run_faults`] feeds the resilient pipeline. See
/// [`run_fault_policies_selected`] for arbitrary registry selections.
pub fn run_fault_policies(instance: &Instance, rates: &[f64], seed: u64) -> PolicyFaultReport {
    let names: Vec<String> = FAULT_POLICIES.iter().map(|s| s.to_string()).collect();
    match run_fault_policies_selected(instance, rates, seed, &names) {
        Ok(report) => report,
        // The default names are always in the registry and fault-capable.
        Err(e) => panic!("default fault-policy selection: {}", e),
    }
}

/// Runs an arbitrary registry selection of fault-capable policies under the
/// same seeded fault plans. Every plan is shared across policies at a given
/// rate, so the rows are directly comparable; the fault-free baseline per
/// policy is measured with a quiet (rate-0) plan through the same engine,
/// which is bit-identical to the clean run. Unknown names and policies whose
/// registry entry has `supports_faults == false` (the open-loop BvN batch
/// planner would strand blocked units forever) are rejected up front. Panics
/// (via [`verify_faulty_outcome`]) if any policy produces an invalid
/// schedule — that is an engine bug, not data.
pub fn run_fault_policies_selected(
    instance: &Instance,
    rates: &[f64],
    seed: u64,
    names: &[String],
) -> Result<PolicyFaultReport, String> {
    let registry = PolicyRegistry::builtin();
    let mut entries = Vec::with_capacity(names.len());
    for name in names {
        let entry = registry.resolve(name)?;
        if !entry.supports_faults {
            return Err(format!(
                "policy '{}' does not support fault injection (open-loop planner)",
                entry.name
            ));
        }
        entries.push(entry);
    }

    let run_policy = |name: &str, plan: &FaultPlan| -> FaultyOutcome {
        // Built fresh per run so every (policy, rate) cell starts cold.
        let entry = registry.resolve(name).unwrap_or_else(|e| panic!("{}", e));
        let mut policy = entry.build(instance);
        match run_policy_with_faults(instance, policy.as_mut(), plan) {
            Ok(out) => out,
            Err(e) => panic!("policy {}: engine bug under faults: {}", name, e),
        }
    };

    // Fault-free reference per policy: a quiet plan through the same
    // engine. The horizon argument is irrelevant at rate 0 (no events).
    let quiet = FaultPlan::generate(instance.ports(), instance.len(), 1, 0.0, seed);
    let baselines: Vec<(String, FaultyOutcome)> = entries
        .iter()
        .map(|entry| (entry.name.to_string(), run_policy(entry.name, &quiet)))
        .collect();
    let horizon = baselines
        .iter()
        .map(|(_, b)| b.executed.makespan())
        .max()
        .unwrap_or(1)
        .max(1);

    let mut policies = Vec::with_capacity(baselines.len());
    for (name, baseline) in baselines.iter() {
        // SIGINT: stop before the next policy row; the partial report
        // still renders and the harness exits 130.
        if obs::interrupted() {
            break;
        }
        {
            let mut cells = Vec::with_capacity(rates.len());
            for (i, &rate) in rates.iter().enumerate() {
                if obs::interrupted() {
                    break;
                }
                cells.push({
                    let plan = FaultPlan::generate(
                        instance.ports(),
                        instance.len(),
                        horizon,
                        rate,
                        seed.wrapping_add(i as u64),
                    );
                    let out = run_policy(name, &plan);
                    if let Err(e) = verify_faulty_outcome(instance, &plan, &out) {
                        panic!("policy {} rate {}: invalid schedule: {}", name, rate, e);
                    }
                    let cancelled = out.completions.iter().filter(|c| c.is_none()).count();
                    let baseline_objective: f64 = out
                        .completions
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.is_some())
                        .map(|(k, _)| {
                            // The quiet baseline completes everything.
                            instance.coflow(k).weight * baseline.completions[k].unwrap_or(0) as f64
                        })
                        .sum();
                    let inflation = if baseline_objective > 0.0 {
                        out.objective / baseline_objective
                    } else {
                        1.0
                    };
                    PolicyFaultCell {
                        policy: name.clone(),
                        rate,
                        events: plan.events.len(),
                        cancelled,
                        replans: out.replans,
                        blocked_units: out.blocked_units,
                        objective: out.objective,
                        baseline_objective,
                        inflation,
                    }
                });
            }
            policies.push(PolicyFaultRows {
                policy: name.clone(),
                fault_free_objective: baseline.objective,
                cells,
            });
        }
    }

    Ok(PolicyFaultReport { seed, policies })
}

/// Renders the policy × rate table as plain text.
pub fn render_fault_policies(report: &PolicyFaultReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Fault injection: engine policies (online/greedy), seed {} ==",
        report.seed
    );
    let _ = writeln!(
        s,
        "{:<13} {:<6} {:<6} {:<9} {:<7} {:<8} {:<10} {:<10} inflation",
        "policy", "rate", "events", "cancelled", "replans", "blocked", "TWCT", "baseline"
    );
    for rows in &report.policies {
        for c in &rows.cells {
            let _ = writeln!(
                s,
                "{:<13} {:<6.2} {:<6} {:<9} {:<7} {:<8} {:<10.0} {:<10.0} {:.3}",
                c.policy,
                c.rate,
                c.events,
                c.cancelled,
                c.replans,
                c.blocked_units,
                c.objective,
                c.baseline_objective,
                c.inflation
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_workloads::{generate_trace, TraceConfig};

    #[test]
    fn fault_sweep_runs_and_inflation_is_sane() {
        let inst = generate_trace(&TraceConfig::small(6));
        let report = run_faults(&inst, &[0.0, 0.4], 7, &SimplexOptions::default());
        assert_eq!(report.cells.len(), 2);
        let quiet = &report.cells[0];
        assert_eq!(quiet.events, 0);
        assert_eq!(quiet.replans, 1);
        assert!(
            (quiet.inflation - 1.0).abs() < 1e-9,
            "rate 0 must not inflate"
        );
        for c in &report.cells {
            if c.cancelled == 0 {
                // Without cancellations (which free capacity for the
                // survivors), faults can only delay completions.
                assert!(c.inflation >= 1.0 - 1e-9, "faults cannot speed things up");
            }
            assert_eq!(c.tier_counts.iter().sum::<usize>(), c.replans);
        }
        let rendered = render_faults(&report);
        assert!(rendered.contains("inflation"));
    }

    #[test]
    fn policy_table_covers_every_policy() {
        let inst = generate_trace(&TraceConfig::small(9));
        let report = run_fault_policies(&inst, &[0.0, 0.5], 11);
        assert_eq!(report.policies.len(), FAULT_POLICIES.len());
        for rows in &report.policies {
            assert_eq!(rows.cells.len(), 2);
            let quiet = &rows.cells[0];
            assert_eq!(quiet.events, 0);
            assert_eq!(quiet.replans, 1, "quiet plan charges exactly one epoch");
            assert!((quiet.inflation - 1.0).abs() < 1e-9);
        }
        assert!(render_fault_policies(&report).contains("inflation"));
    }

    #[test]
    fn registry_selection_extends_the_policy_table() {
        let inst = generate_trace(&TraceConfig::small(9));
        let names: Vec<String> = ["greedy", "shafiee-ghaderi", "im-purohit"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report =
            run_fault_policies_selected(&inst, &[0.0, 0.5], 11, &names).expect("valid selection");
        assert_eq!(report.policies.len(), 3);
        for (rows, want) in report.policies.iter().zip(&names) {
            assert_eq!(&rows.policy, want, "selection order is preserved");
            let quiet = &rows.cells[0];
            assert_eq!(quiet.events, 0);
            assert!((quiet.inflation - 1.0).abs() < 1e-9);
        }

        // Unknown names and fault-incapable policies are rejected up front.
        let unknown = vec!["no-such-policy".to_string()];
        assert!(run_fault_policies_selected(&inst, &[0.0], 11, &unknown).is_err());
        let open_loop = vec!["bvn-batch".to_string()];
        let err = run_fault_policies_selected(&inst, &[0.0], 11, &open_loop).unwrap_err();
        assert!(err.contains("does not support fault injection"), "{}", err);
    }
}
