//! End-to-end tests of the policy × engine combinations that did not
//! exist before the unified scheduling engine: the online ρ/w scheduler
//! under fault injection and the greedy baseline with recovery. Each combo
//! runs to quiescence, is verified structurally, feeds the netsim flight
//! recorder and the forensics pipeline, and the policy × rate report
//! holds the fault invariants.

use coflow::sched::recovery::verify_faulty_outcome;
use coflow::{
    diagnose_faulty, run_policy_with_faults, solve_interval_lp, Coflow, Detector,
    DiagnosticsConfig, FaultyOutcome, Instance, PolicyRegistry,
};
use coflow_bench::arrivals::arrivals_instance;
use coflow_bench::faults::{run_fault_policies, FAULT_POLICIES};
use coflow_matching::IntMatrix;
use coflow_netsim::{record_flights, FaultEvent, FaultPlan, RecorderConfig};

/// Two ports, three coflows, one staggered arrival; demand on both ingress
/// ports so an ingress outage is guaranteed to strand planned units.
fn inst() -> Instance {
    let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
    let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]])).with_release(2);
    let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
    Instance::new(2, vec![c0, c1, c2])
}

/// Shared post-run checks: structural validity, recorder consistency, and
/// fault-attributed diagnostics with a starvation firing.
fn check_combo(
    instance: &Instance,
    plan: &FaultPlan,
    out: &coflow::FaultyOutcome,
    expect_all_complete: bool,
) {
    verify_faulty_outcome(instance, plan, out).expect("combo must produce a valid schedule");
    if expect_all_complete {
        assert!(out.completions.iter().all(Option::is_some));
    }
    assert!(
        out.blocked_units > 0,
        "the outage must strand planned units"
    );
    assert!(
        out.replans >= 2,
        "crossing a fault boundary charges an epoch"
    );
    assert_eq!(out.tiers.len(), out.replans);
    assert!(
        out.tiers.iter().all(|&t| t == 0),
        "LP-free policies never degrade through a fallback chain"
    );

    // Flight recorder over the executed trace + blocked log.
    let totals: Vec<u64> = instance.coflows().iter().map(|c| c.total_units()).collect();
    let releases = instance.releases();
    let rec = record_flights(
        &out.executed,
        &totals,
        &releases,
        &out.blocked,
        &RecorderConfig::default(),
    );
    assert_eq!(rec.flights.len(), instance.len());
    let blocked_total: u64 = rec.flights.iter().map(|f| f.blocked_slots).sum();
    assert_eq!(
        blocked_total,
        out.blocked.iter().map(|r| r.slots).sum::<u64>(),
        "every logged blocked slot is attributed to exactly one flight"
    );
    for (k, flight) in rec.flights.iter().enumerate() {
        assert_eq!(flight.completion, out.completions[k]);
        if out.completions[k].is_some() {
            assert_eq!(flight.served_units, totals[k]);
        }
    }

    // Forensics: per-coflow attribution plus a starvation firing (the
    // blocked log is non-empty, and the threshold is set to one slot).
    let lp = solve_interval_lp(instance);
    let cfg = DiagnosticsConfig {
        starvation_blocked_slots: 1,
        ..DiagnosticsConfig::default()
    };
    let d = diagnose_faulty(instance, out, None, &lp, &cfg);
    assert_eq!(d.per_coflow.len(), instance.len());
    assert!(d.per_coflow.iter().map(|r| r.blocked_slots).sum::<u64>() > 0);
    assert!(
        d.anomalies
            .iter()
            .any(|a| a.detector == Detector::Starvation),
        "stranded units above threshold must fire starvation"
    );
}

/// Runs the registry policy `name` under `plan` to quiescence.
fn registry_run(instance: &Instance, name: &str, plan: &FaultPlan) -> FaultyOutcome {
    let mut policy = PolicyRegistry::builtin().get(name).unwrap().build(instance);
    run_policy_with_faults(instance, &mut *policy, plan)
        .unwrap_or_else(|e| panic!("{} under faults must settle: {}", name, e))
}

#[test]
fn online_under_faults_runs_end_to_end() {
    let instance = inst();
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
        port: 1,
        start: 1,
        end: 6,
    }]);
    let out = registry_run(&instance, "online", &plan);
    check_combo(&instance, &plan, &out, true);
}

#[test]
fn greedy_with_recovery_handles_outage_and_cancellation() {
    let instance = inst();
    let plan = FaultPlan::new(vec![
        FaultEvent::IngressOutage {
            port: 1,
            start: 1,
            end: 6,
        },
        FaultEvent::CoflowCancelled { coflow: 2, at: 3 },
    ]);
    let out = registry_run(&instance, "greedy", &plan);
    assert_eq!(out.completions[2], None, "cancelled coflow never completes");
    assert!(out.completions[0].is_some() && out.completions[1].is_some());
    check_combo(&instance, &plan, &out, false);
}

/// The policy × rate table's invariants, on the report as built: every
/// default policy has one cell per rate, the engine charges at least one
/// planning epoch, a quiet plan changes nothing, and faults without
/// cancellations only delay the survivors.
#[test]
fn policy_report_holds_the_fault_invariants() {
    let instance = arrivals_instance(8, 12, 7);
    let rates = [0.0, 0.1, 0.4];
    let report = run_fault_policies(&instance, &rates, 7);
    let names: Vec<&str> = report.policies.iter().map(|p| p.policy.as_str()).collect();
    assert_eq!(names, FAULT_POLICIES);
    let mut faulted_without_cancellations = 0;
    for cell in report.policies.iter().flat_map(|p| &p.cells) {
        let what = format!("{} at rate {}", cell.policy, cell.rate);
        assert!(cell.replans >= 1, "{}: no planning epoch", what);
        if cell.rate == 0.0 {
            assert_eq!(cell.events, 0, "{}: a quiet plan has events", what);
            assert!((cell.inflation - 1.0).abs() <= 1e-9, "{}: inflated", what);
        }
        if cell.cancelled == 0 {
            assert!(cell.inflation >= 1.0 - 1e-9, "{}: deflated", what);
            faulted_without_cancellations += usize::from(cell.events > 0);
        }
    }
    assert!(
        faulted_without_cancellations > 0,
        "no cell exercises the last rule"
    );
    for rows in &report.policies {
        assert_eq!(rows.cells.len(), rates.len(), "{}", rows.policy);
    }
}
