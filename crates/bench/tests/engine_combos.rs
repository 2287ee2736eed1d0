//! End-to-end tests of the policy × engine combinations that did not
//! exist before the unified scheduling engine: the online ρ/w scheduler
//! under fault injection and the greedy baseline with recovery. Each combo
//! runs to quiescence, is verified structurally, feeds the netsim flight
//! recorder and the forensics pipeline, and the policy × rate report's
//! JSON form is validated with the repo's own parser.

use coflow::sched::recovery::verify_faulty_outcome;
use coflow::{
    diagnose_faulty, run_policy_with_faults, solve_interval_lp, Coflow, Detector,
    DiagnosticsConfig, FaultyOutcome, Instance, PolicyRegistry,
};
use coflow_bench::arrivals::arrivals_instance;
use coflow_bench::faults::{
    render_policies_json, run_fault_policies, validate_policies_json, FAULT_POLICIES,
};
use coflow_matching::IntMatrix;
use coflow_netsim::{record_flights, FaultEvent, FaultPlan, RecorderConfig};
use coflow_workloads::json::{self, JsonValue};

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
    assert!(out.blocked_units > 0, "the outage must strand planned units");
    assert!(out.replans >= 2, "crossing a fault boundary charges an epoch");
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
        out.blocked.len() as u64,
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
        d.anomalies.iter().any(|a| a.detector == Detector::Starvation),
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
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 1, start: 1, end: 6 }]);
    let out = registry_run(&instance, "online", &plan);
    check_combo(&instance, &plan, &out, true);
}

#[test]
fn online_stale_priorities_also_survive_faults() {
    let instance = inst();
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 1, start: 1, end: 6 }]);
    let out = registry_run(&instance, "online-stale", &plan);
    check_combo(&instance, &plan, &out, true);
}

#[test]
fn greedy_with_recovery_handles_outage_and_cancellation() {
    let instance = inst();
    let plan = FaultPlan::new(vec![
        FaultEvent::IngressOutage { port: 1, start: 1, end: 6 },
        FaultEvent::CoflowCancelled { coflow: 2, at: 3 },
    ]);
    let out = registry_run(&instance, "greedy", &plan);
    assert_eq!(out.completions[2], None, "cancelled coflow never completes");
    assert!(out.completions[0].is_some() && out.completions[1].is_some());
    check_combo(&instance, &plan, &out, false);
}

#[test]
fn policy_report_json_is_validated_by_the_in_repo_parser() {
    let instance = arrivals_instance(8, 12, 7);
    let report = run_fault_policies(&instance, &[0.0, 0.4], 7);
    let text = render_policies_json(&report);

    // Full schema validation (parser + invariants).
    let summary = validate_policies_json(&text).expect("report must validate");
    assert!(summary.contains("invariants hold"));

    // And a direct structural read with the in-repo JSON parser.
    let doc = json::parse(&text).expect("report must parse");
    let Some(JsonValue::Arr(policies)) = doc.get("policies") else {
        panic!("policies array missing");
    };
    assert_eq!(policies.len(), FAULT_POLICIES.len());
    for p in policies {
        let Some(JsonValue::Arr(cells)) = p.get("cells") else {
            panic!("cells array missing");
        };
        assert_eq!(cells.len(), 2, "one cell per requested rate");
    }
}
