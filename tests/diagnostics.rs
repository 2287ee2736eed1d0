//! End-to-end schedule forensics: flight recorder → LP attribution →
//! anomaly detectors, exercised through the public crate APIs exactly as
//! `experiments -- explain` and `coflow-cli --explain` drive them.

use coflow::ordering::OrderRule;
use coflow::sched::{run, AlgorithmSpec};
use coflow::{
    diagnose, diagnose_faulty, run_policy_with_faults, solve_interval_lp, Detector,
    DiagnosticsConfig, ResilientPolicy, Severity,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::{FaultEvent, FaultPlan};
use coflow_workloads::{generate_trace, TraceConfig};

#[test]
fn clean_pipeline_attributes_every_coflow_and_stays_silent() {
    let instance = generate_trace(&TraceConfig::small(11));
    let outcome = run(&instance, &AlgorithmSpec::algorithm2());
    let lp = solve_interval_lp(&instance);
    let d = diagnose(&instance, &outcome, &lp, &DiagnosticsConfig::default());

    assert_eq!(d.per_coflow.len(), instance.len());
    assert_eq!(d.recorder.flights.len(), instance.len());
    for r in &d.per_coflow {
        let ratio = r.ratio.expect("clean runs attribute every coflow");
        assert!(
            ratio >= 1.0 - 1e-9,
            "coflow {} ratio {} < 1",
            r.coflow,
            ratio
        );
        assert!(
            ratio <= coflow::DETERMINISTIC_RATIO + 1e-9,
            "coflow {} ratio {} exceeds 67/3",
            r.coflow,
            ratio
        );
        let end = r.completion.expect("clean runs complete every coflow");
        assert_eq!(r.wait_slots + r.service_slots, end - r.release);
        assert_eq!(r.blocked_slots, 0, "no faults, no blocked service");
    }
    assert!(d.approx_ratio.expect("positive lower bound") >= 1.0 - 1e-9);
    // The detectors calibrated in DiagnosticsConfig::default() must stay
    // silent on the reference implementation's own output.
    assert!(
        d.anomalies.is_empty(),
        "clean run fired: {:?}",
        d.anomalies.iter().map(|a| a.detector).collect::<Vec<_>>()
    );
}

#[test]
fn fault_blocked_run_fires_starvation() {
    let instance = generate_trace(&TraceConfig::small(3));
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    // A long ingress outage early in the schedule strands planned units.
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
        port: 0,
        start: 1,
        end: 60,
    }]);
    let mut policy = ResilientPolicy::new(spec, SimplexOptions::default());
    let faulty = run_policy_with_faults(&instance, &mut policy, &plan).unwrap();
    assert!(faulty.blocked_units > 0, "outage must strand planned units");

    let lp = solve_interval_lp(&instance);
    let cfg = DiagnosticsConfig {
        starvation_blocked_slots: 1,
        ..DiagnosticsConfig::default()
    };
    let d = diagnose_faulty(&instance, &faulty, None, &lp, &cfg);
    let starved: Vec<_> = d
        .anomalies
        .iter()
        .filter(|a| a.detector == Detector::Starvation)
        .collect();
    assert!(
        !starved.is_empty(),
        "blocked slots above threshold must fire"
    );
    for a in &starved {
        assert!(a.severity >= Severity::Warning);
        let k = a.coflow.expect("starvation is per-coflow");
        assert!(
            d.per_coflow[k].blocked_slots >= cfg.starvation_blocked_slots,
            "firing must be backed by the recorder's blocked count"
        );
    }
}

#[test]
fn severity_gate_filters_anomalies() {
    let instance = generate_trace(&TraceConfig::small(3));
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
        port: 0,
        start: 1,
        end: 60,
    }]);
    let mut policy = ResilientPolicy::new(spec, SimplexOptions::default());
    let faulty = run_policy_with_faults(&instance, &mut policy, &plan).unwrap();
    let lp = solve_interval_lp(&instance);
    let cfg = DiagnosticsConfig {
        starvation_blocked_slots: 1,
        ..DiagnosticsConfig::default()
    };
    let d = diagnose_faulty(&instance, &faulty, None, &lp, &cfg);
    let warnings = d.anomalies_at_least(Severity::Warning).count();
    let criticals = d.anomalies_at_least(Severity::Critical).count();
    assert!(warnings >= criticals, "gate must be monotone in severity");
    assert_eq!(
        d.anomalies_at_least(Severity::Info).count(),
        d.anomalies.len(),
        "info admits everything"
    );
}
