//! A traced `resilient` run names its replan setup: each replan builds
//! the residual instance it plans — live coflows with their remaining
//! demand — inside one `sched.residual` span, so that setup is no longer
//! unattributed time in traced `sched`.
//!
//! This lives in its own integration-test binary (its own process),
//! because the span registry is process-global.

use coflow::{run_policy_with_faults, Coflow, Instance, PolicyRegistry};
use coflow_matching::IntMatrix;
use coflow_netsim::{FaultEvent, FaultPlan};

#[test]
fn traced_resilient_replans_record_the_residual_span() {
    let inst = Instance::new(
        3,
        vec![
            Coflow::new(
                0,
                IntMatrix::from_nested(&[[3, 1, 0], [0, 2, 0], [1, 0, 0]]),
            ),
            Coflow::new(
                1,
                IntMatrix::from_nested(&[[0, 4, 0], [2, 0, 1], [0, 0, 3]]),
            )
            .with_release(2)
            .with_weight(2.0),
            Coflow::new(
                2,
                IntMatrix::from_nested(&[[0, 0, 5], [0, 1, 0], [2, 0, 0]]),
            )
            .with_release(4),
        ],
    );
    let plan = FaultPlan::new(vec![
        FaultEvent::IngressOutage {
            port: 0,
            start: 2,
            end: 5,
        },
        FaultEvent::EgressOutage {
            port: 2,
            start: 7,
            end: 9,
        },
    ]);
    let entry = PolicyRegistry::builtin()
        .get("resilient")
        .expect("registry entry");

    obs::reset();
    obs::set_enabled(true);
    let out = run_policy_with_faults(&inst, entry.build(&inst).as_mut(), &plan).expect("run");
    obs::set_enabled(false);
    let snap = obs::snapshot();
    assert!(
        out.replans > 1,
        "the plan forces replans, got {}",
        out.replans
    );
    assert_eq!(
        snap.span_count("sched.residual"),
        out.replans as u64,
        "one residual build per replan"
    );

    // Untraced, nothing is recorded.
    obs::reset();
    run_policy_with_faults(&inst, entry.build(&inst).as_mut(), &plan).expect("run");
    assert_eq!(obs::snapshot().span_count("sched.residual"), 0);
}
