//! The heap of the fault path users run: the registry's `online` policy
//! under a rate-0.20 fault plan, on the benchmark's `online-faults` shape
//! (30 ports, 100 arrival coflows, plan horizon = last release + the
//! busiest port's load), from policy build through the engine run to the
//! faulted replay check.
//!
//! The blocked log used to hold one 32-byte entry per denied unit, and
//! the outcome took a copy of it while the simulator still held the
//! original: this schedule peaked at 1.31 MiB, 324 KiB of it the 10,378
//! units of the log. The log now holds maximal runs of denied units and
//! moves into the outcome. The peak heap is read from the workspace's
//! counting allocator; the allocator is process-wide, so the case takes
//! one lock and this file holds nothing else.

use coflow::{run_policy_with_faults, verify_faulty_outcome, PolicyRegistry};
use coflow_netsim::FaultPlan;
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};
use std::sync::Mutex;

static ALLOCATOR: Mutex<()> = Mutex::new(());

const MIB: u64 = 1024 * 1024;

#[test]
fn online_under_faults_holds_its_blocked_log_in_runs() {
    let _lock = ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 2015;
    let config = TraceConfig {
        ports: 30,
        num_coflows: 100,
        seed,
        zero_release: false,
        mean_interarrival: 40.0,
        max_flow_size: 128,
        ..TraceConfig::default()
    };
    let instance = assign_weights(
        &generate_trace(&config),
        WeightScheme::RandomPermutation { seed },
    );
    let last_release = instance.releases().into_iter().max().unwrap_or(0);
    let busiest = instance
        .ingress_loads()
        .into_iter()
        .chain(instance.egress_loads())
        .max()
        .unwrap_or(0);
    let horizon = last_release + busiest.max(1);
    let plan = FaultPlan::generate(instance.ports(), instance.len(), horizon, 0.20, seed + 20);
    let entry = PolicyRegistry::builtin()
        .get("online")
        .expect("online is registered");

    obs::alloc::reset_peak();
    let before = obs::alloc::stats();
    let mut policy = entry.build(&instance);
    let out = run_policy_with_faults(&instance, &mut *policy, &plan).expect("online runs");
    verify_faulty_outcome(&instance, &plan, &out).expect("the schedule replays under the plan");
    let peak = obs::alloc::stats()
        .peak_live_bytes
        .saturating_sub(before.live_bytes);

    assert!(
        out.blocked_units > 5_000,
        "{} blocked units",
        out.blocked_units
    );
    assert!(
        out.blocked.len() <= 200,
        "{} blocked units in {} runs",
        out.blocked_units,
        out.blocked.len()
    );
    assert!(
        peak <= 3 * MIB / 4,
        "peak heap {:.2} MiB",
        peak as f64 / MIB as f64
    );
}
