//! Online scheduling under Poisson arrivals (extension).
//!
//! The paper's algorithms are offline; its conclusion calls online
//! operation the most interesting direction. This example streams coflows
//! into the fabric and compares the offline Algorithm 2 (which knows the
//! whole trace, but still must respect release dates) against the online
//! ρ/w-priority scheduler (which only sees released coflows).
//!
//! Run with: `cargo run --release --example online_arrivals`

use coflow::analysis::analyze;
use coflow::bounds::interval_lp_bound;
use coflow::sched::{run, AlgorithmSpec};
use coflow::{run_policy, verify_outcome, PolicyRegistry};
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

fn main() {
    let cfg = TraceConfig {
        ports: 20,
        num_coflows: 30,
        seed: 99,
        zero_release: false,
        mean_interarrival: 50.0,
        max_flow_size: 128,
        ..TraceConfig::default()
    };
    let instance = assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed: 99 },
    );
    let span = instance
        .coflows()
        .iter()
        .map(|c| c.release)
        .max()
        .unwrap_or(0);
    println!(
        "{} coflows arriving over {} slots on a {}x{} fabric\n",
        instance.len(),
        span,
        cfg.ports,
        cfg.ports
    );

    let offline = run(&instance, &AlgorithmSpec::algorithm2());
    verify_outcome(&instance, &offline).expect("valid");
    let mut policy = PolicyRegistry::builtin().get("online").unwrap().build(&instance);
    let online = run_policy(&instance, &mut *policy).expect("online is infallible");
    verify_outcome(&instance, &online).expect("valid");
    let bound = interval_lp_bound(&instance);

    println!("{:<28} {:>12} {:>8}", "scheduler", "objective", "/bound");
    println!(
        "{:<28} {:>12.0} {:>8.2}",
        "offline Algorithm 2",
        offline.objective,
        offline.objective / bound
    );
    println!(
        "{:<28} {:>12.0} {:>8.2}",
        "online rho/w priority",
        online.objective,
        online.objective / bound
    );

    let a_off = analyze(&instance, &offline);
    let a_on = analyze(&instance, &online);
    println!(
        "\nmean slowdown: offline {:.2}, online {:.2}",
        a_off.mean_slowdown, a_on.mean_slowdown
    );
    println!(
        "fabric utilization: offline {:.2}, online {:.2}",
        a_off.fabric_utilization, a_on.fabric_utilization
    );
    assert!(bound <= online.objective + 1e-6);
    assert!(bound <= offline.objective + 1e-6);
}
