//! End-to-end integration tests across all workspace crates: trace
//! generation → filtering/weighting → LP ordering → grouping → BvN
//! scheduling → independent validation, plus the paper's qualitative
//! experimental findings on a fixed seed.

use coflow::bounds::{interval_lp_bound, release_load_bound};
use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::{run, run_with_order, AlgorithmSpec, ExecOptions};
use coflow::{run_policy, verify_outcome, GreedyPolicy};
use coflow_workloads::{
    assign_weights, filter_by_width, generate_trace, TraceConfig, WeightScheme,
};

fn trace() -> coflow::Instance {
    let cfg = TraceConfig {
        ports: 20,
        num_coflows: 30,
        seed: 777,
        max_flow_size: 64,
        ..TraceConfig::default()
    };
    assign_weights(
        &generate_trace(&cfg),
        WeightScheme::RandomPermutation { seed: 777 },
    )
}

#[test]
fn full_grid_validates_on_the_synthetic_trace() {
    let inst = trace();
    for order in OrderRule::PAPER_RULES {
        for grouping in [false, true] {
            for backfill in [false, true] {
                let out = run(
                    &inst,
                    &AlgorithmSpec {
                        order,
                        grouping,
                        backfill,
                    },
                );
                verify_outcome(&inst, &out)
                    .unwrap_or_else(|e| panic!("{:?} g={} b={}: {}", order, grouping, backfill, e));
            }
        }
    }
}

#[test]
fn paper_finding_grouping_and_backfilling_help() {
    // §4.2: grouping consistently outperforms no grouping; backfilling
    // consistently outperforms no backfilling; (d) is best.
    let inst = trace();
    for order in OrderRule::PAPER_RULES {
        let o = compute_order(&inst, order);
        let a = run_with_order(&inst, o.clone(), false, ExecOptions::paper(false)).objective;
        let b = run_with_order(&inst, o.clone(), false, ExecOptions::paper(true)).objective;
        let c = run_with_order(&inst, o.clone(), true, ExecOptions::paper(false)).objective;
        let d = run_with_order(&inst, o, true, ExecOptions::paper(true)).objective;
        assert!(b <= a, "{:?}: backfilling regressed {} -> {}", order, a, b);
        assert!(c <= a, "{:?}: grouping regressed {} -> {}", order, a, c);
        assert!(d <= b && d <= c, "{:?}: (d) not best", order);
    }
}

#[test]
fn paper_finding_weight_aware_orders_beat_arrival() {
    let inst = trace();
    let d = |order| {
        run(
            &inst,
            &AlgorithmSpec {
                order,
                grouping: true,
                backfill: true,
            },
        )
        .objective
    };
    let ha = d(OrderRule::Arrival);
    let hrho = d(OrderRule::LoadOverWeight);
    let hlp = d(OrderRule::LpBased);
    assert!(
        hrho < ha && hlp < ha,
        "weight-aware orders must beat arrival: H_A={} H_rho={} H_LP={}",
        ha,
        hrho,
        hlp
    );
    // §4.2: H_rho and H_LP are close to each other (within ~25% here; the
    // paper reports a few percent on its trace).
    let ratio = hrho.max(hlp) / hrho.min(hlp);
    assert!(ratio < 1.25, "H_rho and H_LP diverge: {}", ratio);
}

#[test]
fn lower_bounds_hold_for_every_scheduler() {
    let inst = trace();
    let lp = interval_lp_bound(&inst);
    let trivial = release_load_bound(&inst);
    let order = compute_order(&inst, OrderRule::LoadOverWeight);
    let rematch = ExecOptions {
        rematch: true,
        ..ExecOptions::paper(true)
    };
    let outcomes = vec![
        run_with_order(&inst, order.clone(), true, ExecOptions::paper(true)).objective,
        run_with_order(&inst, order.clone(), true, rematch).objective,
        run_policy(&inst, &mut GreedyPolicy::new(&inst, order)).unwrap().objective,
    ];
    for obj in outcomes {
        assert!(lp <= obj + 1e-6, "LP bound {} > objective {}", lp, obj);
        assert!(trivial <= obj + 1e-6);
    }
}

#[test]
fn rematch_extension_improves_on_plain_grouping() {
    let inst = trace();
    let order = compute_order(&inst, OrderRule::LpBased);
    let plain = run_with_order(&inst, order.clone(), true, ExecOptions::paper(true));
    let rematch = ExecOptions {
        rematch: true,
        ..ExecOptions::paper(true)
    };
    let rematched = run_with_order(&inst, order, true, rematch);
    verify_outcome(&inst, &rematched).expect("valid");
    assert!(
        rematched.objective <= plain.objective,
        "work-conserving rematch regressed: {} vs {}",
        rematched.objective,
        plain.objective
    );
}

#[test]
fn filters_compose_with_scheduling() {
    let cfg = TraceConfig {
        ports: 20,
        num_coflows: 40,
        seed: 9,
        ..TraceConfig::default()
    };
    let full = generate_trace(&cfg);
    for min_width in [2, 6, 12] {
        let filtered = filter_by_width(&full, min_width);
        if filtered.is_empty() {
            continue;
        }
        let weighted = assign_weights(&filtered, WeightScheme::Equal);
        let out = run(&weighted, &AlgorithmSpec::algorithm2());
        verify_outcome(&weighted, &out).expect("valid");
        assert!(weighted.coflows().iter().all(|c| c.width() >= min_width));
    }
}

#[test]
fn trace_io_round_trips_through_scheduling() {
    // Serialize a trace, parse it back, and check the schedule objective is
    // identical — i.e. I/O loses nothing the scheduler can see.
    let inst = trace();
    let json = coflow_workloads::io::to_json(&inst);
    let back = coflow_workloads::io::from_json(&json).expect("parse");
    let a = run(&inst, &AlgorithmSpec::algorithm2());
    let b = run(&back, &AlgorithmSpec::algorithm2());
    assert_eq!(a.objective, b.objective);
    assert_eq!(a.completions, b.completions);
}
