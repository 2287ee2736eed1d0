//! Ablations of the design choices called out in DESIGN.md:
//!
//! 1. grouping grid base (2 = Algorithm 2, 1+√2 = randomized grid, 4 =
//!    coarser) — effect on objective;
//! 2. backfill scope: none / same-pair (paper) / work-conserving rematch
//!    (extension);
//! 3. simplex pricing: Dantzig vs Bland;
//! 4. LP presolve on/off (constructed-model row pruning is always on).
//!
//! Objective-value ablations are printed; timing ablations are measured.

use coflow::grouping::group_by_grid;
use coflow::intervals::GeometricGrid;
use coflow::ordering::{compute_order, OrderRule};
use coflow::relax::build_interval_model;
use coflow::sched::{run_with_order, ExecOptions};
use coflow::{run_policy, BvnBatchPolicy};
use coflow_bench::bench_scale_config;
use coflow_lp::{solve_with, SimplexOptions};
use coflow_workloads::{assign_weights, generate_trace, WeightScheme};
use criterion::{criterion_group, criterion_main, Criterion};

fn instance() -> coflow::Instance {
    assign_weights(
        &generate_trace(&bench_scale_config(2015)),
        WeightScheme::RandomPermutation { seed: 2015 },
    )
}

fn ablate_grouping_base(c: &mut Criterion) {
    let inst = instance();
    let order = compute_order(&inst, OrderRule::LpBased);
    let v = inst.cumulative_loads(&order);
    let horizon = v.iter().copied().max().unwrap_or(1);

    println!("== ablation: grouping grid base (objective, backfill on) ==");
    for (label, base) in [
        ("1.5", 1.5),
        ("2.0 (paper)", 2.0),
        ("1+sqrt2", 1.0 + std::f64::consts::SQRT_2),
        ("4.0", 4.0),
    ] {
        let grid = GeometricGrid::scaled(horizon, 1.0, base);
        let groups = group_by_grid(&inst, &order, &grid).groups;
        let group_count = groups.len();
        let opts = ExecOptions::paper(true);
        let mut policy = BvnBatchPolicy::new(&inst, order.clone(), groups, opts);
        let out = run_policy(&inst, &mut policy).expect("batch policy is infallible");
        println!(
            "  base {:<12} -> {:>2} groups, objective {:.0}",
            label, group_count, out.objective
        );
    }

    let mut group = c.benchmark_group("ablation_grouping");
    group.sample_size(10);
    group.bench_function("grouped_backfilled", |b| {
        b.iter(|| run_with_order(&inst, order.clone(), true, ExecOptions::paper(true)).objective)
    });
    group.finish();
}

fn ablate_backfill_scope(c: &mut Criterion) {
    let inst = instance();
    let order = compute_order(&inst, OrderRule::LpBased);
    println!("== ablation: backfill scope (objective) ==");
    let rematch_opts = ExecOptions {
        rematch: true,
        ..ExecOptions::paper(true)
    };
    let none = run_with_order(&inst, order.clone(), true, ExecOptions::paper(false));
    let same_pair = run_with_order(&inst, order.clone(), true, ExecOptions::paper(true));
    let rematch = run_with_order(&inst, order.clone(), true, rematch_opts);
    println!("  none (case c):        {:.0}", none.objective);
    println!("  same-pair (paper d):  {:.0}", same_pair.objective);
    println!("  rematch (extension):  {:.0}", rematch.objective);
    assert!(same_pair.objective <= none.objective + 1e-9);
    assert!(rematch.objective <= same_pair.objective + 1e-9);

    let mut group = c.benchmark_group("ablation_backfill");
    group.sample_size(10);
    group.bench_function("same_pair", |b| {
        b.iter(|| run_with_order(&inst, order.clone(), true, ExecOptions::paper(true)).objective)
    });
    group.bench_function("rematch", |b| {
        b.iter(|| run_with_order(&inst, order.clone(), true, rematch_opts).objective)
    });
    group.finish();
}

fn ablate_simplex_options(c: &mut Criterion) {
    let inst = instance();
    // Every configuration solves the same prebuilt model with `solve_with`,
    // which has no cache: each iteration is a real solve.
    let (model, _, _) = build_interval_model(&inst);
    let configs = [
        ("dantzig_presolve", SimplexOptions::default()),
        (
            "bland",
            SimplexOptions {
                always_bland: true,
                ..Default::default()
            },
        ),
        (
            "no_presolve",
            SimplexOptions {
                presolve: false,
                ..Default::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_simplex");
    group.sample_size(10);
    group.bench_function("interval_lp_build", |b| {
        b.iter(|| build_interval_model(&inst).0.num_constraints())
    });
    for (name, opts) in &configs {
        group.bench_function(*name, |b| b.iter(|| solve_with(&model, opts).objective));
    }
    group.finish();

    // Sanity: all configurations agree on the optimum.
    let objectives: Vec<f64> = configs
        .iter()
        .map(|(_, opts)| solve_with(&model, opts).objective)
        .collect();
    for &o in &objectives[1..] {
        assert!((o - objectives[0]).abs() < 1e-6 * (1.0 + objectives[0].abs()));
    }
}

fn ablate_bvn_variant(c: &mut Criterion) {
    use coflow_matching::{bvn_decompose, bvn_decompose_maxmin, IntMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(7);
    let m = 48;
    let mut d = IntMatrix::zeros(m);
    for i in 0..m {
        for j in 0..m {
            if rng.gen_bool(0.4) {
                d[(i, j)] = rng.gen_range(1..64);
            }
        }
    }
    let plain = bvn_decompose(m, d.nonzero_entries());
    let maxmin = bvn_decompose_maxmin(m, d.nonzero_entries());
    println!("== ablation: BvN matching-selection rule (48x48, 40% dense) ==");
    println!(
        "  arbitrary perfect matching: {} matchings for {} slots",
        plain.len(),
        plain.total_slots()
    );
    println!(
        "  max-min bottleneck:         {} matchings for {} slots",
        maxmin.len(),
        maxmin.total_slots()
    );
    assert_eq!(plain.total_slots(), maxmin.total_slots());

    let mut group = c.benchmark_group("ablation_bvn");
    group.sample_size(10);
    group.bench_function("arbitrary", |b| {
        b.iter(|| bvn_decompose(m, d.nonzero_entries()).len())
    });
    group.bench_function("maxmin", |b| {
        b.iter(|| bvn_decompose_maxmin(m, d.nonzero_entries()).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    ablate_grouping_base,
    ablate_backfill_scope,
    ablate_simplex_options,
    ablate_bvn_variant
);
criterion_main!(benches);
