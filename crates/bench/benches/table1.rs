//! Bench for Table 1: each (order, case) grid cell on the synthetic trace.
//!
//! Regenerates the Table 1 measurement (normalized total weighted
//! completion times) and reports the wall time of each cell, so both the
//! paper numbers and the scheduler's own cost are tracked. Run with
//! `cargo bench -p coflow-bench --bench table1`.

use coflow::ordering::{compute_order, OrderRule};
use coflow::sched::{run_with_order, ExecOptions};
use coflow_bench::bench_scale_config;
use coflow_bench::grid::paper_grid;
use coflow_workloads::{assign_weights, filter_by_width, generate_trace, WeightScheme};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_table1_cells(c: &mut Criterion) {
    let trace = generate_trace(&bench_scale_config(2015));
    let filtered = filter_by_width(&trace, 4);
    let inst = assign_weights(&filtered, WeightScheme::RandomPermutation { seed: 2015 });

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for spec in paper_grid() {
        let order = compute_order(&inst, spec.order);
        let opts = ExecOptions::paper(spec.backfill);
        group.bench_with_input(
            BenchmarkId::new(spec.order.name(), spec.case_label()),
            &order,
            |b, order| b.iter(|| run_with_order(&inst, order.clone(), spec.grouping, opts).objective),
        );
    }
    group.finish();

    // Print the Table 1 block itself once so `cargo bench` output carries
    // the reproduced numbers alongside the timings.
    let block = coflow_bench::table1::run_block(&trace, 4, WeightScheme::RandomPermutation { seed: 2015 });
    println!("{}", coflow_bench::report::render_table1_block(&block));
}

fn bench_lp_ordering(c: &mut Criterion) {
    // The LP solve dominates H_LP's cost: benchmark it separately.
    let trace = generate_trace(&bench_scale_config(2015));
    let inst = assign_weights(&trace, WeightScheme::Equal);
    let mut group = c.benchmark_group("table1_ordering");
    group.sample_size(10);
    group.bench_function("H_LP_order", |b| {
        b.iter(|| compute_order(&inst, OrderRule::LpBased))
    });
    group.bench_function("H_rho_order", |b| {
        b.iter(|| compute_order(&inst, OrderRule::LoadOverWeight))
    });
    group.finish();
}

criterion_group!(benches, bench_table1_cells, bench_lp_ordering);
criterion_main!(benches);
