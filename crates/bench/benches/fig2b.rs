//! Bench for Figure 2b: order comparison (H_A vs H_ρ vs H_LP) under
//! grouping + backfilling, for both weight schemes.

use coflow_bench::bench_scale_config;
use coflow_bench::figures::run_fig2b;
use coflow_bench::report::render_fig2b;
use coflow_workloads::generate_trace;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_fig2b(c: &mut Criterion) {
    let trace = generate_trace(&bench_scale_config(2015));
    let mut group = c.benchmark_group("fig2b");
    group.sample_size(10);
    group.bench_function("full_figure", |b| b.iter(|| run_fig2b(&trace, 4, 2015)));
    group.finish();

    let fig = run_fig2b(&trace, 4, 2015);
    println!("{}", render_fig2b(&fig));
    for (scheme, vals) in &fig.rows {
        assert!(
            vals[0] >= vals[1].min(vals[2]) - 1e-9,
            "{}: H_A should not beat the weight-aware orders",
            scheme
        );
    }
}

criterion_group!(benches, bench_fig2b);
criterion_main!(benches);
