//! Bench for Figure 2a: percentage-of-base-case gains from grouping and
//! backfilling under each order. Prints the reproduced figure data and
//! times the full figure computation.

use coflow_bench::bench_scale_config;
use coflow_bench::figures::run_fig2a;
use coflow_bench::report::render_fig2a;
use coflow_workloads::generate_trace;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_fig2a(c: &mut Criterion) {
    let trace = generate_trace(&bench_scale_config(2015));
    let mut group = c.benchmark_group("fig2a");
    group.sample_size(10);
    group.bench_function("full_figure", |b| b.iter(|| run_fig2a(&trace, 4, 2015)));
    group.finish();

    let fig = run_fig2a(&trace, 4, 2015);
    println!("{}", render_fig2a(&fig));
    // The paper's qualitative claims, asserted at bench time as well:
    for (rule, pct) in &fig.rows {
        assert!(
            pct[3] <= pct[0] + 1e-9,
            "{:?}: case (d) must not exceed the base case",
            rule
        );
    }
}

criterion_group!(benches, bench_fig2a);
criterion_main!(benches);
