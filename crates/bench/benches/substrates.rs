//! Micro-benchmarks of the substrates: Birkhoff–von Neumann decomposition,
//! Hopcroft–Karp matching, and the revised simplex on the interval LP.

use coflow::relax::build_interval_model;
use coflow_lp::solve;
use coflow_matching::{bvn_decompose, maximum_matching, BipartiteGraph, IntMatrix};
use coflow_workloads::{generate_trace, random_instance, TraceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(m: usize, density: f64, seed: u64) -> IntMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = IntMatrix::zeros(m);
    for i in 0..m {
        for j in 0..m {
            if rng.gen_bool(density) {
                d[(i, j)] = rng.gen_range(1..64);
            }
        }
    }
    d
}

fn bench_bvn(c: &mut Criterion) {
    let mut group = c.benchmark_group("bvn_decompose");
    for &m in &[16usize, 48, 96] {
        let d = random_matrix(m, 0.3, m as u64);
        group.bench_with_input(BenchmarkId::from_parameter(m), &d, |b, d| {
            b.iter(|| bvn_decompose(m, d.nonzero_entries()))
        });
    }
    group.finish();
}

fn bench_hopcroft_karp(c: &mut Criterion) {
    let mut group = c.benchmark_group("hopcroft_karp");
    for &m in &[32usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let mut g = BipartiteGraph::new(m, m);
        for u in 0..m {
            for v in 0..m {
                if rng.gen_bool(0.1) {
                    g.add_edge(u, v);
                }
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(m), &g, |b, g| {
            b.iter(|| maximum_matching(g).size)
        });
    }
    group.finish();
}

fn bench_interval_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_lp_solve");
    group.sample_size(10);
    // A generated trace and a uniform random instance.
    let trace = generate_trace(&TraceConfig {
        ports: 20,
        num_coflows: 24,
        seed: 7,
        max_flow_size: 64,
        ..TraceConfig::default()
    });
    let uniform = random_instance(12, 20, 0.25, 16, 7);
    for (name, inst) in [("trace20x24", &trace), ("uniform12x20", &uniform)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (model, _, _) = build_interval_model(inst);
                let sol = solve(&model);
                assert!(sol.is_optimal());
                sol.objective
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bvn, bench_hopcroft_karp, bench_interval_lp);
criterion_main!(benches);
