//! Micro-benchmarks for the cross-layer hot-path kernels:
//!
//! * a cold Hopcroft–Karp solve on a BvN support graph after a
//!   permutation slot left it (the incremental-BvN inner loop);
//! * full BvN decomposition at the grid's port counts m ∈ {16, 60, 150};
//! * schedule execution on the one executor, run-length vs unit-slot:
//!   under a fault plan, replaying a trace (`FaultSim::execute_trace` vs
//!   `execute_trace_slotwise`) or holding its matchings
//!   (`FaultSim::apply_run` vs `apply_run_slotwise`), and under the empty
//!   plan holding them (the bulk hold of a clean run vs
//!   `apply_run_slotwise`). The kernels return nothing per slot; each
//!   iteration ends with the run-length executed trace and the
//!   blocked-unit count.
//!
//! Set `CRITERION_JSON=<file>` to append one JSON line per benchmark for
//! the perf harness.

use coflow_matching::{bvn_decompose, BipartiteGraph, HopcroftKarp, IntMatrix};
use coflow_netsim::{Demand, FaultEvent, FaultPlan, FaultSim, Run, ScheduleTrace, Transfer};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A decomposable demand matrix: a sum of `d` random permutation matrices
/// with random positive coefficients (equal row and column sums by
/// construction, so BvN needs no augmentation slack).
fn balanced_matrix(m: usize, d: usize, rng: &mut StdRng) -> IntMatrix {
    let mut mat = IntMatrix::zeros(m);
    for _ in 0..d {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let coeff = rng.gen_range(1..=9u64);
        for (i, &j) in perm.iter().enumerate() {
            mat[(i, j)] += coeff;
        }
    }
    mat
}

fn bench_hopcroft_karp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2015);
    let m = 150;
    let mat = balanced_matrix(m, 12, &mut rng);
    let mut g = BipartiteGraph::support_of(&mat);
    // The incremental-BvN access pattern: solve once, delete half the
    // matched edges (a permutation slot leaving the support), then re-solve
    // the survivor graph.
    let matched = HopcroftKarp::new().solve(&g);
    let pairs: Vec<(usize, usize)> = matched.pairs().collect();
    for &(u, v) in pairs.iter().take(m / 2) {
        g.remove_edge(u, v);
    }
    let mut group = c.benchmark_group("hk");
    group.sample_size(40);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut hk = HopcroftKarp::new();
            black_box(hk.solve(black_box(&g)).size)
        })
    });
    group.finish();
}

fn bench_bvn(c: &mut Criterion) {
    let mut group = c.benchmark_group("bvn_decompose");
    group.sample_size(20);
    for &m in &[16usize, 60, 150] {
        let mut rng = StdRng::seed_from_u64(42 + m as u64);
        let mat = balanced_matrix(m, 10, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(m), &mat, |b, mat| {
            b.iter(|| black_box(bvn_decompose(m, black_box(mat).nonzero_entries())).len())
        });
    }
    group.finish();
}

/// One long-run schedule on a 60-port fabric: each of 40 coflows demands
/// units across a rotating matching, held for a long run — the shape that
/// used to cost a per-slot loop over the whole horizon.
fn long_schedule(m: usize, n: usize) -> (ScheduleTrace, Vec<IntMatrix>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut trace = ScheduleTrace::new(m);
    let mut demands = vec![IntMatrix::zeros(m); n];
    let mut start = 1u64;
    for r in 0..24u64 {
        let duration = 40 + (r % 5) * 25;
        let shift = (r as usize * 7 + 1) % m;
        let mut transfers = Vec::new();
        for i in 0..m {
            let j = (i + shift) % m;
            let k = rng.gen_range(0..n);
            let units = rng.gen_range(duration / 2..=duration);
            demands[k][(i, j)] += units;
            transfers.push(Transfer::new(i, j, k, units).expect("ids fit in u32"));
        }
        trace.push_run(Run {
            start,
            duration,
            transfers: transfers.into(),
        });
        start += duration;
    }
    (trace, demands, vec![0; n])
}

/// A held matching's `(ingress, egress, priority-ordered coflows)` pairs.
type HeldPairs = Vec<(usize, usize, Vec<usize>)>;

fn bench_execution(c: &mut Criterion) {
    let m = 60;
    let (trace, dense, releases) = long_schedule(m, 40);
    let demands: Vec<Demand> = dense.iter().map(Demand::from).collect();
    let plan = FaultPlan::new(vec![
        FaultEvent::IngressOutage {
            port: 3,
            start: 50,
            end: 180,
        },
        FaultEvent::EgressOutage {
            port: 11,
            start: 400,
            end: 520,
        },
        FaultEvent::LinkDegraded {
            src: 5,
            dst: 5,
            start: 100,
            end: 900,
            stride: 3,
        },
        FaultEvent::CoflowCancelled { coflow: 1, at: 300 },
    ]);
    // Each run of the schedule as a held matching: one pair per transfer.
    let holds: Vec<(HeldPairs, u64)> = trace
        .runs
        .iter()
        .map(|run| {
            let pairs = run
                .transfers
                .iter()
                .map(|t| (t.src(), t.dst(), vec![t.coflow()]))
                .collect();
            (pairs, run.duration)
        })
        .collect();
    let hold_all = |sim: &mut FaultSim, slotwise: bool| {
        for (pairs, duration) in &holds {
            let held = if slotwise {
                sim.apply_run_slotwise(black_box(pairs), *duration)
            } else {
                sim.apply_run(black_box(pairs), *duration)
            };
            held.expect("valid hold");
        }
    };

    // Each pair of executors must agree before their timings mean anything:
    // the same executed trace, completions, residual demand and blocked log.
    let mut a = FaultSim::new(m, &demands, &releases, plan.clone());
    let mut b = FaultSim::new(m, &demands, &releases, plan.clone());
    a.execute_trace(&trace, None).expect("valid trace");
    b.execute_trace_slotwise(&trace, None).expect("valid trace");
    assert!(
        a.capture() == b.capture(),
        "run-length and unit-slot trace replays must match"
    );
    let mut a = FaultSim::new(m, &demands, &releases, plan.clone());
    let mut b = FaultSim::new(m, &demands, &releases, plan.clone());
    hold_all(&mut a, false);
    hold_all(&mut b, true);
    assert!(
        a.capture() == b.capture(),
        "run-length and unit-slot held matchings must match"
    );
    let quiet = FaultPlan::default();
    let mut a = FaultSim::new(m, &demands, &releases, quiet.clone());
    let mut b = FaultSim::new(m, &demands, &releases, quiet.clone());
    hold_all(&mut a, false);
    hold_all(&mut b, true);
    assert!(
        a.capture() == b.capture(),
        "bulk and unit-slot clean holds must match"
    );

    let mut group = c.benchmark_group("execute");
    group.sample_size(10);
    group.bench_function("fault_runlength", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, plan.clone());
            sim.execute_trace(black_box(&trace), None)
                .expect("valid trace");
            black_box(sim.finish())
        })
    });
    group.bench_function("fault_unit_slot", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, plan.clone());
            sim.execute_trace_slotwise(black_box(&trace), None)
                .expect("valid trace");
            black_box(sim.finish())
        })
    });
    group.bench_function("fault_apply_run", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, plan.clone());
            hold_all(&mut sim, false);
            black_box(sim.finish())
        })
    });
    group.bench_function("fault_apply_run_unit_slot", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, plan.clone());
            hold_all(&mut sim, true);
            black_box(sim.finish())
        })
    });
    group.bench_function("clean_apply_run", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, quiet.clone());
            hold_all(&mut sim, false);
            black_box(sim.finish())
        })
    });
    group.bench_function("clean_apply_run_unit_slot", |b| {
        b.iter(|| {
            let mut sim = FaultSim::new(m, &demands, &releases, quiet.clone());
            hold_all(&mut sim, true);
            black_box(sim.finish())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hopcroft_karp, bench_bvn, bench_execution);
criterion_main!(benches);
