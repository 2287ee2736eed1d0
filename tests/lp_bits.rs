//! Output bits of the interval-indexed relaxation (LP) (Lemma 1 and the
//! ordering (15)) on a fixed list of generated instances.
//!
//! The LP fixes the `H_LP` order of every LP-ordered schedule, so any drift
//! in its arithmetic — model build, presolve, basis factors, eta updates,
//! pricing — shows up here as a changed lower bound, pivot count, order or
//! fractional completion time. The constants were recorded before the
//! model builder and the simplex kernels were rewritten for sparsity; a
//! change that keeps the arithmetic keeps every one of them.
//!
//! The instances cover the benchmark's workload shapes (the 150-port
//! zero-release offline trace at 12 coflows, the 60- and 30-port arrival
//! traces, a residual instance of the kind a `resilient` replan solves),
//! the randomized algorithm's `1 + √2` grid through the uncached
//! `solve_with_grid`, and one full 150×150 trace. C̄ bits are folded with
//! FNV-1a, whose output is fixed by its definition (unlike `DefaultHasher`,
//! which may change between Rust releases).
//!
//! Each instance's interval model is folded too — variables, costs,
//! bounds, rows, senses, term order and right-hand sides — with the
//! fingerprints recorded on the builder that read dense per-port tables,
//! before coflow demand became a sparse flow list; the one builder over
//! per-coflow port loads must emit the same model.

use coflow::relax::{build_interval_model, build_interval_model_with_grid};
use coflow::{solve_interval_lp, solve_with_grid, Coflow, GeometricGrid, Instance, LpRelaxation};
use coflow_lp::{Model, Sense};
use coflow_matching::IntMatrix;
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

/// What one instance's LP must reproduce, bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    lower_bound: u64,
    iterations: usize,
    order: Vec<usize>,
    completions_fnv: u64,
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits_of(lp: &LpRelaxation) -> Bits {
    Bits {
        lower_bound: lp.lower_bound.to_bits(),
        iterations: lp.iterations,
        order: lp.order.clone(),
        completions_fnv: fnv1a(lp.approx_completion.iter().map(|c| c.to_bits())),
    }
}

/// FNV-1a over a model: variable count, each cost and implied bound, then
/// per row its sense, right-hand side and every `(variable, coefficient)`
/// term in order.
fn model_fnv(model: &Model) -> u64 {
    let mut words = vec![model.num_vars() as u64, model.num_constraints() as u64];
    words.extend(model.costs().iter().map(|c| c.to_bits()));
    words.extend(model.implied_upper().iter().map(|u| u.to_bits()));
    for row in model.constraints() {
        let sense = match row.sense {
            Sense::Le => 0,
            Sense::Eq => 1,
            Sense::Ge => 2,
        };
        words.extend([sense, row.rhs.to_bits(), row.terms.len() as u64]);
        for &(v, a) in &row.terms {
            words.extend([v.0 as u64, a.to_bits()]);
        }
    }
    fnv1a(words)
}

/// The interval model of `instance` on the doubling grid must fold to
/// `want`: the fingerprint of the model the dense per-port-table builder
/// returned before the demand went sparse.
fn check_model(name: &str, instance: &Instance, want: u64) {
    let (model, _, _) = build_interval_model(instance);
    let got = model_fnv(&model);
    assert_eq!(
        got, want,
        "{name}: interval model drifted (fingerprint {got:#018x})"
    );
}

fn check(
    name: &str,
    lp: &LpRelaxation,
    lower_bound: u64,
    iterations: usize,
    order: &[usize],
    completions_fnv: u64,
) {
    let got = bits_of(lp);
    let want = Bits {
        lower_bound,
        iterations,
        order: order.to_vec(),
        completions_fnv,
    };
    assert_eq!(got, want, "{name}: interval LP output drifted");
}

/// The benchmark's trace generator: the offline shape (zero releases,
/// default flow sizes) or the arrivals shape (mean gap 40 slots, flows
/// capped at 128 MB), with random-permutation weights.
fn generated(ports: usize, num_coflows: usize, seed: u64, arrivals: bool) -> Instance {
    let config = if arrivals {
        TraceConfig {
            ports,
            num_coflows,
            seed,
            zero_release: false,
            mean_interarrival: 40.0,
            max_flow_size: 128,
            ..TraceConfig::default()
        }
    } else {
        TraceConfig {
            ports,
            num_coflows,
            seed,
            ..TraceConfig::default()
        }
    };
    assign_weights(
        &generate_trace(&config),
        WeightScheme::RandomPermutation { seed },
    )
}

/// A replan-style residual of `instance` at slot `now`: releases shift to
/// `max(r - now, 0)`, every third nonzero flow is drained and the others
/// lose a third of their units (so some coflows shrink to a single port and
/// some ports go idle), and finished coflows drop out.
fn residual(instance: &Instance, now: u64) -> Instance {
    let m = instance.ports();
    let mut coflows = Vec::new();
    let mut flow = 0usize;
    for c in instance.coflows() {
        let mut demand = IntMatrix::zeros(m);
        for (i, j, v) in c.demand.nonzero_entries() {
            flow += 1;
            if !flow.is_multiple_of(3) {
                demand[(i, j)] = v - v / 3;
            }
        }
        if demand.is_zero() {
            continue;
        }
        coflows.push(
            Coflow::new(c.id, demand)
                .with_release(c.release.saturating_sub(now))
                .with_weight(c.weight),
        );
    }
    Instance::new(m, coflows)
}

#[test]
fn offline_shape_150_ports() {
    let inst = generated(150, 12, 2015, false);
    check_model("offline 150x12", &inst, 0xac4e_5825_fdef_9395);
    let lp = solve_interval_lp(&inst);
    check(
        "offline 150x12",
        &lp,
        4661122260235452416,
        12,
        &[0, 2, 3, 6, 9, 10, 4, 8, 1, 5, 7, 11],
        0x5ac7dd4b4e2f4bd8,
    );
}

#[test]
fn arrivals_shape_60_ports() {
    let inst = generated(60, 40, 2015, true);
    check_model("arrivals 60x40", &inst, 0xf6e4_76e8_5b68_f052);
    let lp = solve_interval_lp(&inst);
    check(
        "arrivals 60x40",
        &lp,
        4694195569998954496,
        40,
        &[
            0, 1, 2, 3, 5, 6, 7, 8, 9, 4, 11, 12, 14, 15, 17, 10, 13, 16, 18, 19, 20, 23, 24, 25,
            26, 27, 28, 29, 30, 32, 33, 34, 35, 36, 37, 38, 39, 21, 22, 31,
        ],
        0x8370c5d355dd1125,
    );
}

#[test]
fn arrivals_shape_30_ports() {
    let inst = generated(30, 100, 2015, true);
    check_model("arrivals 30x100", &inst, 0x0b82_43c5_ce05_fba3);
    let lp = solve_interval_lp(&inst);
    check(
        "arrivals 30x100",
        &lp,
        4711111345527044573,
        101,
        &[
            0, 2, 4, 1, 3, 5, 6, 7, 8, 9, 10, 11, 15, 13, 14, 17, 18, 19, 20, 21, 22, 23, 24, 25,
            26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37, 38, 41, 42, 45, 46, 47, 12, 16, 36, 39, 40,
            43, 44, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67,
            68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89,
            90, 91, 93, 92, 94, 95, 96, 97, 98, 99,
        ],
        0xa23de61847c809ae,
    );
}

#[test]
fn residual_shape_30_ports() {
    let full = generated(30, 100, 99, true);
    let now = full.releases()[full.len() / 2];
    let inst = residual(&full, now);
    check_model("residual 30x100", &inst, 0x409d_1713_1c27_eca8);
    let lp = solve_interval_lp(&inst);
    check(
        "residual 30x100",
        &lp,
        4702376722088046198,
        144,
        &[
            22, 48, 11, 20, 34, 33, 1, 23, 39, 30, 6, 46, 26, 21, 24, 17, 0, 5, 28, 41, 3, 7, 15,
            49, 42, 45, 27, 31, 37, 12, 36, 19, 2, 9, 35, 8, 29, 50, 51, 25, 52, 4, 38, 10, 32, 44,
            40, 13, 14, 16, 43, 47, 53, 54, 55, 56, 57, 58, 59, 18, 60, 61, 62, 64, 65, 66, 67, 68,
            69, 70, 63, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 87, 86, 88, 89,
            90, 91, 92, 93, 94, 95,
        ],
        0xb95f0cd189d5e92b,
    );
}

#[test]
fn randomized_grid_30_ports() {
    let inst = generated(30, 60, 7, true);
    check_model("doubling grid 30x60", &inst, 0x06bb_205b_7f1a_997d);
    let grid = GeometricGrid::scaled(inst.naive_horizon(), 1.7, 1.0 + std::f64::consts::SQRT_2);
    let (model, _) = build_interval_model_with_grid(&inst, &grid);
    let got = model_fnv(&model);
    assert_eq!(
        got, 0x5e38_9226_ae56_b53f,
        "scaled grid 30x60: interval model drifted (fingerprint {got:#018x})"
    );
    let lp = solve_with_grid(&inst, &grid);
    check(
        "scaled grid 30x60",
        &lp,
        4701776189884999942,
        60,
        &[
            0, 1, 4, 2, 3, 5, 6, 7, 12, 13, 14, 8, 9, 10, 11, 15, 16, 17, 18, 19, 20, 21, 23, 24,
            25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 43, 46, 22, 41, 42, 44,
            45, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59,
        ],
        0xb76e586e82672e7d,
    );
}

#[test]
fn full_trace_150x150() {
    let inst = generated(150, 150, 2015, false);
    check_model("offline 150x150", &inst, 0x4b5c_4394_d2ec_2bdd);
    let lp = solve_interval_lp(&inst);
    check(
        "offline 150x150",
        &lp,
        4705085324787060618,
        216,
        &[
            30, 0, 42, 55, 68, 72, 26, 35, 36, 70, 83, 106, 108, 121, 125, 136, 141, 146, 23, 16,
            62, 89, 120, 131, 132, 119, 3, 10, 41, 103, 128, 137, 9, 6, 50, 25, 34, 40, 59, 97, 95,
            21, 37, 87, 104, 31, 88, 15, 8, 98, 4, 18, 20, 28, 148, 48, 67, 80, 130, 140, 147, 1,
            2, 13, 39, 49, 57, 60, 91, 113, 126, 143, 149, 63, 56, 100, 74, 122, 99, 92, 14, 19,
            139, 7, 44, 65, 73, 78, 90, 111, 124, 109, 24, 64, 5, 110, 58, 11, 61, 27, 43, 46, 51,
            81, 127, 138, 142, 144, 32, 112, 53, 69, 96, 134, 123, 135, 94, 79, 93, 38, 17, 71, 77,
            85, 115, 118, 84, 52, 47, 129, 116, 145, 82, 33, 45, 75, 101, 117, 133, 66, 107, 22,
            12, 29, 76, 102, 105, 86, 54, 114,
        ],
        0x8a8dc30293ded976,
    );
}
