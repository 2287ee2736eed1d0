//! Simple synthetic instance families for tests, property tests, and
//! ablation benchmarks.

use coflow::{Coflow, Demand, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random instance: each coflow has `density · m²` expected nonzero
/// flows with sizes in `1..=max_size`.
pub fn random_instance(m: usize, n: usize, density: f64, max_size: u64, seed: u64) -> Instance {
    assert!((0.0..=1.0).contains(&density));
    let mut rng = StdRng::seed_from_u64(seed);
    let coflows = (0..n)
        .map(|id| {
            let mut flows = Vec::new();
            for i in 0..m {
                for j in 0..m {
                    if rng.gen_bool(density) {
                        flows.push((i, j, rng.gen_range(1..=max_size)));
                    }
                }
            }
            // Guarantee at least one flow so every coflow is nontrivial.
            if flows.is_empty() {
                flows.push((
                    rng.gen_range(0..m),
                    rng.gen_range(0..m),
                    rng.gen_range(1..=max_size),
                ));
            }
            Coflow::new(id, demand(m, flows))
        })
        .collect();
    Instance::new(m, coflows)
}

/// Random instance with release dates drawn uniformly from `0..=max_release`
/// and weights uniform in `[0.5, 4.0]`.
pub fn random_instance_with_releases(
    m: usize,
    n: usize,
    density: f64,
    max_size: u64,
    max_release: u64,
    seed: u64,
) -> Instance {
    let base = random_instance(m, n, density, max_size, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let coflows = base
        .coflows()
        .iter()
        .map(|c| {
            c.clone()
                .with_release(rng.gen_range(0..=max_release))
                .with_weight(rng.gen_range(0.5..4.0))
        })
        .collect();
    Instance::new(m, coflows)
}

/// Diagonal (concurrent-open-shop) instance: job `k` needs
/// `p ∈ 1..=max_size` on each machine independently, zero with probability
/// `1 - density`.
pub fn random_diagonal_instance(
    m: usize,
    n: usize,
    density: f64,
    max_size: u64,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let coflows = (0..n)
        .map(|id| {
            let diag: Vec<u64> = (0..m)
                .map(|_| {
                    if rng.gen_bool(density) {
                        rng.gen_range(1..=max_size)
                    } else {
                        0
                    }
                })
                .collect();
            let mut diag = diag;
            if diag.iter().all(|&d| d == 0) {
                diag[rng.gen_range(0..m)] = rng.gen_range(1..=max_size);
            }
            Coflow::new(
                id,
                demand(m, diag.into_iter().enumerate().map(|(i, p)| (i, i, p))),
            )
        })
        .collect();
    Instance::new(m, coflows)
}

/// The Appendix B counter-example pair (3×3, two coflows) showing the `V_k`
/// lower bounds cannot all be tight simultaneously.
pub fn appendix_b_instance() -> Instance {
    let rows = |d: [[u64; 3]; 3]| {
        let flows = (0..3).flat_map(move |i| (0..3).map(move |j| (i, j, d[i][j])));
        demand(3, flows)
    };
    let d1 = rows([[9, 0, 9], [0, 9, 0], [9, 0, 9]]);
    let d2 = rows([[1, 10, 1], [10, 1, 10], [1, 10, 1]]);
    Instance::new(3, vec![Coflow::new(0, d1), Coflow::new(1, d2)])
}

/// The demand of flows this module drew on `m` ports.
fn demand(m: usize, flows: impl IntoIterator<Item = (usize, usize, u64)>) -> Demand {
    Demand::from_flows(m, flows).unwrap_or_else(|e| panic!("synthetic flows: {}", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_instance_has_no_empty_coflows() {
        let inst = random_instance(5, 20, 0.05, 10, 3);
        assert!(inst.coflows().iter().all(|c| c.total_units() > 0));
    }

    #[test]
    fn density_one_is_fully_dense() {
        let inst = random_instance(3, 2, 1.0, 5, 1);
        assert!(inst.coflows().iter().all(|c| c.width() == 9));
    }

    #[test]
    fn releases_and_weights_in_range() {
        let inst = random_instance_with_releases(4, 10, 0.3, 8, 100, 2);
        for c in inst.coflows() {
            assert!(c.release <= 100);
            assert!((0.5..4.0).contains(&c.weight));
        }
    }

    #[test]
    fn diagonal_instances_are_diagonal() {
        let inst = random_diagonal_instance(4, 10, 0.5, 9, 5);
        for c in inst.coflows() {
            for (i, j, _) in c.demand.nonzero_entries() {
                assert_eq!(i, j);
            }
        }
    }

    #[test]
    fn appendix_b_loads_match_the_paper() {
        let inst = appendix_b_instance();
        // t1 = max(I_1, J_1) = 18, t2 = max(I_2, J_2) = 30.
        let v = inst.cumulative_loads(&[0, 1]);
        assert_eq!(v, vec![18, 30]);
    }
}
