//! Empirical approximation-ratio checks for the registry policies: every
//! policy with a proven bound must stay within it against the Lemma 1
//! interval-LP lower bound — Shafiee–Ghaderi within 5 (arXiv:1704.08357),
//! Im–Purohit within 4 (arXiv:1707.04331), the Algorithm 2 pipelines
//! within 67/3 — on several seeded arrivals instances. The measured
//! ratios on the canonical 24×36 instance are recorded in EXPERIMENTS.md;
//! `experiments -- tournament` re-measures them on every gate run.

use coflow::bounds::interval_lp_bound;
use coflow::{run_policy_with_faults, verify_faulty_outcome, PolicyRegistry};
use coflow_bench::arrivals::arrivals_instance;
use coflow_netsim::FaultPlan;

/// Every bounded canonical policy honors its registry bound; every policy
/// (bounded or not) produces a feasible schedule at least as costly as
/// the LP lower bound.
#[test]
fn measured_ratios_stay_within_the_proven_bounds() {
    let registry = PolicyRegistry::builtin();
    for seed in [3u64, 7, 11] {
        let inst = arrivals_instance(8, 12, seed);
        let lp = interval_lp_bound(&inst);
        assert!(lp > 0.0, "seed {}: LP lower bound must be positive", seed);
        // A quiet (rate-0) plan through the fault engine is bit-identical
        // to the clean run and accepts every policy, including the
        // Execute-emitting resilient planner.
        let quiet = FaultPlan::generate(inst.ports(), inst.len(), 1, 0.0, seed);
        for entry in registry.entries() {
            let mut policy = entry.build(&inst);
            let out = run_policy_with_faults(&inst, policy.as_mut(), &quiet)
                .unwrap_or_else(|e| panic!("seed {}: policy {}: {}", seed, entry.name, e));
            verify_faulty_outcome(&inst, &quiet, &out)
                .unwrap_or_else(|e| panic!("seed {}: policy {}: {}", seed, entry.name, e));
            let ratio = out.objective / lp;
            assert!(
                ratio >= 1.0 - 1e-9,
                "seed {}: policy {} beat the LP lower bound: ratio {}",
                seed,
                entry.name,
                ratio
            );
            if let Some(bound) = entry.bound {
                assert!(
                    ratio <= bound + 1e-9,
                    "seed {}: policy {} ratio {:.4} exceeds the proven bound {}",
                    seed,
                    entry.name,
                    ratio,
                    bound
                );
            }
        }
    }
}

/// The two successor-paper bounds specifically, by name — the satellite
/// contract of this test file (TWCT/LP ≤ 5 and ≤ 4).
#[test]
fn successor_policies_meet_their_paper_bounds() {
    let registry = PolicyRegistry::builtin();
    let inst = arrivals_instance(8, 12, 3);
    let lp = interval_lp_bound(&inst);
    let quiet = FaultPlan::generate(inst.ports(), inst.len(), 1, 0.0, 3);
    for (name, bound) in [("shafiee-ghaderi", 5.0), ("im-purohit", 4.0)] {
        let entry = registry.resolve(name).expect("registry name");
        assert_eq!(entry.bound, Some(bound), "{}: registry bound drifted", name);
        let mut policy = entry.build(&inst);
        let out = run_policy_with_faults(&inst, policy.as_mut(), &quiet).expect("clean run");
        let ratio = out.objective / lp;
        assert!(
            ratio <= bound,
            "{}: measured ratio {:.4} exceeds the paper bound {}",
            name,
            ratio,
            bound
        );
        assert!(ratio >= 1.0 - 1e-9, "{}: ratio {:.4} below 1", name, ratio);
    }
}
