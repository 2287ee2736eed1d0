//! Replans that stop at the next fault boundary change nothing. The
//! registry `resilient` policy plans each epoch only through
//! `EpochState::next_boundary()`, the slot before which the engine stops
//! executing the plan. A reference policy that plans every epoch's
//! residual to the end, running a `ResilientPolicy` on it with
//! `run_policy` (under the empty plan it plans to `u64::MAX`), must
//! produce the same executed trace, completions, objective bits, replans,
//! tiers and blocked units —
//! under generated fault plans with arrivals and under hand-built plans
//! that cancel at slot 0 or 1, or whose last boundary falls before the
//! makespan (the epoch that plans to the end, horizon `u64::MAX`).

use coflow::{
    run_policy, run_policy_with_faults, verify_faulty_outcome, AlgorithmSpec, Coflow, Decision,
    EpochState, FaultyOutcome, Instance, OrderRule, Policy, PolicyRegistry, ResilientPolicy,
    SchedError,
};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::{FaultEvent, FaultPlan, Transfer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The registry `resilient` entry's planner, planning the whole residual
/// horizon at every epoch.
struct FullHorizon {
    spec: AlgorithmSpec,
    tier: usize,
}

impl FullHorizon {
    fn new() -> Self {
        FullHorizon {
            spec: AlgorithmSpec {
                order: OrderRule::LpBased,
                grouping: true,
                backfill: true,
            },
            tier: 0,
        }
    }
}

impl Policy for FullHorizon {
    fn name(&self) -> &'static str {
        "resilient-full-horizon"
    }

    fn tier(&self) -> usize {
        self.tier
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let instance = state.instance;
        let now = state.now;
        let mut residual_to_orig = Vec::new();
        let mut residual = Vec::new();
        for k in 0..instance.len() {
            if state.is_cancelled(k) || state.remaining_total(k) == 0 {
                continue;
            }
            let c = instance.coflow(k);
            residual_to_orig.push(k);
            residual.push(
                Coflow::new(c.id, state.remaining_matrix(k).to_matrix())
                    .with_weight(c.weight)
                    .with_release(c.release.max(now)),
            );
        }
        if residual.is_empty() {
            return Ok(Decision::Advance(now + 1));
        }
        let residual = Instance::new(instance.ports(), residual);
        let mut planner = ResilientPolicy::new(self.spec, SimplexOptions::default());
        let mut trace = run_policy(&residual, &mut planner)?.trace;
        self.tier = planner.tier();
        for run in &mut trace.runs {
            for t in run.transfers.iter_mut() {
                let k = residual_to_orig[t.coflow()];
                *t = Transfer::new(t.src(), t.dst(), k).expect("ids fit in u32");
            }
        }
        Ok(Decision::Execute(trace))
    }
}

/// Records the horizon the wrapped policy plans to at every decision.
struct Horizons {
    inner: Box<dyn Policy>,
    seen: Vec<u64>,
}

impl Policy for Horizons {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tier(&self) -> usize {
        self.inner.tier()
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        self.seen.push(state.next_boundary());
        self.inner.decide(state)
    }

    fn finish(&mut self) {
        self.inner.finish()
    }
}

/// `m` ports, `n` coflows on about half the port pairs, releases up to
/// `max_release`.
fn instance(m: usize, n: usize, max_release: u64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let coflows = (0..n)
        .map(|id| {
            let data: Vec<u64> = (0..m * m)
                .map(|_| rng.gen_range(0u64..6).saturating_sub(2))
                .collect();
            Coflow::new(id, IntMatrix::from_rows(m, data))
                .with_release(rng.gen_range(0..=max_release))
                .with_weight(rng.gen_range(1u64..5) as f64)
        })
        .collect();
    Instance::new(m, coflows)
}

/// Runs both planners under `plan`, requires identical outcomes that pass
/// the replay check, and returns the horizons the registry policy planned
/// to.
fn assert_same(inst: &Instance, plan: &FaultPlan, label: &str) -> Vec<u64> {
    let entry = PolicyRegistry::builtin()
        .get("resilient")
        .expect("resilient is registered");
    let mut truncated = Horizons {
        inner: entry.build(inst),
        seen: Vec::new(),
    };
    let cut = run_policy_with_faults(inst, &mut truncated, plan).expect("registry run");
    let full = run_policy_with_faults(inst, &mut FullHorizon::new(), plan).expect("reference run");
    let same = |a: &FaultyOutcome, b: &FaultyOutcome| {
        assert_eq!(a.executed, b.executed, "{}: executed trace", label);
        assert_eq!(a.completions, b.completions, "{}: completions", label);
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{}: objective",
            label
        );
        assert_eq!(a.replans, b.replans, "{}: replans", label);
        assert_eq!(a.tiers, b.tiers, "{}: tiers", label);
        assert_eq!(a.blocked_units, b.blocked_units, "{}: blocked units", label);
        assert_eq!(a.blocked, b.blocked, "{}: blocked log", label);
    };
    same(&cut, &full);
    verify_faulty_outcome(inst, plan, &cut).unwrap_or_else(|e| panic!("{}: {}", label, e));
    truncated.seen
}

#[test]
fn generated_plans_with_arrivals_replan_identically() {
    for seed in 0..4u64 {
        let inst = instance(4, 8, 12, seed);
        for rate in [0.2, 0.6] {
            let plan = FaultPlan::generate(inst.ports(), inst.len(), 40, rate, seed + 20);
            assert_same(&inst, &plan, &format!("seed {} rate {}", seed, rate));
        }
    }
}

#[test]
fn cancellations_at_slots_zero_and_one_replan_identically() {
    let inst = instance(4, 8, 6, 7);
    for at in [0, 1] {
        let plan = FaultPlan::new(vec![
            FaultEvent::CoflowCancelled { coflow: 0, at },
            FaultEvent::IngressOutage {
                port: 1,
                start: 2,
                end: 5,
            },
        ]);
        assert_same(&inst, &plan, &format!("cancellation at {}", at));
    }
}

#[test]
fn last_epoch_plans_to_the_end() {
    let inst = instance(4, 8, 6, 11);
    let plan = FaultPlan::new(vec![FaultEvent::EgressOutage {
        port: 2,
        start: 3,
        end: 6,
    }]);
    let seen = assert_same(&inst, &plan, "last boundary before the makespan");
    // Boundaries 3 and 7: epochs stop there, then the last one plans to
    // the end of the schedule, well past slot 7.
    assert!(
        seen.contains(&3) && seen.contains(&7),
        "horizons {:?}",
        seen
    );
    assert_eq!(seen.last(), Some(&u64::MAX), "horizons {:?}", seen);
}
