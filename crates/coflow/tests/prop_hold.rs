//! Holding a greedy matching until the next event is invisible in the
//! schedule. Every slot-reactive registry policy answers with a
//! `Decision::Run` that lasts until a matched pair drains, the next coflow
//! is released or the fault window ends. Clamping each such run to one
//! slot — deciding every slot — must schedule the same units in the same
//! slots, under the empty plan and under generated fault plans.

use coflow::{
    run_policy, run_policy_with_faults, Coflow, Decision, EpochState, Instance, Policy,
    PolicyRegistry, PolicyState, SchedError,
};
use coflow_matching::IntMatrix;
use coflow_netsim::{FaultEvent, FaultPlan, ScheduleTrace};
use proptest::prelude::*;

/// The registry policies that answer with held greedy matchings.
const POLICIES: [&str; 4] = ["online", "greedy", "shafiee-ghaderi", "im-purohit"];

/// Clamps every `Run` of the wrapped policy to one slot.
struct OneSlot(Box<dyn Policy>);

impl Policy for OneSlot {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        Ok(match self.0.decide(state)? {
            Decision::Run { pairs, .. } => Decision::Run { pairs, duration: 1 },
            other => other,
        })
    }

    fn tier(&self) -> usize {
        self.0.tier()
    }

    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        self.0.final_order(completions)
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.0.recycle(pairs)
    }

    fn finish(&mut self) {
        self.0.finish()
    }

    fn capture_state(&self) -> Option<PolicyState> {
        self.0.capture_state()
    }
}

fn build(name: &str, instance: &Instance) -> Box<dyn Policy> {
    PolicyRegistry::builtin()
        .get(name)
        .unwrap_or_else(|| panic!("{} is registered", name))
        .build(instance)
}

/// `(slot, unit moves)` for every scheduled slot.
type SlotMoves = Vec<(u64, Vec<(usize, usize, usize)>)>;

/// The schedule a trace encodes, independent of how its slots are grouped
/// into runs.
fn slot_moves(trace: &ScheduleTrace) -> SlotMoves {
    let mut slots = Vec::new();
    trace.for_each_slot(|slot, moves| slots.push((slot, moves.to_vec())));
    slots
}

/// Instances with releases: 2–4 ports, 1–6 coflows, each using about half
/// of the port pairs.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..5, 1usize..7).prop_flat_map(|(m, n)| {
        let coflows = proptest::collection::vec(
            (proptest::collection::vec(0u64..6, m * m), 0u64..12, 1u64..4),
            n,
        );
        coflows.prop_map(move |specs| {
            let coflows = specs
                .into_iter()
                .enumerate()
                .map(|(id, (data, release, weight))| {
                    let data = data.into_iter().map(|d| d.saturating_sub(2)).collect();
                    Coflow::new(id, IntMatrix::from_rows(m, data))
                        .with_release(release)
                        .with_weight(weight as f64)
                })
                .collect();
            Instance::new(m, coflows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Clean fabric: same completions, objective bits and per-slot moves.
    #[test]
    fn held_runs_schedule_like_one_slot_runs(inst in instance_strategy()) {
        for name in POLICIES {
            let held = run_policy(&inst, build(name, &inst).as_mut()).expect("held run");
            let one = run_policy(&inst, &mut OneSlot(build(name, &inst))).expect("one-slot run");
            prop_assert_eq!(&held.completions, &one.completions, "{}: completions", name);
            prop_assert_eq!(held.objective.to_bits(), one.objective.to_bits(), "{}: objective", name);
            prop_assert_eq!(slot_moves(&held.trace), slot_moves(&one.trace), "{}: slot moves", name);
        }
    }

    /// Faulted runs: same completions, objective bits, executed trace,
    /// planning epochs, tiers and blocked log. Every plan also cancels one
    /// coflow — at slot 0 in some cases, before the first decision can see
    /// it.
    #[test]
    fn held_runs_schedule_like_one_slot_runs_under_faults(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
        cancel_at in 0u64..24,
    ) {
        let mut plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        plan.events.push(FaultEvent::CoflowCancelled {
            coflow: seed as usize % inst.len(),
            at: cancel_at,
        });
        for name in POLICIES {
            let held = run_policy_with_faults(&inst, build(name, &inst).as_mut(), &plan)
                .expect("held run");
            let one = run_policy_with_faults(&inst, &mut OneSlot(build(name, &inst)), &plan)
                .expect("one-slot run");
            prop_assert_eq!(&held.completions, &one.completions, "{}: completions", name);
            prop_assert_eq!(held.objective.to_bits(), one.objective.to_bits(), "{}: objective", name);
            prop_assert_eq!(&held.executed, &one.executed, "{}: executed trace", name);
            prop_assert_eq!(held.replans, one.replans, "{}: replans", name);
            prop_assert_eq!(&held.tiers, &one.tiers, "{}: tiers", name);
            prop_assert_eq!(&held.blocked, &one.blocked, "{}: blocked log", name);
        }
    }
}
