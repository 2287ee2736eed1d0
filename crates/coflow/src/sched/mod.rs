//! Schedulers: the paper's deterministic Algorithm 2, its randomized
//! variant, and the §4 experiment grid (ordering × grouping × backfilling).
//!
//! Every scheduler is a [`engine::Policy`] run by one execution engine
//! ([`engine`]). The paper's pipeline is the [`engine::BvnBatchPolicy`]: the
//! coflow order is partitioned into *batches* (singleton batches when
//! grouping is off, interval groups when it is on); the policy waits for
//! each batch's member releases, aggregates their remaining demand, clears
//! it with a Birkhoff–von Neumann schedule (Algorithm 1), and — when
//! backfilling is enabled — donates unforced idle slots to later coflows on
//! the same port pair.
//!
//! This module keeps one entry point per paper algorithm: [`run`]
//! (Algorithm 2, or one §4 cell), [`run_with_order`] (the scheduling stage
//! over a caller-supplied order), [`run_randomized`] (§3.2), and
//! [`resilient::run_resilient`] (the `H_LP → H_ρ → H_A` fallback chain).
//! Every other scheduler — online, greedy, the successor papers' policies,
//! the fault-aware replanner — is built by name from the [`registry`] (or
//! from its policy type) and handed to [`engine::run_policy`] or
//! [`engine::run_policy_with_faults`].

pub mod engine;
pub mod greedy;
pub mod online;
pub mod optimal;
pub mod ordered;
pub mod recovery;
pub mod registry;
pub mod resilient;
pub mod snapshot;
pub mod watchdog;

use crate::grouping::{group_by_doubling, group_by_grid};
use crate::instance::Instance;
use crate::intervals::GeometricGrid;
use crate::ordering::{compute_order, OrderRule};
use coflow_netsim::ScheduleTrace;
use engine::{run_policy, run_policy_until, BvnBatchPolicy};
use rand::Rng;

/// One cell of the §4 experiment grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    /// Ordering-stage rule.
    pub order: OrderRule,
    /// Scheduling-stage grouping (case (c)/(d) when true).
    pub grouping: bool,
    /// Scheduling-stage backfilling (case (b)/(d) when true).
    pub backfill: bool,
}

impl AlgorithmSpec {
    /// The paper's Algorithm 2: LP ordering + grouping, no backfilling
    /// (case (c) with `H_LP`).
    pub fn algorithm2() -> Self {
        AlgorithmSpec {
            order: OrderRule::LpBased,
            grouping: true,
            backfill: false,
        }
    }

    /// Case label as used in §4.1: (a) base, (b) backfill, (c) group,
    /// (d) group + backfill.
    pub fn case_label(&self) -> &'static str {
        match (self.grouping, self.backfill) {
            (false, false) => "a",
            (false, true) => "b",
            (true, false) => "c",
            (true, true) => "d",
        }
    }
}

/// Result of running a scheduler on an instance.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// The coflow order used by the ordering stage.
    pub order: Vec<usize>,
    /// Completion slot per coflow (instance indexing).
    pub completions: Vec<u64>,
    /// `Σ_k w_k C_k`.
    pub objective: f64,
    /// The executed schedule, replayable/validatable by `coflow-netsim`.
    pub trace: ScheduleTrace,
}

impl ScheduleOutcome {
    /// Schedule makespan (last busy slot).
    pub fn makespan(&self) -> u64 {
        self.trace.makespan()
    }
}

/// Runs one experiment-grid cell on `instance`: Algorithm 2 for
/// [`AlgorithmSpec::algorithm2`].
pub fn run(instance: &Instance, spec: &AlgorithmSpec) -> ScheduleOutcome {
    let order = compute_order(instance, spec.order);
    run_with_order(
        instance,
        order,
        spec.grouping,
        ExecOptions::paper(spec.backfill),
    )
}

/// Scheduling-stage execution options beyond the paper's grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Same-pair backfilling (§4.1 of the paper).
    pub backfill: bool,
    /// Work-conserving rematch (extension beyond same-pair backfilling):
    /// a pair of the Birkhoff–von Neumann matching with no demand left to
    /// serve (its padding came from the augmentation) re-matches its two
    /// ports to pending demand instead of idling. Re-matching only adds
    /// service, so every completion-time guarantee is preserved; the
    /// benchmark suite evaluates it as an ablation.
    pub rematch: bool,
}

impl ExecOptions {
    /// The paper's scheduling stage: same-pair backfilling when
    /// `backfill`, no extension.
    pub fn paper(backfill: bool) -> Self {
        ExecOptions {
            backfill,
            ..ExecOptions::default()
        }
    }
}

/// Runs the scheduling stage over a caller-supplied `order`: Algorithm 2's
/// doubling groups of `order` when `grouping` is on, one coflow per batch
/// otherwise, each batch executed with `opts`.
pub fn run_with_order(
    instance: &Instance,
    order: Vec<usize>,
    grouping: bool,
    opts: ExecOptions,
) -> ScheduleOutcome {
    let batches = batches_of(instance, &order, grouping);
    execute_batches(instance, order, batches, opts)
}

/// The schedule [`run_with_order`] would record, up to the end of the
/// decision that reaches slot `horizon - 1` (see
/// [`engine::run_policy_until`]).
pub(crate) fn plan_with_order_until(
    instance: &Instance,
    order: Vec<usize>,
    grouping: bool,
    opts: ExecOptions,
    horizon: u64,
) -> ScheduleTrace {
    let batches = batches_of(instance, &order, grouping);
    let _span = obs::span("sched.execute");
    let mut policy = BvnBatchPolicy::new(instance, order, batches, opts);
    match run_policy_until(instance, &mut policy, horizon) {
        Ok(sim) => sim.finish().0,
        Err(e) => unreachable!("batch policy is infallible: {}", e),
    }
}

/// Algorithm 2's doubling groups of `order` when `grouping` is on,
/// singleton batches otherwise.
pub(crate) fn batches_of(instance: &Instance, order: &[usize], grouping: bool) -> Vec<Vec<usize>> {
    if grouping {
        group_by_doubling(instance, order).groups
    } else {
        order.iter().map(|&k| vec![k]).collect()
    }
}

/// The randomized algorithm of §3.2: groups by the random grid
/// `τ'_l = T₀ aˡ⁻¹`, `a = 1 + √2`, `T₀ ~ Uniform[1, a]`, then schedules
/// exactly like Algorithm 2.
pub fn run_randomized<R: Rng + ?Sized>(
    instance: &Instance,
    order_rule: OrderRule,
    backfill: bool,
    rng: &mut R,
) -> ScheduleOutcome {
    let a = 1.0 + std::f64::consts::SQRT_2;
    let t0: f64 = rng.gen_range(1.0..a);
    let order = compute_order(instance, order_rule);
    let v = instance.cumulative_loads(&order);
    let horizon = v.iter().copied().max().unwrap_or(1);
    let grid = GeometricGrid::scaled(horizon, t0, a);
    let batches = group_by_grid(instance, &order, &grid).groups;
    execute_batches(instance, order, batches, ExecOptions::paper(backfill))
}

/// Runs a [`BvnBatchPolicy`] over `batches` (consecutive runs of `order`)
/// with [`run_policy`]. The `sched.execute` span is kept here so the obs
/// stage taxonomy is unchanged.
fn execute_batches(
    instance: &Instance,
    order: Vec<usize>,
    batches: Vec<Vec<usize>>,
    opts: ExecOptions,
) -> ScheduleOutcome {
    let _span = obs::span("sched.execute");
    let mut policy = BvnBatchPolicy::new(instance, order, batches, opts);
    match run_policy(instance, &mut policy) {
        Ok(out) => out,
        Err(e) => unreachable!("batch policy is infallible: {}", e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_matching::IntMatrix;
    use coflow_netsim::validate_trace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn validate(instance: &Instance, out: &ScheduleOutcome) {
        let times = validate_trace(instance.demands(), &instance.releases(), &out.trace)
            .expect("trace must satisfy problem (O) constraints");
        assert_eq!(times, out.completions, "completion accounting mismatch");
        assert!((instance.objective(&times) - out.objective).abs() < 1e-9);
    }

    fn fig1_instance() -> Instance {
        Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        )
    }

    #[test]
    fn lone_coflow_completes_at_its_load() {
        // Lemma 4: a lone coflow finishes in exactly rho slots under every
        // grid cell.
        let inst = fig1_instance();
        for grouping in [false, true] {
            for backfill in [false, true] {
                let out = run_with_order(&inst, vec![0], grouping, ExecOptions::paper(backfill));
                assert_eq!(out.completions, vec![3]);
                validate(&inst, &out);
            }
        }
    }

    #[test]
    fn grouping_consolidates_two_small_coflows() {
        // Two unit coflows on disjoint pairs, same interval: the group is
        // cleared as one aggregated coflow in 1 slot.
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 0], [0, 1]]));
        let inst = Instance::new(2, vec![c0, c1]);
        let grouped = run_with_order(&inst, vec![0, 1], true, ExecOptions::paper(false));
        assert_eq!(grouped.completions, vec![1, 1]);
        validate(&inst, &grouped);
        // Ungrouped, no backfill: strictly sequential -> 1 and 2.
        let seq = run_with_order(&inst, vec![0, 1], false, ExecOptions::paper(false));
        assert_eq!(seq.completions, vec![1, 2]);
        validate(&inst, &seq);
    }

    #[test]
    fn backfill_uses_augmentation_idle_time() {
        // c0 = [[2,0],[0,0]] augments to [[2,0],[0,2]]: pair (1,1) idles for
        // 2 slots. c1 demands (1,1), so backfilling serves it during c0's
        // schedule.
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[2, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 0], [0, 2]]));
        let inst = Instance::new(2, vec![c0, c1]);
        let no_bf = run_with_order(&inst, vec![0, 1], false, ExecOptions::paper(false));
        assert_eq!(no_bf.completions, vec![2, 4]);
        validate(&inst, &no_bf);
        let bf = run_with_order(&inst, vec![0, 1], false, ExecOptions::paper(true));
        assert_eq!(bf.completions, vec![2, 2]);
        validate(&inst, &bf);
    }

    #[test]
    fn release_dates_delay_batches() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(10);
        let inst = Instance::new(2, vec![c0, c1]);
        let out = run_with_order(&inst, vec![0, 1], false, ExecOptions::paper(false));
        assert_eq!(out.completions, vec![1, 11]);
        validate(&inst, &out);
    }

    #[test]
    fn full_grid_runs_and_validates_on_mixed_instance() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
        let inst = Instance::new(2, vec![c0, c1, c2]);
        for rule in [
            OrderRule::Arrival,
            OrderRule::LoadOverWeight,
            OrderRule::LpBased,
            OrderRule::SizeOverWeight,
        ] {
            for grouping in [false, true] {
                for backfill in [false, true] {
                    let out = run(
                        &inst,
                        &AlgorithmSpec {
                            order: rule,
                            grouping,
                            backfill,
                        },
                    );
                    validate(&inst, &out);
                }
            }
        }
    }

    #[test]
    fn randomized_algorithm_validates() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let inst = Instance::new(2, vec![c0, c1]);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let out = run_randomized(&inst, OrderRule::LpBased, false, &mut rng);
            validate(&inst, &out);
        }
    }

    #[test]
    fn proposition1_bound_holds_on_small_instances() {
        // C_k(A) <= max_{g<=k} r_g + 4 V_k for Algorithm 2 (LP order,
        // grouping, no backfill).
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[2, 1], [1, 2]])).with_release(3);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[4, 0], [0, 4]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 6], [6, 0]])).with_release(1);
        let inst = Instance::new(2, vec![c0, c1, c2]);
        let out = run(&inst, &AlgorithmSpec::algorithm2());
        let v = inst.cumulative_loads(&out.order);
        let mut max_release = 0;
        for (p, &k) in out.order.iter().enumerate() {
            max_release = max_release.max(inst.coflow(k).release);
            assert!(
                out.completions[k] <= max_release + 4 * v[p],
                "Proposition 1 violated for coflow {}",
                k
            );
        }
        validate(&inst, &out);
    }

    #[test]
    fn case_labels() {
        let mk = |g, b| AlgorithmSpec {
            order: OrderRule::Arrival,
            grouping: g,
            backfill: b,
        };
        assert_eq!(mk(false, false).case_label(), "a");
        assert_eq!(mk(false, true).case_label(), "b");
        assert_eq!(mk(true, false).case_label(), "c");
        assert_eq!(mk(true, true).case_label(), "d");
    }
}
