//! Differential verification of the engine refactor: the engine-run
//! policies must reproduce the four legacy slot-execution loops — identical
//! completions and bit-equal objective, and every slot moving the same
//! units (the online and greedy ports hold each matching until the next
//! event, so their traces group the legacy one-slot runs).
//!
//! The `legacy` module below holds frozen copies of the loops as they
//! stood before the refactor (batch executor with backfill/rematch, online
//! scheduler, priority greedy, and the fault/recovery epoch loop). They
//! are the reference; the public API is the system under test. Three edits
//! since: the batch executor lost the max-min peel the library no longer
//! has; the online loop re-sorts its priorities when a coflow completes as
//! well as when one arrives, as the one online policy does; and the batch
//! executor holds its matchings on the executor under the empty fault
//! plan, the one executor left, which records the executed trace as
//! stretches of identical slots, so its schedule is compared slot by
//! slot. Seeded random grids keep the comparison reproducible.
//!
//! A proptest at the end covers the newly composable combinations: the
//! online and greedy policies under fault injection must settle every
//! non-cancelled unit of demand (replay-verified by
//! [`verify_faulty_outcome`]).

use coflow::sched::{run_with_order, AlgorithmSpec, ExecOptions, ScheduleOutcome};
use coflow::{
    compute_order, run_policy, run_policy_with_faults, verify_faulty_outcome, Coflow, GreedyPolicy,
    Instance, OnlineRhoPolicy, OrderRule, ResilientPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::{FaultPlan, ScheduleTrace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frozen pre-refactor implementations. Do not edit: any divergence from
/// these is a behavior change in the engine port.
mod legacy {
    use coflow::sched::{ExecOptions, ScheduleOutcome};
    use coflow::{run_resilient, AlgorithmSpec, Coflow, FaultyOutcome, Instance};
    use coflow_lp::SimplexOptions;
    use coflow_matching::{bvn_decompose, BvnDecomposition, IntMatrix, Permutation};
    use coflow_netsim::{FaultPlan, FaultSim, Run, ScheduleTrace, SimError, Transfer};

    /// The instance's demands as dense matrices: the loops below index
    /// them by cell.
    fn dense(instance: &Instance) -> Vec<IntMatrix> {
        instance
            .demands()
            .map(|d| {
                let mut m = IntMatrix::zeros(d.dim());
                for (i, j, u) in d.nonzero_entries() {
                    m[(i, j)] = u;
                }
                m
            })
            .collect()
    }

    /// A decomposition's slots as permutations, the shape the loop below
    /// was written against (the decomposition is edge-indexed since).
    struct DenseSlots {
        slots: Vec<DenseSlot>,
    }

    struct DenseSlot {
        perm: Permutation,
        count: u64,
    }

    fn dense_slots(dec: &BvnDecomposition) -> DenseSlots {
        let slots = (0..dec.len())
            .map(|s| DenseSlot {
                perm: Permutation::new(dec.slot_pairs(s).map(|(_, j)| j).collect()),
                count: dec.count(s),
            })
            .collect();
        DenseSlots { slots }
    }

    /// The pre-refactor `execute_batches` (sched/mod.rs), verbatim minus
    /// obs calls and the parallel-precompute fan-out (the sequential path
    /// is the semantic reference, and the engine's only path).
    pub fn execute_batches(
        instance: &Instance,
        order: Vec<usize>,
        batches: &[Vec<usize>],
        opts: ExecOptions,
    ) -> ScheduleOutcome {
        let ExecOptions { backfill, rematch } = opts;
        let n = instance.len();
        let m = instance.ports();
        let releases = instance.releases();
        let mut fabric = FaultSim::new(
            instance.ports(),
            instance.demands(),
            &releases,
            FaultPlan::default(),
        );

        let mut pos = vec![usize::MAX; n];
        for (p, &k) in order.iter().enumerate() {
            pos[k] = p;
        }
        let mut pair_queue: Vec<Vec<usize>> = vec![Vec::new(); m * m];
        let mut pair_head: Vec<usize> = vec![0; m * m];
        for &k in &order {
            for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                pair_queue[i * m + j].push(k);
            }
        }

        let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut spare: Vec<Vec<usize>> = Vec::new();
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];

        for batch in batches.iter() {
            if batch.is_empty() {
                continue;
            }
            let batch_release = batch
                .iter()
                .filter(|&&k| fabric.remaining_total(k) > 0)
                .map(|&k| instance.coflow(k).release)
                .max();
            let Some(batch_release) = batch_release else {
                continue;
            };
            if batch_release > fabric.now() {
                fabric.advance_to(batch_release);
            }
            let batch_end_pos = batch.iter().map(|&k| pos[k]).max().unwrap();

            let dec = {
                let mut agg = IntMatrix::zeros(m);
                for &k in batch {
                    for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                        agg[(i, j)] += fabric.remaining(k, i, j);
                    }
                }
                if agg.is_zero() {
                    continue;
                }
                dense_slots(&bvn_decompose(m, agg.nonzero_entries()))
            };

            let mut slot_sequence: Vec<usize> = Vec::with_capacity(dec.slots.len());
            {
                let mut pending: Vec<usize> = (0..dec.slots.len()).collect();
                let mut rem: Vec<IntMatrix> = batch
                    .iter()
                    .map(|&k| {
                        let mut r = IntMatrix::zeros(instance.ports());
                        for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                            r[(i, j)] = fabric.remaining(k, i, j);
                        }
                        r
                    })
                    .collect();
                for (b_idx, _k) in batch.iter().enumerate() {
                    while !rem[b_idx].is_zero() {
                        let found = pending.iter().position(|&s| {
                            dec.slots[s]
                                .perm
                                .pairs()
                                .any(|(i, j)| rem[b_idx][(i, j)] > 0)
                        });
                        let Some(p_idx) = found else {
                            unreachable!("BvN coverage must clear every group coflow")
                        };
                        let s = pending.remove(p_idx);
                        let q = dec.slots[s].count;
                        for (i, j) in dec.slots[s].perm.pairs() {
                            let mut budget = q;
                            for r in rem.iter_mut() {
                                if budget == 0 {
                                    break;
                                }
                                let take = r[(i, j)].min(budget);
                                r[(i, j)] -= take;
                                budget -= take;
                            }
                        }
                        slot_sequence.push(s);
                    }
                }
                slot_sequence.extend(pending);
            }

            const REMATCH_CHUNK: u64 = 4;
            let chunked: Vec<(usize, u64)> = slot_sequence
                .into_iter()
                .flat_map(|slot_idx| {
                    let q = dec.slots[slot_idx].count;
                    if rematch && q > REMATCH_CHUNK {
                        let chunks = q.div_ceil(REMATCH_CHUNK);
                        (0..chunks)
                            .map(|c| {
                                let len = REMATCH_CHUNK.min(q - c * REMATCH_CHUNK);
                                (slot_idx, len)
                            })
                            .collect::<Vec<_>>()
                    } else {
                        vec![(slot_idx, q)]
                    }
                })
                .collect();

            for (slot_idx, chunk_len) in chunked {
                let slot = &dec.slots[slot_idx];
                let now = fabric.now();
                let eligible = |k: usize| {
                    instance.coflow(k).release <= now && (pos[k] <= batch_end_pos || backfill)
                };
                for (_, _, mut buf) in pairs.drain(..) {
                    buf.clear();
                    spare.push(buf);
                }
                if rematch {
                    src_used.fill(false);
                    dst_used.fill(false);
                }
                for (i, j) in slot.perm.pairs() {
                    let head = &mut pair_head[i * m + j];
                    let queue = &pair_queue[i * m + j];
                    while *head < queue.len() && fabric.remaining(queue[*head], i, j) == 0 {
                        *head += 1;
                    }
                    if *head == queue.len() {
                        continue;
                    }
                    let mut candidates = spare.pop().unwrap_or_default();
                    candidates.extend(
                        queue[*head..]
                            .iter()
                            .copied()
                            .filter(|&k| eligible(k) && fabric.remaining(k, i, j) > 0),
                    );
                    if candidates.is_empty() {
                        spare.push(candidates);
                    } else {
                        if rematch {
                            src_used[i] = true;
                            dst_used[j] = true;
                        }
                        pairs.push((i, j, candidates));
                    }
                }
                if rematch {
                    for &k in &order {
                        if !eligible(k) || fabric.remaining_total(k) == 0 {
                            continue;
                        }
                        for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                            if !src_used[i] && !dst_used[j] && fabric.remaining(k, i, j) > 0 {
                                src_used[i] = true;
                                dst_used[j] = true;
                                let mut candidates = spare.pop().unwrap_or_default();
                                candidates.extend(
                                    pair_queue[i * m + j]
                                        .iter()
                                        .copied()
                                        .filter(|&c| eligible(c) && fabric.remaining(c, i, j) > 0),
                                );
                                pairs.push((i, j, candidates));
                            }
                        }
                    }
                }
                if pairs.is_empty() {
                    fabric.advance_to(now + chunk_len);
                } else {
                    fabric.apply_run(&pairs, chunk_len).unwrap();
                }
            }
        }

        assert!(
            fabric.all_settled(),
            "legacy batch execution must deliver all demand"
        );
        let (trace, completions, ..) = fabric.finish();
        let completions: Vec<u64> = completions.into_iter().map(Option::unwrap).collect();
        let objective = instance.objective(&completions);
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor `run_online` (sched/online.rs), which re-sorted
    /// its priorities only when a coflow arrived, ported to re-sort when
    /// one completes too.
    pub fn run_online(instance: &Instance) -> ScheduleOutcome {
        let n = instance.len();
        let m = instance.ports();
        let mut remaining: Vec<IntMatrix> = dense(instance);
        let mut remaining_total: Vec<u64> = remaining.iter().map(IntMatrix::total).collect();
        let releases = instance.releases();
        let weights = instance.weights();
        let mut completions: Vec<u64> = releases.clone();
        let mut unfinished: usize = remaining_total.iter().filter(|&&t| t > 0).count();

        let mut events: Vec<(u64, usize)> = releases.iter().copied().zip(0..n).collect();
        events.sort_unstable();
        let mut next_event = 0usize;

        let mut active: Vec<usize> = Vec::new();
        let mut trace = ScheduleTrace::new(m);
        let mut t: u64 = 0;
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];
        let mut completed = false;

        while unfinished > 0 {
            let mut admitted = false;
            while next_event < events.len() && events[next_event].0 <= t {
                let k = events[next_event].1;
                next_event += 1;
                if remaining_total[k] > 0 {
                    active.push(k);
                    admitted = true;
                }
            }
            if admitted || completed {
                active.sort_by(|&a, &b| {
                    let ka = remaining[a].load() as f64 / weights[a];
                    let kb = remaining[b].load() as f64 / weights[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                });
                completed = false;
            }
            if active.is_empty() {
                t = events[next_event].0;
                continue;
            }

            let slot = t + 1;
            src_used.iter_mut().for_each(|b| *b = false);
            dst_used.iter_mut().for_each(|b| *b = false);
            let mut transfers: Vec<Transfer> = Vec::new();
            for &k in &active {
                for (i, j, _) in remaining[k].nonzero_entries() {
                    if !src_used[i] && !dst_used[j] {
                        src_used[i] = true;
                        dst_used[j] = true;
                        transfers.push(Transfer::new(i, j, k, 1).unwrap());
                    }
                }
            }
            debug_assert!(!transfers.is_empty(), "active coflows must be servable");
            for tr in &transfers {
                remaining[tr.coflow()][(tr.src(), tr.dst())] -= 1;
                remaining_total[tr.coflow()] -= 1;
                if remaining_total[tr.coflow()] == 0 {
                    completions[tr.coflow()] = slot;
                    unfinished -= 1;
                    completed = true;
                }
            }
            trace.push_run(Run {
                start: slot,
                duration: 1,
                transfers: transfers.into(),
            });
            active.retain(|&k| remaining_total[k] > 0);
            t = slot;
        }

        let objective = instance.objective(&completions);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&k| (completions[k], k));
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor `run_greedy` (sched/greedy.rs), verbatim.
    pub fn run_greedy(instance: &Instance, order: Vec<usize>) -> ScheduleOutcome {
        let m = instance.ports();
        let mut remaining: Vec<IntMatrix> = dense(instance);
        let mut remaining_total: Vec<u64> = remaining.iter().map(IntMatrix::total).collect();
        let releases = instance.releases();
        let mut completions: Vec<u64> = releases.clone();
        let mut unfinished: usize = remaining_total.iter().filter(|&&t| t > 0).count();

        let mut trace = ScheduleTrace::new(m);
        let mut t: u64 = 0;
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];

        while unfinished > 0 {
            let slot = t + 1;
            src_used.iter_mut().for_each(|b| *b = false);
            dst_used.iter_mut().for_each(|b| *b = false);
            let mut transfers: Vec<Transfer> = Vec::new();
            let mut matched = 0usize;
            for &k in &order {
                if remaining_total[k] == 0 || releases[k] >= slot {
                    continue;
                }
                if matched == m {
                    break;
                }
                for (i, j, _) in remaining[k].nonzero_entries() {
                    if !src_used[i] && !dst_used[j] {
                        src_used[i] = true;
                        dst_used[j] = true;
                        matched += 1;
                        transfers.push(Transfer::new(i, j, k, 1).unwrap());
                    }
                }
            }
            if transfers.is_empty() {
                let next_release = releases
                    .iter()
                    .enumerate()
                    .filter(|&(k, &r)| remaining_total[k] > 0 && r >= slot)
                    .map(|(_, &r)| r)
                    .min()
                    .unwrap();
                t = next_release;
                continue;
            }
            for tr in &transfers {
                remaining[tr.coflow()][(tr.src(), tr.dst())] -= 1;
                remaining_total[tr.coflow()] -= 1;
                if remaining_total[tr.coflow()] == 0 {
                    completions[tr.coflow()] = slot;
                    unfinished -= 1;
                }
            }
            trace.push_run(Run {
                start: slot,
                duration: 1,
                transfers: transfers.into(),
            });
            t = slot;
        }

        let objective = instance.objective(&completions);
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor `run_with_faults` (sched/recovery.rs), verbatim.
    pub fn run_with_faults(
        instance: &Instance,
        spec: &AlgorithmSpec,
        lp_opts: &SimplexOptions,
        plan: &FaultPlan,
    ) -> Result<FaultyOutcome, SimError> {
        let m = instance.ports();
        let mut sim = FaultSim::new(m, instance.demands(), &instance.releases(), plan.clone());
        let boundaries = plan.boundaries();
        let mut replans = 0usize;
        let mut tiers = Vec::new();

        while !sim.all_settled() {
            let now = sim.now();
            let mut residual_to_orig = Vec::new();
            let mut residual = Vec::new();
            for k in 0..instance.len() {
                if sim.is_cancelled(k) || sim.remaining_total(k) == 0 {
                    continue;
                }
                let c = instance.coflow(k);
                residual_to_orig.push(k);
                residual.push(
                    Coflow::new(c.id, sim.remaining_matrix(k).to_matrix())
                        .with_weight(c.weight)
                        .with_release(c.release.max(now)),
                );
            }
            if residual.is_empty() {
                sim.advance_to(now + 1);
                continue;
            }
            let residual_instance = Instance::new(m, residual);
            let planned = run_resilient(&residual_instance, spec, lp_opts);
            replans += 1;
            tiers.push(planned.tier);

            let mut trace = planned.outcome.trace;
            for run in &mut trace.runs {
                for t in run.transfers.iter_mut() {
                    let k = residual_to_orig[t.coflow()];
                    *t = Transfer::new(t.src(), t.dst(), k, t.units).unwrap();
                }
            }

            let stop = boundaries.iter().copied().find(|&b| b > now + 1);
            sim.execute_trace(&trace, stop)?;
        }

        let (executed, completions, blocked_units, blocked) = sim.finish();
        let objective = completions
            .iter()
            .zip(instance.coflows())
            .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
            .sum();
        Ok(FaultyOutcome {
            completions,
            executed,
            objective,
            replans,
            tiers,
            blocked_units,
            blocked,
        })
    }
}

/// Seeded random instance: `m` ports, `n` coflows, entries `0..6`,
/// releases `0..=max_release`, weights drawn from `{0.5, 1.0, …, 4.0}`.
fn seeded_instance(m: usize, n: usize, max_release: u64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let coflows = (0..n)
        .map(|id| {
            let data: Vec<u64> = (0..m * m).map(|_| rng.gen_range(0..6)).collect();
            let release = rng.gen_range(0..=max_release);
            let weight = rng.gen_range(1..=8) as f64 / 2.0;
            Coflow::new(id, IntMatrix::from_rows(m, data))
                .with_release(release)
                .with_weight(weight)
        })
        .collect();
    Instance::new(m, coflows)
}

/// `(slot, unit moves)` for every scheduled slot.
type SlotMoves = Vec<(u64, Vec<(usize, usize, usize)>)>;

/// The schedule a trace encodes, whatever the run boundaries.
fn slot_moves(trace: &ScheduleTrace) -> SlotMoves {
    let mut slots = Vec::new();
    trace.for_each_slot(|slot, moves| slots.push((slot, moves.to_vec())));
    slots
}

/// Every slot moves the same units.
fn assert_slots_identical(label: &str, new: &ScheduleOutcome, old: &ScheduleOutcome) {
    assert_eq!(
        slot_moves(&new.trace),
        slot_moves(&old.trace),
        "{}: slot moves diverged",
        label
    );
    assert_results_identical(label, new, old);
}

fn assert_results_identical(label: &str, new: &ScheduleOutcome, old: &ScheduleOutcome) {
    assert_eq!(
        new.completions, old.completions,
        "{}: completions diverged",
        label
    );
    assert_eq!(new.order, old.order, "{}: order diverged", label);
    assert_eq!(
        new.objective.to_bits(),
        old.objective.to_bits(),
        "{}: objective not bit-identical ({} vs {})",
        label,
        new.objective,
        old.objective
    );
}

/// Tentpole gate: `BvnBatchPolicy` through the engine reproduces the frozen
/// batch executor on every ordering rule × grouping × exec-option cell of a
/// seeded grid — including the rematch extension, which takes the chunked
/// code paths.
#[test]
fn bvn_policy_matches_frozen_batch_loop() {
    for (seed, m, n, max_release) in [
        (11u64, 2, 4, 0),
        (12, 3, 6, 6),
        (13, 4, 8, 10),
        (14, 5, 12, 4),
    ] {
        let inst = seeded_instance(m, n, max_release, seed);
        for rule in [OrderRule::Arrival, OrderRule::LoadOverWeight] {
            let order = compute_order(&inst, rule);
            for grouping in [false, true] {
                for (backfill, rematch) in
                    [(false, false), (true, false), (true, true), (false, true)]
                {
                    let opts = ExecOptions { backfill, rematch };
                    let new = run_with_order(&inst, order.clone(), grouping, opts);
                    let batches: Vec<Vec<usize>> = if grouping {
                        coflow::group_by_doubling(&inst, &order).groups
                    } else {
                        order.iter().map(|&k| vec![k]).collect()
                    };
                    let old = legacy::execute_batches(&inst, order.clone(), &batches, opts);
                    let label = format!(
                        "seed {} {:?} g={} bf={} rm={}",
                        seed, rule, grouping, backfill, rematch
                    );
                    assert_slots_identical(&label, &new, &old);
                }
            }
        }
    }
}

/// `OnlineRhoPolicy` schedules exactly what the online loop does, slot by
/// slot, re-sorting at the same arrivals and completions, including
/// arrival-heavy traces.
#[test]
fn online_policy_matches_frozen_loop() {
    for (seed, m, n, max_release) in [
        (21u64, 2, 5, 0),
        (22, 3, 8, 12),
        (23, 4, 10, 25),
        (24, 5, 14, 8),
        (25, 3, 1, 40),
    ] {
        let inst = seeded_instance(m, n, max_release, seed);
        let mut policy = OnlineRhoPolicy::new(&inst);
        let new = run_policy(&inst, &mut policy).expect("engine run");
        let old = legacy::run_online(&inst);
        assert_slots_identical(&format!("online seed {}", seed), &new, &old);
    }
}

/// `GreedyPolicy` schedules exactly what the frozen greedy loop does, slot
/// by slot.
#[test]
fn greedy_policy_matches_frozen_loop() {
    for (seed, m, n, max_release) in [
        (31u64, 2, 5, 0),
        (32, 3, 8, 12),
        (33, 4, 10, 25),
        (34, 5, 14, 8),
    ] {
        let inst = seeded_instance(m, n, max_release, seed);
        for rule in [OrderRule::Arrival, OrderRule::LoadOverWeight] {
            let order = compute_order(&inst, rule);
            let mut policy = GreedyPolicy::new(&inst, order.clone());
            let new = run_policy(&inst, &mut policy).expect("engine run");
            let old = legacy::run_greedy(&inst, order);
            assert_slots_identical(&format!("greedy seed {} {:?}", seed, rule), &new, &old);
        }
    }
}

/// `ResilientPolicy` through the fault-aware engine reproduces the frozen
/// recovery epoch loop on every observable: executed trace, completions,
/// objective bits, replans, tiers, blocked units and the blocked log.
#[test]
fn resilient_policy_matches_frozen_recovery_loop() {
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    let lp_opts = SimplexOptions::default();
    for (seed, m, n, max_release) in [(41u64, 2, 4, 0), (42, 3, 6, 6), (43, 4, 8, 10)] {
        let inst = seeded_instance(m, n, max_release, seed);
        for rate in [0.0, 0.3, 0.6] {
            let plan = FaultPlan::generate(m, n, 40, rate, seed.wrapping_mul(31));
            let mut policy = ResilientPolicy::new(spec, lp_opts.clone());
            let new = run_policy_with_faults(&inst, &mut policy, &plan).expect("engine run");
            let old = legacy::run_with_faults(&inst, &spec, &lp_opts, &plan).expect("legacy run");
            let label = format!("faults seed {} rate {}", seed, rate);
            assert_eq!(new.executed, old.executed, "{}: trace diverged", label);
            assert_eq!(new.completions, old.completions, "{}: completions", label);
            assert_eq!(
                new.objective.to_bits(),
                old.objective.to_bits(),
                "{}: objective bits",
                label
            );
            assert_eq!(new.replans, old.replans, "{}: replans", label);
            assert_eq!(new.tiers, old.tiers, "{}: tiers", label);
            assert_eq!(
                new.blocked_units, old.blocked_units,
                "{}: blocked units",
                label
            );
            assert_eq!(new.blocked, old.blocked, "{}: blocked log", label);
        }
    }
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..4, 1usize..5).prop_flat_map(|(m, n)| {
        let coflows = proptest::collection::vec(
            (proptest::collection::vec(0u64..5, m * m), 0u64..6, 1u64..4),
            n,
        );
        coflows.prop_map(move |specs| {
            let coflows = specs
                .into_iter()
                .enumerate()
                .map(|(id, (data, release, weight))| {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The newly composable cells: online-under-faults and
    /// greedy-under-faults settle every non-cancelled unit of demand under
    /// arbitrary generated fault plans, and their executed traces replay
    /// cleanly against the plan (matching constraints, link availability,
    /// release dates, exact delivery).
    #[test]
    fn online_and_greedy_under_faults_complete_surviving_demand(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
    ) {
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        let online = run_policy_with_faults(&inst, &mut OnlineRhoPolicy::new(&inst), &plan);
        prop_assert!(online.is_ok(), "online structural error: {:?}", online.err());
        let online = online.unwrap();
        let verdict = verify_faulty_outcome(&inst, &plan, &online);
        prop_assert!(verdict.is_ok(), "online: {}", verdict.err().unwrap_or_default());

        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        let greedy = run_policy_with_faults(&inst, &mut GreedyPolicy::new(&inst, order), &plan);
        prop_assert!(greedy.is_ok(), "greedy structural error: {:?}", greedy.err());
        let greedy = greedy.unwrap();
        let verdict = verify_faulty_outcome(&inst, &plan, &greedy);
        prop_assert!(verdict.is_ok(), "greedy: {}", verdict.err().unwrap_or_default());

        let any_survivor = (0..inst.len()).any(|k| {
            plan.cancellation(k).is_none() && inst.coflow(k).demand.total() > 0
        });
        for out in [&online, &greedy] {
            for (k, completion) in out.completions.iter().enumerate() {
                let cancelled = plan.cancellation(k).is_some();
                if !cancelled && inst.coflow(k).demand.total() > 0 {
                    prop_assert!(completion.is_some(), "surviving coflow {} never completed", k);
                }
            }
            // Epoch accounting is uniform across policies: whenever any
            // demand was actually served, at least one planning epoch is
            // charged, and tiers line up one-to-one with epochs.
            if any_survivor {
                prop_assert!(out.replans >= 1);
            }
            prop_assert_eq!(out.tiers.len(), out.replans);
        }
    }
}
