//! Differential properties of run-length execution.
//!
//! The run-length executors must be *indistinguishable* from unit-slot
//! execution:
//!
//! * [`FaultSim::execute_trace`] (windowed, epoch-splitting) against
//!   [`FaultSim::execute_trace_slotwise`] (the literal per-slot reference):
//!   identical outcomes, executed trace, blocked log, completions, and
//!   remaining state — under arbitrary fault plans, stop boundaries, and
//!   multi-epoch resumption;
//! * [`FaultSim::apply_run`] (held matchings, windowed with per-pair
//!   cursors) against [`FaultSim::apply_run_slotwise`]: identical results
//!   and captured state after every hold of a sequence, across fault
//!   windows, cancellations at a hold's first slot, a restore from a
//!   capture, and every structural fallback;
//! * [`ScheduleTrace::for_each_slot`] (reused-buffer expansion) against
//!   [`Run::slot_moves`] (allocating reference);
//! * [`Fabric::apply_run`] (run-length clean path) against [`SlotSim`]
//!   replaying the recorded trace slot by slot.

use coflow_matching::IntMatrix;
use coflow_netsim::{
    trace_stats, Fabric, FaultEvent, FaultPlan, FaultSim, Run, ScheduleTrace, SlotSim, Transfer,
};
use proptest::prelude::*;

/// One slot and the `(src, dst, coflow)` units it moves.
type SlotMoves = (u64, Vec<(usize, usize, usize)>);

/// Tiny deterministic generator so cases are built from one shrinkable seed.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Builds a valid planned trace (runs of partial matchings, serialized
/// multi-coflow transfers per pair, idle gaps) plus demands and releases.
/// Demands deliberately under- and over-cover the planned units so the
/// executor's "already delivered" skip path is exercised; occasional
/// positive releases and duplicated ingress ports push runs onto the
/// slot-wise fallback so both paths are compared there too.
fn build_case(
    m: usize,
    n: usize,
    nruns: usize,
    seed: u64,
) -> (ScheduleTrace, Vec<IntMatrix>, Vec<u64>) {
    let mut rng = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut trace = ScheduleTrace::new(m);
    let mut planned = vec![IntMatrix::zeros(m); n];
    let mut next_start = 1 + rng.below(3);
    for _ in 0..nruns {
        let duration = 1 + rng.below(6);
        let mut transfers = Vec::new();
        // A random partial matching: j = (i + shift) mod m over a subset.
        let shift = rng.below(m as u64) as usize;
        for i in 0..m {
            if rng.below(4) == 0 {
                continue;
            }
            let j = (i + shift) % m;
            let mut budget = duration;
            for _ in 0..=rng.below(2) {
                if budget == 0 {
                    break;
                }
                let k = rng.below(n as u64) as usize;
                let units = 1 + rng.below(budget);
                budget -= units;
                planned[k][(i, j)] += units;
                transfers.push(Transfer { src: i, dst: j, coflow: k, units });
            }
        }
        // Rarely duplicate an ingress onto another egress: a structural
        // PortMatchedTwice candidate that forces the slot-wise fallback.
        if m >= 3 && rng.below(8) == 0 {
            if let Some(t) = transfers.first().copied() {
                transfers.push(Transfer {
                    src: t.src,
                    dst: (t.dst + 1) % m,
                    coflow: t.coflow,
                    units: 1,
                });
            }
        }
        trace.push_run(Run { start: next_start, duration, transfers });
        next_start += duration + rng.below(4);
    }
    let demands: Vec<IntMatrix> = planned
        .iter()
        .map(|p| {
            let mut d = IntMatrix::zeros(m);
            for (i, j, v) in p.nonzero_entries() {
                d[(i, j)] = match rng.below(4) {
                    0 => v / 2,     // under-covered: skips happen
                    1 => v + 1,     // over-covered: demand strands
                    _ => v,
                };
            }
            d
        })
        .collect();
    let releases: Vec<u64> = (0..n)
        .map(|_| if rng.below(4) == 0 { 1 + rng.below(4) } else { 0 })
        .collect();
    (trace, demands, releases)
}

/// Runs one executor call on both sims and asserts every observable piece
/// of state agrees. Returns `false` when both errored (no further calls).
fn step_both(
    a: &mut FaultSim,
    b: &mut FaultSim,
    trace: &ScheduleTrace,
    stop: Option<u64>,
) -> bool {
    let ra = a.execute_trace(trace, stop);
    let rb = b.execute_trace_slotwise(trace, stop);
    let live = match (&ra, &rb) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x, y, "per-slot outcomes diverged (stop {:?})", stop);
            true
        }
        (Err(x), Err(y)) => {
            assert_eq!(x, y, "errors diverged (stop {:?})", stop);
            false
        }
        (x, y) => panic!("result kinds diverged (stop {:?}): {:?} vs {:?}", stop, x, y),
    };
    assert_eq!(a.now(), b.now());
    assert_eq!(a.completion_times(), b.completion_times());
    assert_eq!(a.blocked_units(), b.blocked_units());
    assert_eq!(a.blocked_log(), b.blocked_log());
    for k in 0..a.completion_times().len() {
        assert_eq!(a.remaining_matrix(k), b.remaining_matrix(k), "coflow {}", k);
        assert_eq!(a.is_cancelled(k), b.is_cancelled(k), "coflow {}", k);
    }
    live
}

/// A matching held for `duration` slots after `gap` idle slots.
struct Hold {
    gap: u64,
    pairs: Vec<(usize, usize, Vec<usize>)>,
    duration: u64,
}

/// Builds demands, releases, a sequence of holds and a fault plan for
/// them. Priority lists hold up to three coflows with a few units each, so
/// heads drain in the middle of holds. Some holds last zero slots or hold
/// no pairs. Rarely a hold shares a port between two pairs or lists an
/// out-of-range port or coflow, and positive releases leave listed coflows
/// unreleased: each pushes the hold onto the slot-wise fallback. The plan
/// is `FaultPlan::generate` over the holds' horizon plus cancellations at
/// the first slot of a hold and at slot 0, and events on ports and
/// coflows outside the instance.
fn build_holds(
    m: usize,
    n: usize,
    nholds: usize,
    seed: u64,
    rate: f64,
    fseed: u64,
) -> (Vec<IntMatrix>, Vec<u64>, Vec<Hold>, FaultPlan) {
    let mut rng = Lcg(seed.wrapping_add(0x2545f4914f6cdd1d));
    let demands: Vec<IntMatrix> = (0..n)
        .map(|_| {
            let mut d = IntMatrix::zeros(m);
            for i in 0..m {
                for j in 0..m {
                    if rng.below(3) == 0 {
                        d[(i, j)] = 1 + rng.below(4);
                    }
                }
            }
            d
        })
        .collect();
    let releases: Vec<u64> = (0..n)
        .map(|_| if rng.below(4) == 0 { 1 + rng.below(6) } else { 0 })
        .collect();
    let mut holds = Vec::new();
    let mut starts = Vec::new();
    let mut now = 0;
    for _ in 0..nholds {
        let gap = if rng.below(3) == 0 { rng.below(3) } else { 0 };
        let duration = if rng.below(8) == 0 { 0 } else { 1 + rng.below(8) };
        let mut pairs = Vec::new();
        if rng.below(8) != 0 {
            let shift = rng.below(m as u64) as usize;
            for i in 0..m {
                if rng.below(4) == 0 {
                    continue;
                }
                let prio = (0..=rng.below(3)).map(|_| rng.below(n as u64) as usize).collect();
                pairs.push((i, (i + shift) % m, prio));
            }
        }
        match rng.below(12) {
            0 if !pairs.is_empty() => {
                let (i, j, prio) = pairs[0].clone();
                pairs.push((i, (j + 1) % m, prio)); // shared ingress
            }
            1 => pairs.push((m, 0, vec![0])),         // ingress out of range
            2 => pairs.push((0, m + 1, vec![0])),     // egress out of range
            3 => pairs.push((m - 1, m - 1, vec![n])), // unknown coflow
            _ => {}
        }
        starts.push(now + gap + 1);
        now += gap + duration;
        holds.push(Hold { gap, pairs, duration });
    }
    let mut plan = FaultPlan::generate(m, n, now.max(1), rate, fseed);
    let h = rng.below(nholds as u64) as usize;
    plan.events.push(FaultEvent::CoflowCancelled {
        coflow: rng.below(n as u64) as usize,
        at: starts[h],
    });
    if rng.below(3) == 0 {
        let coflow = rng.below(n as u64) as usize;
        plan.events.push(FaultEvent::CoflowCancelled { coflow, at: 0 });
    }
    if rng.below(3) == 0 {
        let start = 1 + rng.below(now.max(1));
        plan.events.push(FaultEvent::IngressOutage { port: m + 1, start, end: start + 2 });
        plan.events.push(FaultEvent::CoflowCancelled { coflow: n + 1, at: start });
    }
    (demands, releases, holds, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Windowed execution is byte-identical to slot-wise execution: same
    /// outcomes, same executed `ScheduleTrace`, same `TraceStats`, same
    /// blocked log and completion/cancellation state — for any plan,
    /// whether run whole, to a single stop boundary, or epoch by epoch
    /// (the recovery loop's access pattern).
    #[test]
    fn runlength_matches_slotwise(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
        mode in 0usize..3,
    ) {
        let (trace, demands, releases) = build_case(m, n, nruns, seed);
        let horizon = trace.makespan().max(1);
        let plan = FaultPlan::generate(m, n, horizon, rate, fseed);
        let mut a = FaultSim::new(m, &demands, &releases, plan.clone());
        let mut b = FaultSim::new(m, &demands, &releases, plan.clone());
        match mode {
            0 => {
                step_both(&mut a, &mut b, &trace, None);
            }
            1 => {
                let stop = plan.boundaries().first().copied().unwrap_or(horizon / 2 + 1);
                if step_both(&mut a, &mut b, &trace, Some(stop)) {
                    step_both(&mut a, &mut b, &trace, None);
                }
            }
            _ => {
                // Epoch-by-epoch, exactly like the recovery loop.
                for boundary in plan.boundaries() {
                    if boundary <= a.now() + 1 {
                        continue;
                    }
                    if !step_both(&mut a, &mut b, &trace, Some(boundary)) {
                        return;
                    }
                }
                step_both(&mut a, &mut b, &trace, None);
            }
        }
        let (ta, ca, ba) = a.finish();
        let (tb, cb, bb) = b.finish();
        prop_assert_eq!(&ta, &tb, "executed traces diverged");
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(ba, bb);
        prop_assert_eq!(trace_stats(&ta), trace_stats(&tb));
    }

    /// A held matching executes identically run-length and slot by slot:
    /// after every hold of a sequence, the same result (errors included)
    /// and the same captured state — remaining matrices, cancellation
    /// flags, completions, clock, executed trace, blocked units and log.
    /// The run-length side is restored from a capture before hold
    /// `restore`, so its cancellation cursor restarts mid-run.
    #[test]
    fn apply_run_matches_slotwise(
        m in 2usize..5,
        n in 1usize..5,
        nholds in 1usize..9,
        seed in 0u64..1 << 32,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
        restore in 0usize..9,
    ) {
        let (demands, releases, holds, plan) = build_holds(m, n, nholds, seed, rate, fseed);
        let mut a = FaultSim::new(m, &demands, &releases, plan.clone());
        let mut b = FaultSim::new(m, &demands, &releases, plan);
        for (h, hold) in holds.iter().enumerate() {
            if h == restore {
                a = FaultSim::from_state(a.capture()).expect("a captured state restores");
            }
            if hold.gap > 0 {
                a.advance_to(a.now() + hold.gap);
                b.advance_to(b.now() + hold.gap);
            }
            let ra = a.apply_run(&hold.pairs, hold.duration);
            let rb = b.apply_run_slotwise(&hold.pairs, hold.duration);
            prop_assert_eq!(&ra, &rb, "hold {}", h);
            prop_assert_eq!(a.capture(), b.capture(), "hold {}", h);
            if ra.is_err() {
                break;
            }
        }
    }

    /// The reused-buffer slot expansion visits exactly the slots and moves
    /// that the allocating `slot_moves` reference produces.
    #[test]
    fn for_each_slot_matches_slot_moves(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let (trace, _, _) = build_case(m, n, nruns, seed);
        let mut expected: Vec<SlotMoves> = Vec::new();
        for run in &trace.runs {
            for (o, moves) in run.slot_moves().iter().enumerate() {
                expected.push((run.start + o as u64, moves.clone()));
            }
        }
        let mut seen: Vec<SlotMoves> = Vec::new();
        trace.for_each_slot(|slot, moves| seen.push((slot, moves.to_vec())));
        prop_assert_eq!(seen, expected);
    }

    /// Clean-path equivalence: completion times from the run-length
    /// `Fabric` agree with a literal `SlotSim` replay of its own trace.
    #[test]
    fn fabric_runs_match_unit_slot_replay(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let (planned, demands, _) = build_case(m, n, nruns, seed);
        let releases = vec![0u64; n];
        let mut fabric = Fabric::new(m, &demands, &releases);
        for run in &planned.runs {
            if run.start > fabric.now() + 1 {
                fabric.advance_to(run.start - 1);
            }
            // Regroup the run into per-pair priority lists.
            let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            for t in &run.transfers {
                match pairs.iter_mut().find(|p| p.0 == t.src && p.1 == t.dst) {
                    Some(p) => p.2.push(t.coflow),
                    None => pairs.push((t.src, t.dst, vec![t.coflow])),
                }
            }
            // Skip runs that would violate the matching precondition.
            let mut src = vec![false; m];
            let mut dst = vec![false; m];
            if !pairs.iter().all(|&(i, j, _)| {
                let ok = !src[i] && !dst[j];
                src[i] = true;
                dst[j] = true;
                ok
            }) {
                continue;
            }
            fabric.apply_run(&pairs, run.duration);
        }
        let (trace, completions) = fabric.finish_partial();
        let mut slots = SlotSim::new(m, &demands, &releases);
        trace.for_each_slot(|slot, moves| {
            if slot > slots.now() + 1 {
                // Idle gap between runs.
                while slots.now() + 1 < slot {
                    slots.step(&[]);
                }
            }
            slots.step(moves);
        });
        prop_assert_eq!(completions, slots.completion_times().to_vec());
        prop_assert_eq!(trace_stats(&trace).total_units, trace.total_units());
    }
}
