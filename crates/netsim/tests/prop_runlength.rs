//! Differential properties of run-length execution.
//!
//! The run-length executors must be *indistinguishable* from unit-slot
//! execution:
//!
//! * [`FaultSim::execute_trace`] (windowed, epoch-splitting) against
//!   [`FaultSim::execute_trace_slotwise`] (the literal per-slot reference):
//!   identical results (errors included), captured state — executed trace,
//!   blocked log, completions, remaining demand, cancellations — and
//!   `netsim.fault.*` counter deltas, under arbitrary fault plans, stop
//!   boundaries, and multi-epoch resumption;
//! * [`FaultSim::apply_run`] (held matchings, windowed with per-pair
//!   cursors, open windows served in bulk) against
//!   [`FaultSim::apply_run_slotwise`]: the same after every hold of a
//!   sequence, under generated plans, the empty plan and plans that only
//!   cancel, across fault windows, cancellations at the first slot of a
//!   hold or of a window inside it, a restore from a capture, and every
//!   structural fallback;
//! * on both paths, the executed trace is run-length: its runs are
//!   maximal, each transfer moves one unit per slot of its run, no port
//!   repeats within a run, and slot by slot it delivers exactly what
//!   [`FaultSim::step`] delivers along the slot-wise reference;
//! * on both paths, the blocked log is run-length: its runs are maximal
//!   and in order of their first slot, and slot by slot its units are, as
//!   a set, the `SlotOutcome::blocked` that [`FaultSim::step`] returns
//!   along the slot-wise reference;
//! * [`FaultSim::from_state`] restores a trace split into 1-slot runs and
//!   a blocked log of one entry per unit (as checkpoints written before
//!   the recorders merged slots hold them) to the same simulator as their
//!   merged form;
//! * [`ScheduleTrace::for_each_slot`] (reused-buffer expansion) against
//!   [`Run::slot_moves`] (allocating reference).

use coflow_matching::IntMatrix;
use coflow_netsim::{
    trace_stats, BlockedRun, BlockedUnits, Demand, FaultEvent, FaultPlan, FaultSim, Run,
    ScheduleTrace, SimError, SlotOutcome, Transfer,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// One slot and the `(src, dst, coflow)` units it moves.
type SlotMoves = (u64, Vec<(usize, usize, usize)>);

/// Tiny deterministic generator so cases are built from one shrinkable seed.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
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
                transfers.push(Transfer::new(i, j, k, units).unwrap());
            }
        }
        // Rarely duplicate an ingress onto another egress: a structural
        // PortMatchedTwice candidate that forces the slot-wise fallback.
        if m >= 3 && rng.below(8) == 0 {
            if let Some(t) = transfers.first().copied() {
                transfers.push(Transfer::new(t.src(), (t.dst() + 1) % m, t.coflow(), 1).unwrap());
            }
        }
        trace.push_run(Run {
            start: next_start,
            duration,
            transfers: transfers.into(),
        });
        next_start += duration + rng.below(4);
    }
    let demands: Vec<IntMatrix> = planned
        .iter()
        .map(|p| {
            let mut d = IntMatrix::zeros(m);
            for (i, j, v) in p.nonzero_entries() {
                d[(i, j)] = match rng.below(4) {
                    0 => v / 2, // under-covered: skips happen
                    1 => v + 1, // over-covered: demand strands
                    _ => v,
                };
            }
            d
        })
        .collect();
    let releases: Vec<u64> = (0..n)
        .map(|_| {
            if rng.below(4) == 0 {
                1 + rng.below(4)
            } else {
                0
            }
        })
        .collect();
    (trace, demands, releases)
}

/// Held by every executor call of this file, so the counter deltas each
/// call reads are its own: the obs registry is process-global and the
/// tests run on parallel threads.
static COUNTERS: Mutex<()> = Mutex::new(());

/// The `netsim.fault.blocked_units` and `netsim.fault.dropped_units`
/// deltas of one executor call.
type FaultCounts = [u64; 2];

/// Runs `f` — executor calls — alone, with recording on, and returns its
/// result and the fault counters it added.
fn counted<R>(f: impl FnOnce() -> R) -> (R, FaultCounts) {
    let _alone = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let read = || {
        let s = obs::snapshot();
        [
            s.counter("netsim.fault.blocked_units"),
            s.counter("netsim.fault.dropped_units"),
        ]
    };
    let before = read();
    let result = f();
    let after = read();
    (result, [after[0] - before[0], after[1] - before[1]])
}

/// Runs one trace replay on both sims and asserts that the results
/// (errors included), the fault counter deltas and the captured state —
/// clock, remaining demand, completions, cancellations, executed trace,
/// blocked units and log — agree. Returns `false` when both errored (no
/// further calls).
fn step_both(a: &mut FaultSim, b: &mut FaultSim, trace: &ScheduleTrace, stop: Option<u64>) -> bool {
    let (ra, ca) = counted(|| a.execute_trace(trace, stop));
    let (rb, cb) = counted(|| b.execute_trace_slotwise(trace, stop));
    assert_eq!(ra, rb, "results diverged (stop {:?})", stop);
    assert_eq!(ca, cb, "fault counters diverged (stop {:?})", stop);
    assert_eq!(a.capture(), b.capture(), "state diverged (stop {:?})", stop);
    ra.is_ok()
}

/// The `(src, dst, coflow)` list of a run's transfers.
fn moves_of(run: &Run) -> Vec<(usize, usize, usize)> {
    run.transfers
        .iter()
        .map(|t| (t.src(), t.dst(), t.coflow()))
        .collect()
}

/// The slots of `trace` that move a unit, with their moves.
fn busy_slots(trace: &ScheduleTrace) -> Vec<SlotMoves> {
    let mut slots = Vec::new();
    trace.for_each_slot(|slot, moves| {
        if !moves.is_empty() {
            slots.push((slot, moves.to_vec()));
        }
    });
    slots
}

/// Asserts that an executed trace is run-length: every run delivers, each
/// transfer moves one unit in every slot of its run, no port repeats
/// within a run, and no two adjacent runs could merge.
fn assert_runlength(trace: &ScheduleTrace) {
    for run in &trace.runs {
        assert!(!run.transfers.is_empty(), "run at {} is idle", run.start);
        let (mut src, mut dst) = (vec![false; trace.m], vec![false; trace.m]);
        for t in run.transfers.iter() {
            assert_eq!(t.units, run.duration, "run at {}: {:?}", run.start, t);
            assert!(
                !src[t.src()] && !dst[t.dst()],
                "run at {}: port reused",
                run.start
            );
            src[t.src()] = true;
            dst[t.dst()] = true;
        }
    }
    for w in trace.runs.windows(2) {
        let adjacent = w[0].start + w[0].duration == w[1].start;
        assert!(
            !adjacent || moves_of(&w[0]) != moves_of(&w[1]),
            "runs at {} and {} could merge",
            w[0].start,
            w[1].start
        );
    }
}

/// What [`FaultSim::step`] returned along a slot-wise execution, up to its
/// first structural error.
#[derive(Debug, Default)]
struct Stepped {
    /// The slots that deliver a unit, with what each delivered.
    delivered: Vec<SlotMoves>,
    /// The slots that strand a unit, with what each stranded, in the order
    /// `step` served them.
    blocked: Vec<SlotMoves>,
    /// The slot `step` refused, if it refused one. Units it stranded there
    /// before the refusal are in the simulator's log, not in `blocked`.
    refused: Option<u64>,
}

impl Stepped {
    /// Steps `sim` through one slot of `moves`; false once it refuses.
    fn step(&mut self, sim: &mut FaultSim, moves: &[(usize, usize, usize)]) -> bool {
        let slot = sim.now() + 1;
        let Ok(SlotOutcome {
            delivered, blocked, ..
        }) = sim.step(moves)
        else {
            self.refused = Some(slot);
            return false;
        };
        if !delivered.is_empty() {
            self.delivered.push((slot, delivered));
        }
        if !blocked.is_empty() {
            self.blocked.push((slot, blocked));
        }
        true
    }

    /// The stranding slots with their units sorted, for a comparison as
    /// sets slot by slot.
    fn blocked_sets(&self) -> Vec<SlotMoves> {
        let mut slots = self.blocked.clone();
        slots
            .iter_mut()
            .for_each(|(_, units)| units.sort_unstable());
        slots
    }
}

/// Replays `trace` one [`FaultSim::step`] per slot, as the slot-wise
/// reference does, up to the first error.
fn stepped_trace(sim: &mut FaultSim, trace: &ScheduleTrace) -> Stepped {
    let (stepped, _) = counted(|| {
        let mut stepped = Stepped::default();
        for run in &trace.runs {
            if run.start > sim.now() + 1 {
                sim.advance_to(run.start - 1);
            }
            for moves in run.slot_moves() {
                if !stepped.step(sim, &moves) {
                    return stepped;
                }
            }
        }
        stepped
    });
    stepped
}

/// Executes `holds` one [`FaultSim::step`] per slot, picking each slot's
/// moves as [`FaultSim::apply_run_slotwise`] does, up to the first error.
fn stepped_holds(sim: &mut FaultSim, m: usize, holds: &[Hold]) -> Stepped {
    let n = sim.completion_times().len();
    let mut stepped = Stepped::default();
    for hold in holds {
        if hold.gap > 0 {
            sim.advance_to(sim.now() + hold.gap);
        }
        for _ in 0..hold.duration {
            let moves: Vec<(usize, usize, usize)> = hold
                .pairs
                .iter()
                .filter_map(|&(i, j, ref prio)| {
                    let live = |k: usize| i >= m || j >= m || k >= n || sim.remaining(k, i, j) > 0;
                    prio.iter().find(|&&k| live(k)).map(|&k| (i, j, k))
                })
                .collect();
            if !counted(|| stepped.step(sim, &moves)).0 {
                return stepped;
            }
        }
    }
    stepped
}

/// The units of a blocked log before slot `before` (all when `None`),
/// grouped by slot with each slot's units sorted.
fn blocked_sets(log: &[BlockedRun], before: Option<u64>) -> Vec<SlotMoves> {
    let mut slots: Vec<SlotMoves> = Vec::new();
    for (slot, run) in BlockedUnits::new(log) {
        if before.is_some_and(|b| slot >= b) {
            break;
        }
        let unit = (run.src(), run.dst(), run.coflow());
        match slots.last_mut() {
            Some((last, units)) if *last == slot => units.push(unit),
            _ => slots.push((slot, vec![unit])),
        }
    }
    slots
        .iter_mut()
        .for_each(|(_, units)| units.sort_unstable());
    slots
}

/// Asserts that a blocked log is run-length: every run holds a unit, runs
/// come in order of their first slot, and no run could absorb another
/// (same pair and coflow, starting the slot after it ends).
fn assert_blocked_runs(log: &[BlockedRun]) {
    for w in log.windows(2) {
        assert!(w[0].start <= w[1].start, "runs out of order: {:?}", w);
    }
    for a in log {
        assert!(a.slots > 0, "empty run {:?}", a);
        let key = |r: &BlockedRun| (r.src(), r.dst(), r.coflow());
        let next = log
            .iter()
            .find(|b| key(b) == key(a) && b.start == a.start + a.slots);
        assert!(next.is_none(), "{:?} and {:?} could merge", a, next);
    }
}

/// A matching held for `duration` slots after `gap` idle slots.
struct Hold {
    gap: u64,
    pairs: Vec<(usize, usize, Vec<usize>)>,
    duration: u64,
}

/// The demands of `dense` as the executors and the validator take them.
fn sparse(dense: &[IntMatrix]) -> Vec<Demand> {
    dense.iter().map(Demand::from).collect()
}

/// Builds demands, releases, a sequence of holds and a fault plan for
/// them. Priority lists hold up to three coflows with a few units each, so
/// heads drain in the middle of holds. Some holds last zero slots or hold
/// no pairs. Rarely a hold shares a port between two pairs or lists an
/// out-of-range port or coflow, and positive releases leave listed coflows
/// unreleased: each pushes the hold onto the slot-wise fallback.
///
/// The plan depends on `kind`. Kind 1 is the empty plan, under which every
/// safe hold is served in bulk. Kind 2 only cancels — at the first slot of
/// a hold, at a slot inside one (the first slot of a window the hold
/// enters), at slot 0, and a coflow outside the instance — so every pair
/// is open and a window is served in bulk unless a cancellation is due at
/// its first slot. Any other kind is `FaultPlan::generate` over the holds'
/// horizon plus cancellations at the first slot of a hold and at slot 0,
/// and events on ports and coflows outside the instance.
fn build_holds(
    m: usize,
    n: usize,
    nholds: usize,
    seed: u64,
    kind: usize,
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
        .map(|_| {
            if rng.below(4) == 0 {
                1 + rng.below(6)
            } else {
                0
            }
        })
        .collect();
    let mut holds = Vec::new();
    let mut starts = Vec::new();
    let mut now = 0;
    for _ in 0..nholds {
        let gap = if rng.below(3) == 0 { rng.below(3) } else { 0 };
        let duration = if rng.below(8) == 0 {
            0
        } else {
            1 + rng.below(8)
        };
        let mut pairs = Vec::new();
        if rng.below(8) != 0 {
            let shift = rng.below(m as u64) as usize;
            for i in 0..m {
                if rng.below(4) == 0 {
                    continue;
                }
                let prio = (0..=rng.below(3))
                    .map(|_| rng.below(n as u64) as usize)
                    .collect();
                pairs.push((i, (i + shift) % m, prio));
            }
        }
        match rng.below(12) {
            0 if !pairs.is_empty() => {
                let (i, j, prio) = pairs[0].clone();
                pairs.push((i, (j + 1) % m, prio)); // shared ingress
            }
            1 => pairs.push((m, 0, vec![0])), // ingress out of range
            2 => pairs.push((0, m + 1, vec![0])), // egress out of range
            3 => pairs.push((m - 1, m - 1, vec![n])), // unknown coflow
            _ => {}
        }
        starts.push(now + gap + 1);
        now += gap + duration;
        holds.push(Hold {
            gap,
            pairs,
            duration,
        });
    }
    if kind == 1 {
        return (demands, releases, holds, FaultPlan::default());
    }
    let mut plan = if kind == 2 {
        // A cancellation inside a hold cuts it into two windows.
        let h = rng.below(nholds as u64) as usize;
        let at = starts[h] + rng.below(holds[h].duration.max(1));
        FaultPlan::new(vec![FaultEvent::CoflowCancelled {
            coflow: rng.below(n as u64) as usize,
            at,
        }])
    } else {
        FaultPlan::generate(m, n, now.max(1), rate, fseed)
    };
    let h = rng.below(nholds as u64) as usize;
    plan.events.push(FaultEvent::CoflowCancelled {
        coflow: rng.below(n as u64) as usize,
        at: starts[h],
    });
    if rng.below(3) == 0 {
        let coflow = rng.below(n as u64) as usize;
        plan.events
            .push(FaultEvent::CoflowCancelled { coflow, at: 0 });
    }
    if rng.below(3) == 0 {
        let start = 1 + rng.below(now.max(1));
        if kind != 2 {
            plan.events.push(FaultEvent::IngressOutage {
                port: m + 1,
                start,
                end: start + 2,
            });
        }
        plan.events.push(FaultEvent::CoflowCancelled {
            coflow: n + 1,
            at: start,
        });
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
        let mut a = FaultSim::new(m, &sparse(&demands), &releases, plan.clone());
        let mut b = FaultSim::new(m, &sparse(&demands), &releases, plan.clone());
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
        let mut c = FaultSim::new(m, &sparse(&demands), &releases, plan);
        let stepped = stepped_trace(&mut c, &trace);
        let (ta, ca, ba, la) = a.finish();
        let (tb, cb, bb, lb) = b.finish();
        prop_assert_eq!(&ta, &tb, "executed traces diverged");
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(ba, bb);
        prop_assert_eq!(&la, &lb);
        prop_assert_eq!(trace_stats(&ta), trace_stats(&tb));
        assert_runlength(&ta);
        prop_assert_eq!(busy_slots(&ta), stepped.delivered.clone());
        assert_blocked_runs(&la);
        prop_assert_eq!(blocked_sets(&la, stepped.refused), stepped.blocked_sets());
    }

    /// A held matching executes identically run-length and slot by slot:
    /// after every hold of a sequence, the same result (errors included)
    /// and the same captured state — remaining matrices, cancellation
    /// flags, completions, clock, executed trace, blocked units and log.
    /// The run-length side is restored from a capture before hold
    /// `restore`, so its cancellation cursor restarts mid-run. Two kinds
    /// of plan in four leave every pair open (see [`build_holds`]), so the
    /// bulk path serves most of their windows.
    #[test]
    fn apply_run_matches_slotwise(
        m in 2usize..5,
        n in 1usize..5,
        nholds in 1usize..9,
        seed in 0u64..1 << 32,
        kind in 0usize..4,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
        restore in 0usize..9,
    ) {
        let (demands, releases, holds, plan) =
            build_holds(m, n, nholds, seed, kind, rate, fseed);
        let mut a = FaultSim::new(m, &sparse(&demands), &releases, plan.clone());
        let mut b = FaultSim::new(m, &sparse(&demands), &releases, plan.clone());
        for (h, hold) in holds.iter().enumerate() {
            if h == restore {
                a = FaultSim::from_state(a.capture()).expect("a captured state restores");
            }
            if hold.gap > 0 {
                a.advance_to(a.now() + hold.gap);
                b.advance_to(b.now() + hold.gap);
            }
            let (ra, ca) = counted(|| a.apply_run(&hold.pairs, hold.duration));
            let (rb, cb) = counted(|| b.apply_run_slotwise(&hold.pairs, hold.duration));
            prop_assert_eq!(&ra, &rb, "hold {}", h);
            prop_assert_eq!(ca, cb, "hold {}: fault counters", h);
            prop_assert_eq!(a.capture(), b.capture(), "hold {}", h);
            if ra.is_err() {
                break;
            }
        }
        let mut c = FaultSim::new(m, &sparse(&demands), &releases, plan);
        let stepped = stepped_holds(&mut c, m, &holds);
        let state = a.capture();
        assert_runlength(&state.executed);
        prop_assert_eq!(busy_slots(&state.executed), stepped.delivered.clone());
        assert_blocked_runs(&state.blocked_log);
        let blocked = blocked_sets(&state.blocked_log, stepped.refused);
        prop_assert_eq!(blocked, stepped.blocked_sets());
    }

    /// A restored executed trace and blocked log are recorded anew: split
    /// into 1-slot runs, as checkpoints written before the recorders
    /// merged slots hold them — the blocked log one entry per unit, in the
    /// order `step` served the units — they restore to the same simulator
    /// as their merged form, and execution continues from both alike.
    #[test]
    fn split_executed_trace_restores_merged(
        m in 2usize..5,
        n in 1usize..5,
        nholds in 2usize..9,
        seed in 0u64..1 << 32,
        kind in 0usize..4,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
        cut in 1usize..8,
    ) {
        let (demands, releases, holds, plan) =
            build_holds(m, n, nholds, seed, kind, rate, fseed);
        let cut = cut.min(holds.len() - 1);
        let mut a = FaultSim::new(m, &sparse(&demands), &releases, plan.clone());
        let hold_all = |sim: &mut FaultSim, holds: &[Hold]| {
            for hold in holds {
                sim.advance_to(sim.now() + hold.gap);
                if counted(|| sim.apply_run(&hold.pairs, hold.duration)).0.is_err() {
                    return false;
                }
            }
            true
        };
        if !hold_all(&mut a, &holds[..cut]) {
            return;
        }
        let merged = a.capture();
        let mut c = FaultSim::new(m, &sparse(&demands), &releases, plan);
        let stepped = stepped_holds(&mut c, m, &holds[..cut]);
        let mut split = merged.clone();
        split.blocked_log = stepped
            .blocked
            .iter()
            .flat_map(|(slot, units)| {
                units.iter().map(|&(i, j, k)| BlockedRun::new(*slot, 1, i, j, k).unwrap())
            })
            .collect();
        split.executed = ScheduleTrace::new(m);
        merged.executed.for_each_slot(|slot, moves| {
            let transfers = moves.iter().map(|&(i, j, k)| Transfer::new(i, j, k, 1).unwrap());
            split.executed.push_run(Run {
                start: slot,
                duration: 1,
                transfers: transfers.collect(),
            });
        });
        let mut from_split = FaultSim::from_state(split).expect("split trace restores");
        let mut from_merged = FaultSim::from_state(merged.clone()).expect("merged trace restores");
        prop_assert_eq!(&from_split.capture(), &merged);
        hold_all(&mut from_split, &holds[cut..]);
        hold_all(&mut from_merged, &holds[cut..]);
        prop_assert_eq!(from_split.capture(), from_merged.capture());
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

}

/// A run booking 3 units on one pair in 1 slot, after a valid 1-slot run,
/// is refused on both paths before any of its slots executes — whether
/// its ids are valid, its coflow is unknown, or its ingress is off the
/// fabric.
#[test]
fn overbooked_runs_are_refused_on_both_paths() {
    let demands = [Demand::from_flows(2, [(0, 1, 3)]).unwrap()];
    for (src, dst, coflow) in [(0, 1, 0), (0, 1, 1), (2, 1, 0)] {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([Transfer::new(0, 1, 0, 1).unwrap()]),
        });
        trace.push_run(Run {
            start: 2,
            duration: 1,
            transfers: Box::new([Transfer::new(src, dst, coflow, 3).unwrap()]),
        });
        let mut a = FaultSim::new(2, &demands, &[0], FaultPlan::default());
        let mut b = a.clone();
        assert!(!step_both(&mut a, &mut b, &trace, None));
        let (err, _) = counted(|| a.execute_trace(&trace, None));
        assert_eq!(
            err.unwrap_err(),
            SimError::PairOverCapacity {
                start: 2,
                src,
                dst,
                units: 3,
                capacity: 1
            }
        );
        assert_eq!((a.now(), a.remaining_total(0)), (1, 2));
    }
}

/// A run that reaches back before the clock executes only its slots after
/// it, on both paths: with the clock at 3, a never-executed run of 3 units
/// over slots 2–4 delivers the 1 unit of slot 4.
#[test]
fn slots_at_or_before_the_clock_count_as_done() {
    let demands = [Demand::from_flows(2, [(0, 1, 3)]).unwrap()];
    let mut trace = ScheduleTrace::new(2);
    trace.push_run(Run {
        start: 2,
        duration: 3,
        transfers: Box::new([Transfer::new(0, 1, 0, 3).unwrap()]),
    });
    let mut a = FaultSim::new(2, &demands, &[0], FaultPlan::default());
    a.advance_to(3);
    let mut b = a.clone();
    assert!(step_both(&mut a, &mut b, &trace, None));
    assert_eq!((a.now(), a.remaining_total(0)), (4, 2));
    let (executed, ..) = a.finish();
    assert_eq!(busy_slots(&executed), vec![(4, vec![(0, 1, 0)])]);
}

/// A captured executed run that books more units on a pair than it lasts,
/// overlaps the run before it or ends after the clock is refused instead
/// of replayed short or overlapped by the next recorded slot.
#[test]
fn from_state_refuses_overbooked_and_overlapping_runs() {
    let demands = [Demand::from_flows(2, [(0, 1, 3)]).unwrap()];
    let mut sim = FaultSim::new(2, &demands, &[0], FaultPlan::default());
    sim.advance_to(4);
    let run = |start: u64, duration: u64, units: u64| Run {
        start,
        duration,
        transfers: Box::new([Transfer::new(0, 1, 0, units).unwrap()]),
    };
    let mut state = sim.capture();
    state.executed.runs = vec![run(1, 1, 2)];
    let err = FaultSim::from_state(state).unwrap_err();
    assert!(err.message.contains("books 2 units on (0, 1)"), "{}", err);
    let mut state = sim.capture();
    state.executed.runs = vec![run(1, 2, 2), run(2, 1, 1)];
    let err = FaultSim::from_state(state).unwrap_err();
    assert!(err.message.contains("run at 2 starts before"), "{}", err);
    let mut state = sim.capture();
    state.executed.runs = vec![run(4, 2, 2)];
    let err = FaultSim::from_state(state).unwrap_err();
    assert!(
        err.message.contains("run at 4 ends after the clock (4)"),
        "{}",
        err
    );
    let mut state = sim.capture();
    state.executed.runs = vec![run(3, 2, 2)];
    assert!(
        FaultSim::from_state(state).is_ok(),
        "a run ending at the clock"
    );
}
