//! Deterministic fault injection for the switch fabric.
//!
//! A [`FaultPlan`] is a seedable, reproducible set of [`FaultEvent`]s —
//! port outages over slot windows, degraded links that serve only every
//! `stride`-th slot, and coflow cancellations. [`FaultSim`] executes a
//! planned [`ScheduleTrace`] slot by slot against the plan: units whose
//! port or link is down are *stranded* (left in the remaining demand for a
//! later replan), cancelled coflows stop being served, and structural
//! violations of the problem's constraints — which indicate a scheduler
//! bug, not a fault — surface as [`SimError`].

use crate::trace::{Run, ScheduleTrace, Transfer};
use coflow_matching::IntMatrix;
use std::fmt;

/// A structural violation found while executing a schedule under faults.
///
/// These are *scheduler* bugs (or corrupted traces), distinct from the
/// injected faults, which are absorbed by stranding demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An ingress or egress port was matched twice within one slot.
    PortMatchedTwice {
        /// The offending slot.
        slot: u64,
        /// The reused port.
        port: usize,
        /// True for an ingress port, false for an egress port.
        ingress: bool,
    },
    /// A move references a coflow index outside the instance.
    UnknownCoflow {
        /// The offending index.
        coflow: usize,
    },
    /// A move references a port outside the fabric.
    PortOutOfRange {
        /// The offending port index.
        port: usize,
        /// Fabric size.
        ports: usize,
    },
    /// A coflow was served in a slot its release date forbids.
    ReleaseViolated {
        /// The offending slot.
        slot: u64,
        /// The coflow.
        coflow: usize,
        /// Its release date.
        release: u64,
    },
    /// A trace run starts at or before the simulator's current time.
    TimeReversed {
        /// The run's start slot.
        start: u64,
        /// The simulator clock it would rewind.
        now: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PortMatchedTwice { slot, port, ingress } => write!(
                f,
                "slot {}: {} port {} matched twice",
                slot,
                if *ingress { "ingress" } else { "egress" },
                port
            ),
            SimError::UnknownCoflow { coflow } => {
                write!(f, "move references unknown coflow {}", coflow)
            }
            SimError::PortOutOfRange { port, ports } => {
                write!(f, "port {} outside fabric of {} ports", port, ports)
            }
            SimError::ReleaseViolated { slot, coflow, release } => write!(
                f,
                "slot {}: coflow {} served before its release date {}",
                slot, coflow, release
            ),
            SimError::TimeReversed { start, now } => {
                write!(f, "run starts at slot {} but the clock is already at {}", start, now)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One injected fault. Slot windows are inclusive on both ends and use the
/// paper's 1-indexed slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Ingress `port` sends nothing during `[start, end]`.
    IngressOutage {
        /// The downed ingress.
        port: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
    },
    /// Egress `port` receives nothing during `[start, end]`.
    EgressOutage {
        /// The downed egress.
        port: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
    },
    /// Link `(src, dst)` is degraded during `[start, end]`: it carries a
    /// unit only in slots where `(slot - start) % stride == 0`.
    LinkDegraded {
        /// Ingress of the degraded link.
        src: usize,
        /// Egress of the degraded link.
        dst: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
        /// Serve-every-`stride` period (`≥ 2` to have any effect).
        stride: u64,
    },
    /// Coflow `coflow` is cancelled at slot `at`: from that slot on its
    /// remaining demand no longer needs (or is allowed) to be served. A
    /// coflow that already completed is unaffected.
    CoflowCancelled {
        /// The cancelled coflow.
        coflow: usize,
        /// First slot at which it is gone.
        at: u64,
    },
}

/// A deterministic, replayable set of fault events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Knobs for [`FaultPlan::adversarial`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdversarialConfig {
    /// Correlated ports to take down on *each* side (ingress and egress).
    pub ports: usize,
    /// Outage window length in slots.
    pub window: u64,
    /// First affected slot (1-indexed, like all fault windows).
    pub start: u64,
}

/// SplitMix64 — tiny deterministic generator so plans are seedable without
/// pulling an RNG dependency into the simulator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo ≤ hi`.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

impl FaultPlan {
    /// A plan with the given events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Generates a reproducible plan for an `m`-port fabric with `n`
    /// coflows over `horizon` slots. Each ingress and each egress goes down
    /// with probability `rate` for a window of up to a quarter of the
    /// horizon; each port pair drawn for degradation trials is degraded
    /// with probability `rate`; each coflow is cancelled with probability
    /// `rate / 2`. The same `(m, n, horizon, rate, seed)` always yields the
    /// same plan.
    pub fn generate(m: usize, n: usize, horizon: u64, rate: f64, seed: u64) -> Self {
        let horizon = horizon.max(1);
        let max_len = (horizon / 4).max(1);
        let mut rng = SplitMix64(seed);
        let mut events = Vec::new();
        let window = |rng: &mut SplitMix64| {
            let start = rng.range_u64(1, horizon);
            let end = (start + rng.range_u64(1, max_len) - 1).min(horizon);
            (start, end)
        };
        for port in 0..m {
            if rng.next_f64() < rate {
                let (start, end) = window(&mut rng);
                events.push(FaultEvent::IngressOutage { port, start, end });
            }
            if rng.next_f64() < rate {
                let (start, end) = window(&mut rng);
                events.push(FaultEvent::EgressOutage { port, start, end });
            }
        }
        for _ in 0..m {
            if rng.next_f64() < rate {
                let src = rng.range_u64(0, m as u64 - 1) as usize;
                let dst = rng.range_u64(0, m as u64 - 1) as usize;
                let (start, end) = window(&mut rng);
                let stride = rng.range_u64(2, 4);
                events.push(FaultEvent::LinkDegraded { src, dst, start, end, stride });
            }
        }
        for coflow in 0..n {
            if rng.next_f64() < rate / 2.0 {
                let at = rng.range_u64(1, horizon);
                events.push(FaultEvent::CoflowCancelled { coflow, at });
            }
        }
        FaultPlan { events }
    }

    /// Generates an *adversarial* plan for the chaos harness: instead of
    /// seeded-random outages, it takes down exactly the ports the schedule
    /// can least afford to lose. The target is the heaviest coflow by
    /// weighted bottleneck load `w_k · ρ(D^{(k)})` (ties to the lowest id);
    /// the plan is a correlated outage of its `cfg.ports` busiest ingress
    /// and egress ports for the window `[cfg.start, cfg.start + cfg.window
    /// - 1]`, so the victim loses its whole bottleneck at once rather than
    /// one link at a time. Deterministic — no RNG; the worst-window search
    /// in the harness sweeps `cfg.start` over candidate boundaries.
    pub fn adversarial(demands: &[IntMatrix], weights: &[f64], cfg: &AdversarialConfig) -> Self {
        assert_eq!(demands.len(), weights.len());
        let Some(victim) = (0..demands.len()).max_by(|&a, &b| {
            let score = |k: usize| {
                let d = &demands[k];
                let rho = d
                    .row_sums()
                    .into_iter()
                    .chain(d.col_sums())
                    .max()
                    .unwrap_or(0);
                weights[k] * rho as f64
            };
            score(a).total_cmp(&score(b)).then(b.cmp(&a))
        }) else {
            return FaultPlan::default();
        };
        let end = cfg.start + cfg.window.max(1) - 1;
        let top_ports = |loads: Vec<u64>| -> Vec<usize> {
            let mut ranked: Vec<usize> = (0..loads.len()).filter(|&p| loads[p] > 0).collect();
            ranked.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
            ranked.truncate(cfg.ports.max(1));
            ranked
        };
        let mut events = Vec::new();
        for port in top_ports(demands[victim].row_sums()) {
            events.push(FaultEvent::IngressOutage { port, start: cfg.start, end });
        }
        for port in top_ports(demands[victim].col_sums()) {
            events.push(FaultEvent::EgressOutage { port, start: cfg.start, end });
        }
        FaultPlan { events }
    }

    /// Slots at which the fault state changes (window starts, the slot
    /// after window ends, cancellation slots), sorted and deduplicated.
    /// Between two consecutive boundaries the fault state is constant, so
    /// these are the natural replanning epochs.
    pub fn boundaries(&self) -> Vec<u64> {
        let mut b: Vec<u64> = self
            .events
            .iter()
            .flat_map(|e| match *e {
                FaultEvent::IngressOutage { start, end, .. }
                | FaultEvent::EgressOutage { start, end, .. }
                | FaultEvent::LinkDegraded { start, end, .. } => vec![start, end + 1],
                FaultEvent::CoflowCancelled { at, .. } => vec![at],
            })
            .collect();
        b.sort_unstable();
        b.dedup();
        b
    }

    /// True when ingress `port` can send in `slot`.
    pub fn ingress_up(&self, port: usize, slot: u64) -> bool {
        !self.events.iter().any(|e| matches!(
            *e,
            FaultEvent::IngressOutage { port: p, start, end } if p == port && (start..=end).contains(&slot)
        ))
    }

    /// True when egress `port` can receive in `slot`.
    pub fn egress_up(&self, port: usize, slot: u64) -> bool {
        !self.events.iter().any(|e| matches!(
            *e,
            FaultEvent::EgressOutage { port: p, start, end } if p == port && (start..=end).contains(&slot)
        ))
    }

    /// True when link `(src, dst)` can carry a unit in `slot`: both ports
    /// up and every degradation window covering the slot permits it.
    pub fn pair_open(&self, src: usize, dst: usize, slot: u64) -> bool {
        if !self.ingress_up(src, slot) || !self.egress_up(dst, slot) {
            return false;
        }
        self.events.iter().all(|e| match *e {
            FaultEvent::LinkDegraded { src: s, dst: d, start, end, stride } => {
                s != src || d != dst || !(start..=end).contains(&slot) || (slot - start).is_multiple_of(stride.max(1))
            }
            _ => true,
        })
    }

    /// The cancellation slot of `coflow`, if the plan cancels it.
    pub fn cancellation(&self, coflow: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CoflowCancelled { coflow: k, at } if k == coflow => Some(at),
                _ => None,
            })
            .min()
    }
}

/// What happened in one executed slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotOutcome {
    /// The slot number.
    pub slot: u64,
    /// Units actually delivered (one entry per unit move).
    pub delivered: Vec<(usize, usize, usize)>,
    /// Planned units stranded by an outage or degradation.
    pub blocked: Vec<(usize, usize, usize)>,
    /// Planned units dropped because their coflow was cancelled.
    pub dropped: Vec<(usize, usize, usize)>,
}

/// One planned unit denied by a fault: the forensic record behind the
/// flight recorder's `FaultBlocked` events and the starvation detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedSlot {
    /// The slot in which service was denied.
    pub slot: u64,
    /// Ingress of the blocked pair.
    pub src: usize,
    /// Egress of the blocked pair.
    pub dst: usize,
    /// The coflow whose planned unit was stranded.
    pub coflow: usize,
}

/// Cap on the retained blocked log; [`FaultSim::blocked_units`] keeps
/// counting past it, so aggregate accounting stays exact.
const MAX_BLOCKED_LOG: usize = 1 << 16;

/// Fault state of one port pair over one epoch window. Outages are
/// constant within a window by construction of [`FaultPlan::boundaries`];
/// degraded links keep their `(start, stride)` phase so only the stride
/// test remains per slot.
enum PairState {
    Open,
    Closed,
    Strided(Vec<(u64, u64)>),
}

/// Slot-by-slot executor that applies a [`FaultPlan`] while replaying
/// planned schedules, stranding blocked demand for later replans.
#[derive(Clone, Debug)]
pub struct FaultSim {
    m: usize,
    remaining: Vec<IntMatrix>,
    remaining_total: Vec<u64>,
    releases: Vec<u64>,
    completion: Vec<Option<u64>>,
    last_activity: Vec<u64>,
    cancelled: Vec<bool>,
    now: u64,
    plan: FaultPlan,
    executed: ScheduleTrace,
    blocked_units: u64,
    blocked_log: Vec<BlockedSlot>,
    blocked_log_dropped: u64,
    /// Port-occupancy scratch reused by every [`FaultSim::step`]; not part
    /// of the captured state.
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
}

impl FaultSim {
    /// Creates a fault-aware simulator over the instance data.
    pub fn new(m: usize, demands: &[IntMatrix], releases: &[u64], plan: FaultPlan) -> Self {
        assert_eq!(demands.len(), releases.len());
        let remaining_total: Vec<u64> = demands.iter().map(IntMatrix::total).collect();
        let completion = remaining_total
            .iter()
            .zip(releases)
            .map(|(&tot, &r)| if tot == 0 { Some(r) } else { None })
            .collect();
        FaultSim {
            m,
            remaining: demands.to_vec(),
            remaining_total,
            releases: releases.to_vec(),
            completion,
            last_activity: vec![0; demands.len()],
            cancelled: vec![false; demands.len()],
            now: 0,
            plan,
            executed: ScheduleTrace::new(m),
            blocked_units: 0,
            blocked_log: Vec::new(),
            blocked_log_dropped: 0,
            src_used: vec![false; m],
            dst_used: vec![false; m],
        }
    }

    /// Current time (end of the last processed slot).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The fault plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Remaining demand of coflow `k` on pair `(i, j)`.
    pub fn remaining(&self, k: usize, i: usize, j: usize) -> u64 {
        self.remaining[k][(i, j)]
    }

    /// Remaining demand matrix of coflow `k`.
    pub fn remaining_matrix(&self, k: usize) -> &IntMatrix {
        &self.remaining[k]
    }

    /// Remaining total units of coflow `k`.
    pub fn remaining_total(&self, k: usize) -> u64 {
        self.remaining_total[k]
    }

    /// Completion slots (`None` while unfinished or cancelled).
    pub fn completion_times(&self) -> &[Option<u64>] {
        &self.completion
    }

    /// True when coflow `k` has been cancelled.
    pub fn is_cancelled(&self, k: usize) -> bool {
        self.cancelled[k]
    }

    /// Total planned units stranded by faults so far.
    pub fn blocked_units(&self) -> u64 {
        self.blocked_units
    }

    /// Per-unit forensic log of fault-denied service, in slot order
    /// (bounded; see [`FaultSim::blocked_log_dropped`]).
    pub fn blocked_log(&self) -> &[BlockedSlot] {
        &self.blocked_log
    }

    /// Blocked-log entries discarded past the retention cap.
    pub fn blocked_log_dropped(&self) -> u64 {
        self.blocked_log_dropped
    }

    /// True when every coflow is either complete or cancelled.
    pub fn all_settled(&self) -> bool {
        self.completion
            .iter()
            .zip(&self.cancelled)
            .all(|(c, &x)| c.is_some() || x)
    }

    /// Advances the clock to `t ≥ now` without serving anything, applying
    /// any cancellations that take effect in the skipped slots.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "cannot move time backwards");
        self.now = t;
        self.apply_cancellations();
    }

    fn apply_cancellations(&mut self) {
        self.apply_cancellations_at(self.now + 1);
    }

    /// Applies every cancellation effective at or before `slot` (a coflow
    /// cancelled `at` is gone from slot `at` on).
    fn apply_cancellations_at(&mut self, slot: u64) {
        for k in 0..self.cancelled.len() {
            if self.cancelled[k] || self.completion[k].is_some() {
                continue;
            }
            if let Some(at) = self.plan.cancellation(k) {
                if at <= slot {
                    self.cancelled[k] = true;
                    self.remaining_total[k] = 0;
                    self.remaining[k] = IntMatrix::zeros(self.m);
                }
            }
        }
    }

    /// Executes one slot of planned unit moves under the fault plan.
    ///
    /// Blocked and cancelled units are absorbed (stranded / dropped); only
    /// structural violations — port reuse, unknown coflows, release
    /// violations — error. Moves whose demand is already gone (delivered by
    /// an earlier replan or backfill) are skipped silently.
    pub fn step(&mut self, moves: &[(usize, usize, usize)]) -> Result<SlotOutcome, SimError> {
        let slot = self.now + 1;
        // Cancellations effective at this slot fire before service.
        self.apply_cancellations();
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let mut out = SlotOutcome {
            slot,
            ..SlotOutcome::default()
        };
        for &(i, j, k) in moves {
            if i >= self.m {
                return Err(SimError::PortOutOfRange { port: i, ports: self.m });
            }
            if j >= self.m {
                return Err(SimError::PortOutOfRange { port: j, ports: self.m });
            }
            if k >= self.remaining.len() {
                return Err(SimError::UnknownCoflow { coflow: k });
            }
            if self.src_used[i] {
                return Err(SimError::PortMatchedTwice { slot, port: i, ingress: true });
            }
            if self.dst_used[j] {
                return Err(SimError::PortMatchedTwice { slot, port: j, ingress: false });
            }
            self.src_used[i] = true;
            self.dst_used[j] = true;
            if self.cancelled[k] {
                out.dropped.push((i, j, k));
                continue;
            }
            if self.releases[k] >= slot {
                return Err(SimError::ReleaseViolated {
                    slot,
                    coflow: k,
                    release: self.releases[k],
                });
            }
            if self.remaining[k][(i, j)] == 0 {
                continue; // already delivered by an earlier replan
            }
            if !self.plan.pair_open(i, j, slot) {
                self.blocked_units += 1;
                if self.blocked_log.len() < MAX_BLOCKED_LOG {
                    self.blocked_log.push(BlockedSlot { slot, src: i, dst: j, coflow: k });
                } else {
                    self.blocked_log_dropped += 1;
                }
                out.blocked.push((i, j, k));
                continue;
            }
            self.remaining[k][(i, j)] -= 1;
            self.remaining_total[k] -= 1;
            self.last_activity[k] = slot;
            if self.remaining_total[k] == 0 {
                self.completion[k] = Some(slot);
            }
            out.delivered.push((i, j, k));
        }
        obs::counter_add("netsim.fault.blocked_units", out.blocked.len() as u64);
        obs::counter_add("netsim.fault.dropped_units", out.dropped.len() as u64);
        if !out.delivered.is_empty() {
            let transfers = out
                .delivered
                .iter()
                .map(|&(src, dst, coflow)| Transfer { src, dst, coflow, units: 1 })
                .collect();
            self.executed.push_run(Run {
                start: slot,
                duration: 1,
                transfers,
            });
        }
        self.now = slot;
        Ok(out)
    }

    /// Replays `trace` from the current time, stopping before slot
    /// `stop_before` (exclusive) when given. Slots the trace leaves idle
    /// are skipped by advancing the clock. Returns the per-slot outcomes of
    /// the executed prefix.
    ///
    /// Runs are advanced run-length: each run is split into windows at the
    /// plan's fault epochs ([`FaultPlan::boundaries`]), each port pair is
    /// classified once per window (open / closed / stride-degraded), and
    /// the per-slot work drops to O(active transfers) with no per-slot
    /// allocation or fault-plan scan. The executed trace, outcomes, blocked
    /// log, and counters are identical to slot-by-slot execution
    /// ([`FaultSim::execute_trace_slotwise`]); runs that could trip a
    /// structural [`SimError`] fall back to the slot-wise path so error
    /// slots and partial state match exactly.
    ///
    /// With `stop_before = Some(b)` the clock always ends at `b - 1` (or
    /// later, if it already was); with `None` it ends at the trace's
    /// makespan — so callers make progress even when every planned unit is
    /// blocked.
    pub fn execute_trace(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        self.execute_trace_impl(trace, stop_before, false)
    }

    /// Literal slot-by-slot replay — the reference executor the run-length
    /// path is differentially tested against. Byte-identical outputs to
    /// [`FaultSim::execute_trace`], just slower.
    pub fn execute_trace_slotwise(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        self.execute_trace_impl(trace, stop_before, true)
    }

    fn execute_trace_impl(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
        force_slotwise: bool,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        let mut outcomes = Vec::new();
        let boundaries = self.plan.boundaries();
        'runs: for run in &trace.runs {
            if let Some(b) = stop_before {
                if run.start >= b {
                    break;
                }
            }
            if run.start + run.duration <= self.now + 1 {
                continue; // entirely in the past (already executed)
            }
            if run.start > self.now + 1 {
                self.advance_to(run.start - 1);
            }
            if run.start <= self.now && run.start + run.duration <= self.now + 1 {
                return Err(SimError::TimeReversed { start: run.start, now: self.now });
            }
            let first = self.now + 1; // done prefixes of partial runs skipped
            if force_slotwise || !self.run_fast(run, first, stop_before, &boundaries, &mut outcomes) {
                if self.run_slotwise(run, stop_before, &mut outcomes)? {
                    break 'runs;
                }
                continue;
            }
            if let Some(b) = stop_before {
                if run.start + run.duration > b {
                    break 'runs; // the stop boundary fell inside this run
                }
            }
        }
        // Land exactly on the epoch boundary (or the trace end) so the
        // caller's clock advances even if everything was blocked or idle.
        let target = match stop_before {
            Some(b) => (b - 1).max(self.now),
            None => trace.makespan().max(self.now),
        };
        if target > self.now {
            self.advance_to(target);
        }
        Ok(outcomes)
    }

    /// The original per-slot replay of one run. Returns `Ok(true)` when the
    /// `stop_before` boundary was reached (caller stops consuming runs).
    fn run_slotwise(
        &mut self,
        run: &Run,
        stop_before: Option<u64>,
        outcomes: &mut Vec<SlotOutcome>,
    ) -> Result<bool, SimError> {
        let slots = run.slot_moves();
        for (o, moves) in slots.iter().enumerate() {
            let slot = run.start + o as u64;
            if slot <= self.now {
                continue; // partially executed run: skip the done prefix
            }
            if let Some(b) = stop_before {
                if slot >= b {
                    return Ok(true);
                }
            }
            outcomes.push(self.step(moves)?);
        }
        Ok(false)
    }

    /// Run-length replay of one run. Returns `false` (having executed
    /// nothing) when the run is not eligible for the fast path — a
    /// structural violation is possible and the slot-wise path must
    /// reproduce its exact error slot — and `true` after executing the
    /// run's slots in `[first, stop_before)`.
    fn run_fast(
        &mut self,
        run: &Run,
        first: u64,
        stop_before: Option<u64>,
        boundaries: &[u64],
        outcomes: &mut Vec<SlotOutcome>,
    ) -> bool {
        let n = self.remaining.len();
        // Per-pair serialized transfer segments: transfer `t` on pair `p`
        // owns the contiguous within-run offsets [a, b) after the units of
        // earlier transfers on the same pair (exactly `Run::slot_moves`).
        let mut pairs: Vec<(usize, usize, u64)> = Vec::new(); // (src, dst, cum units)
        let mut segs: Vec<(usize, u64, u64, usize)> = Vec::new(); // (pair, a, b, coflow)
        for t in &run.transfers {
            if t.src >= self.m || t.dst >= self.m || t.coflow >= n {
                return false; // PortOutOfRange / UnknownCoflow possible
            }
            if self.releases[t.coflow] >= first {
                return false; // ReleaseViolated possible in early slots
            }
            let p = match pairs.iter().position(|&(i, j, _)| i == t.src && j == t.dst) {
                Some(p) => p,
                None => {
                    pairs.push((t.src, t.dst, 0));
                    pairs.len() - 1
                }
            };
            let a = pairs[p].2;
            pairs[p].2 += t.units;
            segs.push((p, a, a + t.units, t.coflow));
        }
        // Distinct pairs sharing a port co-occur in the run's first slot:
        // PortMatchedTwice is possible, so leave the run to the reference.
        let mut src_owner = vec![usize::MAX; self.m];
        let mut dst_owner = vec![usize::MAX; self.m];
        for (p, &(i, j, _)) in pairs.iter().enumerate() {
            if src_owner[i] != usize::MAX || dst_owner[j] != usize::MAX {
                return false;
            }
            src_owner[i] = p;
            dst_owner[j] = p;
        }

        let mut last = run.start + run.duration - 1;
        if let Some(b) = stop_before {
            last = last.min(b - 1);
        }
        if first > last {
            return true; // nothing left of the run before the boundary
        }

        // Fault state is constant between consecutive plan boundaries
        // (except stride-degraded links, which are re-checked per slot), so
        // the run splits into windows at the epochs that intersect it.
        let mut bidx = boundaries.partition_point(|&x| x <= first);
        let mut w0 = first;
        let mut pair_state: Vec<PairState> = Vec::with_capacity(pairs.len());
        while w0 <= last {
            let w1 = if bidx < boundaries.len() && boundaries[bidx] <= last {
                let end = boundaries[bidx] - 1;
                bidx += 1;
                end
            } else {
                last
            };
            // Cancellations fire on boundaries, so applying them at the
            // window start covers every slot of the window.
            self.apply_cancellations_at(w0);
            pair_state.clear();
            for &(i, j, _) in &pairs {
                pair_state.push(if !self.plan.ingress_up(i, w0) || !self.plan.egress_up(j, w0) {
                    PairState::Closed
                } else {
                    let degs: Vec<(u64, u64)> = self
                        .plan
                        .events
                        .iter()
                        .filter_map(|e| match *e {
                            FaultEvent::LinkDegraded { src, dst, start, end, stride }
                                if src == i && dst == j && (start..=end).contains(&w0) =>
                            {
                                Some((start, stride.max(1)))
                            }
                            _ => None,
                        })
                        .collect();
                    if degs.is_empty() {
                        PairState::Open
                    } else {
                        PairState::Strided(degs)
                    }
                });
            }
            // Only segments whose offsets intersect the window matter; they
            // keep the listed transfer order, so each slot's moves come out
            // exactly as `Run::slot_moves` lists them.
            let lo = w0 - run.start;
            let hi = w1 - run.start;
            let active: Vec<(usize, usize, usize, usize, u64, u64)> = segs
                .iter()
                .filter(|&&(_, a, b, _)| a <= hi && b > lo)
                .map(|&(p, a, b, k)| {
                    let (i, j, _) = pairs[p];
                    (p, i, j, k, a, b)
                })
                .collect();
            for slot in w0..=w1 {
                let o = slot - run.start;
                let mut out = SlotOutcome { slot, ..SlotOutcome::default() };
                for &(p, i, j, k, a, b) in &active {
                    if o < a || o >= b {
                        continue;
                    }
                    if self.cancelled[k] {
                        out.dropped.push((i, j, k));
                        continue;
                    }
                    if self.remaining[k][(i, j)] == 0 {
                        continue; // already delivered by an earlier replan
                    }
                    let open = match &pair_state[p] {
                        PairState::Open => true,
                        PairState::Closed => false,
                        PairState::Strided(degs) => degs
                            .iter()
                            .all(|&(start, stride)| (slot - start).is_multiple_of(stride)),
                    };
                    if !open {
                        self.blocked_units += 1;
                        if self.blocked_log.len() < MAX_BLOCKED_LOG {
                            self.blocked_log.push(BlockedSlot { slot, src: i, dst: j, coflow: k });
                        } else {
                            self.blocked_log_dropped += 1;
                        }
                        out.blocked.push((i, j, k));
                        continue;
                    }
                    self.remaining[k][(i, j)] -= 1;
                    self.remaining_total[k] -= 1;
                    self.last_activity[k] = slot;
                    if self.remaining_total[k] == 0 {
                        self.completion[k] = Some(slot);
                    }
                    out.delivered.push((i, j, k));
                }
                obs::counter_add("netsim.fault.blocked_units", out.blocked.len() as u64);
                obs::counter_add("netsim.fault.dropped_units", out.dropped.len() as u64);
                if !out.delivered.is_empty() {
                    let transfers = out
                        .delivered
                        .iter()
                        .map(|&(src, dst, coflow)| Transfer { src, dst, coflow, units: 1 })
                        .collect();
                    self.executed.push_run(Run { start: slot, duration: 1, transfers });
                }
                self.now = slot;
                outcomes.push(out);
            }
            w0 = w1 + 1;
        }
        true
    }

    /// Captures the complete simulator state as plain data (see
    /// [`crate::snapshot::FaultSimState`]). `capture` + [`FaultSim::from_state`]
    /// round-trips bit-identically: the restored simulator produces the
    /// same [`SlotOutcome`]s, completions, and executed trace as the
    /// original for any subsequent move sequence.
    pub fn capture(&self) -> crate::snapshot::FaultSimState {
        crate::snapshot::FaultSimState {
            m: self.m,
            remaining: self.remaining.clone(),
            remaining_total: self.remaining_total.clone(),
            releases: self.releases.clone(),
            completion: self.completion.clone(),
            last_activity: self.last_activity.clone(),
            cancelled: self.cancelled.clone(),
            now: self.now,
            plan: self.plan.clone(),
            executed: self.executed.clone(),
            blocked_units: self.blocked_units,
            blocked_log: self.blocked_log.clone(),
            blocked_log_dropped: self.blocked_log_dropped,
        }
    }

    /// Rebuilds a simulator from captured state, validating dimensions.
    pub fn from_state(
        state: crate::snapshot::FaultSimState,
    ) -> Result<FaultSim, crate::snapshot::SnapshotError> {
        let n = state.releases.len();
        let bad = |msg: &str| Err(crate::snapshot::SnapshotError::new(msg.to_string()));
        if state.remaining.len() != n
            || state.remaining_total.len() != n
            || state.completion.len() != n
            || state.last_activity.len() != n
            || state.cancelled.len() != n
        {
            return bad("per-coflow vectors disagree on coflow count");
        }
        if state.remaining.iter().any(|d| d.dim() != state.m) {
            return bad("residual demand matrix width disagrees with 'm'");
        }
        if state.executed.m != state.m {
            return bad("executed trace fabric width disagrees with 'm'");
        }
        Ok(FaultSim {
            m: state.m,
            remaining: state.remaining,
            remaining_total: state.remaining_total,
            releases: state.releases,
            completion: state.completion,
            last_activity: state.last_activity,
            cancelled: state.cancelled,
            now: state.now,
            plan: state.plan,
            executed: state.executed,
            blocked_units: state.blocked_units,
            blocked_log: state.blocked_log,
            blocked_log_dropped: state.blocked_log_dropped,
            src_used: vec![false; state.m],
            dst_used: vec![false; state.m],
        })
    }

    /// Finishes execution, returning the executed trace (1-slot runs of
    /// delivered units), completion slots (`None` = cancelled before
    /// completion), and the count of fault-stranded planned units.
    pub fn finish(self) -> (ScheduleTrace, Vec<Option<u64>>, u64) {
        (self.executed, self.completion, self.blocked_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(units: u64) -> IntMatrix {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = units;
        d
    }

    #[test]
    fn plan_generation_is_deterministic() {
        let a = FaultPlan::generate(8, 10, 100, 0.5, 42);
        let b = FaultPlan::generate(8, 10, 100, 0.5, 42);
        assert_eq!(a, b);
        let c = FaultPlan::generate(8, 10, 100, 0.5, 43);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.events.is_empty(), "rate 0.5 over 8 ports should fire");
    }

    #[test]
    fn outage_windows_gate_pairs() {
        let plan = FaultPlan::new(vec![
            FaultEvent::IngressOutage { port: 0, start: 3, end: 5 },
            FaultEvent::EgressOutage { port: 1, start: 10, end: 10 },
        ]);
        assert!(plan.pair_open(0, 1, 2));
        assert!(!plan.pair_open(0, 1, 3));
        assert!(!plan.pair_open(0, 1, 5));
        assert!(plan.pair_open(0, 1, 6));
        assert!(!plan.pair_open(0, 1, 10));
        assert!(plan.pair_open(1, 0, 4), "other ingress unaffected");
        assert_eq!(plan.boundaries(), vec![3, 6, 10, 11]);
    }

    #[test]
    fn degraded_link_serves_every_stride() {
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegraded {
            src: 0,
            dst: 1,
            start: 4,
            end: 9,
            stride: 3,
        }]);
        let open: Vec<u64> = (1..=11).filter(|&s| plan.pair_open(0, 1, s)).collect();
        assert_eq!(open, vec![1, 2, 3, 4, 7, 10, 11]);
    }

    #[test]
    fn blocked_units_are_stranded_not_lost() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 2 }]);
        let mut sim = FaultSim::new(2, &[demand(3)], &[0], plan);
        // Slots 1 and 2 blocked, 3..5 deliver.
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(sim.blocked_units(), 2);
        assert_eq!(sim.completion_times(), &[Some(5)]);
        let (trace, times, blocked) = sim.finish();
        assert_eq!(times, vec![Some(5)]);
        assert_eq!(blocked, 2);
        assert_eq!(trace.total_units(), 3);
        assert_eq!(trace.runs.len(), 3, "only delivering slots are recorded");
    }

    #[test]
    fn blocked_log_records_each_denied_unit() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 2 }]);
        let mut sim = FaultSim::new(2, &[demand(3)], &[0], plan);
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(
            sim.blocked_log(),
            &[
                BlockedSlot { slot: 1, src: 0, dst: 1, coflow: 0 },
                BlockedSlot { slot: 2, src: 0, dst: 1, coflow: 0 },
            ]
        );
        assert_eq!(sim.blocked_log_dropped(), 0);
    }

    #[test]
    fn cancellation_drops_remaining_demand() {
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 3 }]);
        let mut sim = FaultSim::new(2, &[demand(5), demand(0)], &[0, 0], plan);
        sim.step(&[(0, 1, 0)]).unwrap();
        sim.step(&[(0, 1, 0)]).unwrap();
        assert!(!sim.is_cancelled(0));
        let out = sim.step(&[(0, 1, 0)]).unwrap();
        assert!(sim.is_cancelled(0));
        assert_eq!(out.dropped, vec![(0, 1, 0)]);
        assert_eq!(sim.remaining_total(0), 0);
        assert_eq!(sim.completion_times()[0], None, "cancelled, not completed");
        assert!(sim.all_settled());
    }

    #[test]
    fn cancellation_after_completion_is_a_noop() {
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 9 }]);
        let mut sim = FaultSim::new(2, &[demand(1)], &[0], plan);
        sim.step(&[(0, 1, 0)]).unwrap();
        sim.advance_to(20);
        assert_eq!(sim.completion_times(), &[Some(1)]);
        assert!(!sim.is_cancelled(0));
    }

    #[test]
    fn structural_violations_error() {
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 0), (0, 0, 1)]).unwrap_err(),
            SimError::PortMatchedTwice { slot: 1, port: 0, ingress: true }
        );
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 7)]).unwrap_err(),
            SimError::UnknownCoflow { coflow: 7 }
        );
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 1)]).unwrap_err(),
            SimError::ReleaseViolated { slot: 1, coflow: 1, release: 5 }
        );
    }

    #[test]
    fn execute_trace_respects_stop_boundary() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 4,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 4 }],
        });
        let mut sim = FaultSim::new(2, &[demand(4)], &[0], FaultPlan::default());
        let outcomes = sim.execute_trace(&trace, Some(3)).unwrap();
        assert_eq!(outcomes.len(), 2, "slots 1 and 2 only");
        assert_eq!(sim.now(), 2);
        assert_eq!(sim.remaining_total(0), 2);
        // Resume the same trace: the done prefix is skipped.
        let outcomes = sim.execute_trace(&trace, None).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(sim.completion_times(), &[Some(4)]);
    }

    #[test]
    fn fully_blocked_epoch_still_advances_the_clock() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 9 }]);
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 2,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 2 }],
        });
        let mut sim = FaultSim::new(2, &[demand(2)], &[0], plan);
        sim.execute_trace(&trace, Some(5)).unwrap();
        assert_eq!(sim.now(), 4, "clock lands on the epoch boundary");
        assert_eq!(sim.remaining_total(0), 2, "demand stranded");
        assert_eq!(sim.blocked_units(), 2);
    }
}
