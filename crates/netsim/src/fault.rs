//! Deterministic fault injection for the switch fabric.
//!
//! A [`FaultPlan`] is a seedable, reproducible set of [`FaultEvent`]s —
//! port outages over slot windows, degraded links that serve only every
//! `stride`-th slot, and coflow cancellations. [`FaultIndex`] compiles a
//! plan once for lookups: outage windows per port, degradations per link,
//! cancellations in slot order, and the sorted boundaries between which
//! the fault state is constant.
//!
//! [`FaultSim`] executes schedules against the plan — a planned
//! [`ScheduleTrace`] ([`FaultSim::execute_trace`]) or a matching held for
//! a number of slots ([`FaultSim::apply_run`]). Both advance run-length:
//! they split the work at the plan's boundaries and classify each port
//! pair once per window. Units whose port or link is down are *stranded*
//! (left in the remaining demand for a later replan), cancelled coflows
//! stop being served, and structural violations of the problem's
//! constraints — which indicate a scheduler bug, not a fault — surface as
//! [`SimError`]. The literal slot-by-slot executors
//! ([`FaultSim::execute_trace_slotwise`], [`FaultSim::apply_run_slotwise`])
//! are the references the run-length paths are tested against, and the
//! fallback for work that could trip a [`SimError`]. Every executor
//! records its deliveries through one recorder, which extends the last
//! executed run while consecutive slots deliver the same units, so the
//! executed trace is run-length like the schedules it replays. Denied
//! units go through one recorder too: the blocked log is a list of
//! [`BlockedRun`]s, each extended while its ingress keeps being denied
//! the same unit in consecutive slots.
//!
//! Remaining demand is a [`SparseDemand`] over the coflows' nonzero pairs,
//! concatenated from the borrowed demands; a cancellation zeroes the
//! coflow's entries. The run-length paths resolve each pair's entry once —
//! a held pair when its head coflow changes, a replayed transfer once per
//! segment — and then serve units by entry index; the slot-wise paths look
//! each move up. A lookup skips its binary search when the last one at the
//! same ingress was for the same coflow and pair, as it mostly is from one
//! held matching to the next. Snapshots stay dense at the boundary:
//! [`FaultSim::capture`] writes `m × m` residual matrices and
//! [`FaultSim::from_state`] rebuilds the sparse state from them.

use crate::demand::{Demand, DemandView, EntryMemo, SparseDemand};
use crate::trace::{Run, ScheduleTrace, Transfer};
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
    /// A trace run books more units on one pair than it lasts slots.
    PairOverCapacity {
        /// The run's start slot.
        start: u64,
        /// Ingress of the pair.
        src: usize,
        /// Egress of the pair.
        dst: usize,
        /// Units the run books on the pair (saturating).
        units: u64,
        /// The run's duration.
        capacity: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PortMatchedTwice {
                slot,
                port,
                ingress,
            } => write!(
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
            SimError::ReleaseViolated {
                slot,
                coflow,
                release,
            } => write!(
                f,
                "slot {}: coflow {} served before its release date {}",
                slot, coflow, release
            ),
            SimError::PairOverCapacity {
                start,
                src,
                dst,
                units,
                capacity,
            } => write!(
                f,
                "run at slot {} books {} units on ({}, {}) but lasts {} slots",
                start, units, src, dst, capacity
            ),
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
                events.push(FaultEvent::LinkDegraded {
                    src,
                    dst,
                    start,
                    end,
                    stride,
                });
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
    pub fn adversarial<'a>(
        demands: impl IntoIterator<Item = &'a Demand>,
        weights: &[f64],
        cfg: &AdversarialConfig,
    ) -> Self {
        let demands: Vec<&Demand> = demands.into_iter().collect();
        assert_eq!(demands.len(), weights.len());
        let Some(victim) = (0..demands.len()).max_by(|&a, &b| {
            let score = |k: usize| weights[k] * demands[k].load() as f64;
            score(a).total_cmp(&score(b)).then(b.cmp(&a))
        }) else {
            return FaultPlan::default();
        };
        let end = cfg.start + cfg.window.max(1) - 1;
        let top_ports = |mut loads: Vec<(usize, u64)>| -> Vec<usize> {
            loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            loads.truncate(cfg.ports.max(1));
            loads.into_iter().map(|(p, _)| p).collect()
        };
        let (ingress, egress) = demands[victim].port_loads();
        let mut events = Vec::new();
        for port in top_ports(ingress) {
            events.push(FaultEvent::IngressOutage {
                port,
                start: cfg.start,
                end,
            });
        }
        for port in top_ports(egress) {
            events.push(FaultEvent::EgressOutage {
                port,
                start: cfg.start,
                end,
            });
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
                | FaultEvent::LinkDegraded { start, end, .. } => vec![start, end.saturating_add(1)],
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
            FaultEvent::LinkDegraded {
                src: s,
                dst: d,
                start,
                end,
                stride,
            } => {
                s != src
                    || d != dst
                    || !(start..=end).contains(&slot)
                    || (slot - start).is_multiple_of(stride.max(1))
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

/// One degradation of a link, as [`FaultIndex`] stores it under the
/// link's ingress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Degradation {
    dst: usize,
    start: u64,
    end: u64,
    stride: u64,
}

impl Degradation {
    fn covers(&self, slot: u64) -> bool {
        (self.start..=self.end).contains(&slot)
    }
}

/// A [`FaultPlan`] compiled once for lookups on an `m`-port fabric with
/// `n` coflows. Every query costs the events of one port, link or coflow
/// instead of a scan of the whole plan, and answers exactly as the plan's
/// method of the same name does for ports `< m` and coflows `< n`.
#[derive(Clone, Debug)]
pub struct FaultIndex {
    /// Outage windows `(start, end)` of ingress `p`:
    /// `ingress[ingress_at[p]..ingress_at[p + 1]]`.
    ingress_at: Vec<usize>,
    ingress: Vec<(u64, u64)>,
    /// Outage windows of each egress, laid out like `ingress`.
    egress_at: Vec<usize>,
    egress: Vec<(u64, u64)>,
    /// Degradations of the links out of each ingress, laid out like
    /// `ingress` and sorted by egress (plan order among equals).
    links_at: Vec<usize>,
    links: Vec<Degradation>,
    /// Earliest cancellation slot of each coflow.
    cancel: Vec<Option<u64>>,
    /// `(slot, coflow)` of every cancelled coflow, sorted: the order in
    /// which a forward cursor fires them.
    cancel_order: Vec<(u64, usize)>,
    /// [`FaultPlan::boundaries`].
    boundaries: Vec<u64>,
}

/// Groups `(key, item)` pairs into CSR form: the items of key `p` are
/// `items[at[p]..at[p + 1]]`, in their original order. Pairs with a key of
/// `keys` or more are dropped.
fn group_by_key<T>(keys: usize, mut pairs: Vec<(usize, T)>) -> (Vec<usize>, Vec<T>) {
    pairs.retain(|&(key, _)| key < keys);
    pairs.sort_by_key(|&(key, _)| key);
    let mut at = vec![0; keys + 1];
    for &(key, _) in &pairs {
        at[key + 1] += 1;
    }
    for p in 0..keys {
        at[p + 1] += at[p];
    }
    (at, pairs.into_iter().map(|(_, item)| item).collect())
}

/// The items of key `p` in a [`group_by_key`] layout (none past the end).
fn group<'a, T>(at: &[usize], items: &'a [T], p: usize) -> &'a [T] {
    match (at.get(p), at.get(p + 1)) {
        (Some(&a), Some(&b)) => &items[a..b],
        _ => &[],
    }
}

impl FaultIndex {
    /// Compiles `plan` for an `m`-port fabric with `n` coflows. Events on
    /// ports `≥ m` or coflows `≥ n` cannot touch such a fabric and are left
    /// out of the lookups; their slots stay in [`FaultIndex::boundaries`],
    /// which equals [`FaultPlan::boundaries`].
    pub fn new(plan: &FaultPlan, m: usize, n: usize) -> Self {
        let mut ingress = Vec::new();
        let mut egress = Vec::new();
        let mut links = Vec::new();
        let mut cancel: Vec<Option<u64>> = vec![None; n];
        for e in &plan.events {
            match *e {
                FaultEvent::IngressOutage { port, start, end } => {
                    ingress.push((port, (start, end)))
                }
                FaultEvent::EgressOutage { port, start, end } => egress.push((port, (start, end))),
                // A stride of 0 or 1 serves every slot of its window.
                FaultEvent::LinkDegraded {
                    src,
                    dst,
                    start,
                    end,
                    stride,
                } if stride >= 2 => links.push((
                    src,
                    Degradation {
                        dst,
                        start,
                        end,
                        stride,
                    },
                )),
                FaultEvent::LinkDegraded { .. } => {}
                FaultEvent::CoflowCancelled { coflow, at } => {
                    if let Some(c) = cancel.get_mut(coflow) {
                        *c = Some(c.map_or(at, |c| c.min(at)));
                    }
                }
            }
        }
        links.sort_by_key(|&(_, d)| d.dst);
        let (ingress_at, ingress) = group_by_key(m, ingress);
        let (egress_at, egress) = group_by_key(m, egress);
        let (links_at, links) = group_by_key(m, links);
        let mut cancel_order: Vec<(u64, usize)> = cancel
            .iter()
            .enumerate()
            .filter_map(|(k, at)| at.map(|at| (at, k)))
            .collect();
        cancel_order.sort_unstable();
        FaultIndex {
            ingress_at,
            ingress,
            egress_at,
            egress,
            links_at,
            links,
            cancel,
            cancel_order,
            boundaries: plan.boundaries(),
        }
    }

    /// Slots at which the fault state changes, sorted and deduplicated
    /// ([`FaultPlan::boundaries`]).
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The first boundary after `slot`; `u64::MAX` when there is none. The
    /// fault state is constant from `slot` up to the slot before it.
    fn next_boundary(&self, slot: u64) -> u64 {
        let b = self.boundaries.partition_point(|&b| b <= slot);
        self.boundaries.get(b).copied().unwrap_or(u64::MAX)
    }

    /// True when ingress `port` can send in `slot`.
    fn ingress_up(&self, port: usize, slot: u64) -> bool {
        !group(&self.ingress_at, &self.ingress, port)
            .iter()
            .any(|&(start, end)| (start..=end).contains(&slot))
    }

    /// True when egress `port` can receive in `slot`.
    fn egress_up(&self, port: usize, slot: u64) -> bool {
        !group(&self.egress_at, &self.egress, port)
            .iter()
            .any(|&(start, end)| (start..=end).contains(&slot))
    }

    /// The degradations of link `(src, dst)` that can block a slot.
    fn degradations(&self, src: usize, dst: usize) -> &[Degradation] {
        let row = group(&self.links_at, &self.links, src);
        let lo = row.partition_point(|d| d.dst < dst);
        let hi = row.partition_point(|d| d.dst <= dst);
        &row[lo..hi]
    }

    /// True when every degradation of link `(src, dst)` covering `slot`
    /// lets it carry a unit (port outages aside).
    fn link_open(&self, src: usize, dst: usize, slot: u64) -> bool {
        self.degradations(src, dst)
            .iter()
            .all(|d| !d.covers(slot) || (slot - d.start).is_multiple_of(d.stride))
    }

    /// True when link `(src, dst)` can carry a unit in `slot`: both ports
    /// up and every degradation window covering the slot permits it.
    pub fn pair_open(&self, src: usize, dst: usize, slot: u64) -> bool {
        self.ingress_up(src, slot) && self.egress_up(dst, slot) && self.link_open(src, dst, slot)
    }

    /// The first slot of `[first, last]` in which link `(src, dst)` cannot
    /// carry a unit ([`FaultIndex::pair_open`] is false), if any. Classifies
    /// the link once per window between boundaries; in a degraded window a
    /// closed slot is at most one slot away, as two consecutive slots never
    /// both pass a stride of 2 or more.
    pub fn first_closed(&self, src: usize, dst: usize, first: u64, last: u64) -> Option<u64> {
        let mut w0 = first;
        while w0 <= last {
            let w1 = last.min(self.next_boundary(w0) - 1);
            match self.pair_state(src, dst, w0) {
                PairState::Open => {}
                PairState::Closed => return Some(w0),
                PairState::Strided => {
                    let closed = (w0..=w1).find(|&slot| !self.link_open(src, dst, slot));
                    if closed.is_some() {
                        return closed;
                    }
                }
            }
            w0 = w1.checked_add(1)?;
        }
        None
    }

    /// The cancellation slot of `coflow` (the earliest, when the plan
    /// cancels it more than once), if the plan cancels it.
    pub fn cancellation(&self, coflow: usize) -> Option<u64> {
        self.cancel.get(coflow).copied().flatten()
    }

    /// The fault state of pair `(src, dst)` throughout the window between
    /// boundaries that holds `slot`.
    fn pair_state(&self, src: usize, dst: usize, slot: u64) -> PairState {
        if !self.ingress_up(src, slot) || !self.egress_up(dst, slot) {
            PairState::Closed
        } else if self.degradations(src, dst).iter().any(|d| d.covers(slot)) {
            PairState::Strided
        } else {
            PairState::Open
        }
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

/// Consecutive slots in each of which a fault denied one planned unit of
/// `coflow` on `(src, dst)`: the forensic record behind the flight
/// recorder's `FaultBlocked` events and the starvation detector.
///
/// The three ids are stored as `u32`, so a run takes 32 bytes; they are
/// checked once, in [`BlockedRun::new`], and read back as `usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedRun {
    /// The first denied slot.
    pub start: u64,
    /// Consecutive denied slots, one unit each.
    pub slots: u64,
    src: u32,
    dst: u32,
    coflow: u32,
}

impl BlockedRun {
    /// A run of `slots` denied units of coflow `coflow` on `(src, dst)`
    /// from slot `start`; `None` when an id does not fit in `u32`.
    pub fn new(start: u64, slots: u64, src: usize, dst: usize, coflow: usize) -> Option<Self> {
        Some(BlockedRun {
            start,
            slots,
            src: u32::try_from(src).ok()?,
            dst: u32::try_from(dst).ok()?,
            coflow: u32::try_from(coflow).ok()?,
        })
    }

    /// Ingress of the blocked pair.
    pub fn src(&self) -> usize {
        self.src as usize
    }

    /// Egress of the blocked pair.
    pub fn dst(&self) -> usize {
        self.dst as usize
    }

    /// The coflow whose planned units were stranded.
    pub fn coflow(&self) -> usize {
        self.coflow as usize
    }

    /// The last denied slot (saturating).
    fn last(&self) -> u64 {
        self.start.saturating_add(self.slots.saturating_sub(1))
    }
}

/// The units of a blocked log, one `(slot, run)` per denied unit:
/// slot-major, and in run order within one slot. Takes runs in order of
/// their first slot, as [`FaultSim::blocked_log`] lists them; runs of
/// zero slots hold no unit.
#[derive(Clone, Debug)]
pub struct BlockedUnits<'a> {
    /// Runs not yet reached, in order of their first slot.
    runs: std::iter::Peekable<std::vec::IntoIter<&'a BlockedRun>>,
    /// The runs covering `slot`, in run order.
    active: Vec<&'a BlockedRun>,
    /// Position in `active` of the next unit of `slot`.
    at: usize,
    slot: u64,
}

impl<'a> BlockedUnits<'a> {
    /// Walks the units of `runs`.
    pub fn new(runs: impl IntoIterator<Item = &'a BlockedRun>) -> Self {
        let runs: Vec<&BlockedRun> = runs.into_iter().filter(|r| r.slots > 0).collect();
        BlockedUnits {
            runs: runs.into_iter().peekable(),
            active: Vec::new(),
            at: 0,
            slot: 0,
        }
    }
}

impl<'a> Iterator for BlockedUnits<'a> {
    type Item = (u64, &'a BlockedRun);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.active.len() {
            // The current slot is done: move to the next slot with a unit.
            let slot = self.slot;
            self.active.retain(|r| r.last() > slot);
            self.slot = if self.active.is_empty() {
                self.runs.peek()?.start
            } else {
                slot.checked_add(1)?
            };
            let next = self.slot;
            while let Some(run) = self.runs.next_if(|r| r.start <= next) {
                self.active.push(run);
            }
            self.at = 0;
        }
        let run = self.active[self.at];
        self.at += 1;
        Some((self.slot, run))
    }
}

/// Cap on the units the blocked log retains; [`FaultSim::blocked_units`]
/// keeps counting past it, so aggregate accounting stays exact. A cap on
/// units rather than runs bounds the `coflow-snapshot/1` document, which
/// lists one entry per unit.
const MAX_BLOCKED_LOG: u64 = 1 << 16;

/// Fault state of one port pair over one window between consecutive
/// [`FaultPlan::boundaries`]. Outages and the set of covering degradations
/// are constant within a window (their starts and ends + 1 are
/// boundaries), so only a degraded link's stride test remains per slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PairState {
    Open,
    Closed,
    Strided,
}

impl PairState {
    /// True when the pair can carry a unit in `slot` of the window.
    fn open(self, index: &FaultIndex, src: usize, dst: usize, slot: u64) -> bool {
        match self {
            PairState::Open => true,
            PairState::Closed => false,
            PairState::Strided => index.link_open(src, dst, slot),
        }
    }
}

/// What the fault plan made of one planned unit.
enum Served {
    Delivered,
    /// Stranded by an outage or degradation.
    Blocked,
    /// Its coflow is cancelled.
    Dropped,
    /// Its demand on the pair is already delivered.
    Gone,
}

/// One transfer of a trace run as the replay's fast path serves it: its
/// pair's index in the run's [`Booking`], the pair, the coflow and its
/// entry on the pair, and the within-run offsets `[a, b)` it owns.
type Segment = (usize, usize, usize, usize, Option<usize>, u64, u64);

/// Buffers the run-length executors ([`FaultSim::apply_run`] and the fast
/// path of [`FaultSim::execute_trace`]) reuse across calls.
#[derive(Clone, Debug, Default)]
struct ExecBuffers {
    /// Per held pair: the cursor into its priority list, and the entry of
    /// the coflow there on the pair (`None` when that coflow has none
    /// there, or past the list's end).
    heads: Vec<(usize, Option<usize>)>,
    /// Per pair: its fault state in the current window.
    states: Vec<PairState>,
    /// The transfers of the trace run being replayed.
    segments: Vec<Segment>,
    /// The segments that intersect the current window.
    active: Vec<Segment>,
    /// The units delivered in the current slot.
    delivered: Vec<(usize, usize, usize)>,
    /// A bulk window's transfers in pair order, once a cut is needed: the
    /// held pair, the coflow and the within-window offset the transfer
    /// ends at. A pair's transfers are contiguous from offset 0.
    served: Vec<(usize, usize, u64)>,
    /// Per held pair with transfers in `served`: the first of them not yet
    /// recorded.
    served_at: Vec<usize>,
    /// The offsets at which a bulk window's delivered list changes.
    cuts: Vec<u64>,
}

/// Executor that applies a [`FaultPlan`] while replaying planned schedules
/// or held matchings, stranding blocked demand for later replans.
#[derive(Clone, Debug)]
pub struct FaultSim {
    m: usize,
    /// Remaining demand per coflow, over its nonzero pairs.
    remaining: SparseDemand,
    releases: Vec<u64>,
    /// The latest release date (0 without coflows): from the slot after
    /// it on, every coflow is released. Derived state, recomputed by
    /// [`FaultSim::from_state`].
    last_release: u64,
    completion: Vec<Option<u64>>,
    last_activity: Vec<u64>,
    cancelled: Vec<bool>,
    /// Coflows neither complete nor cancelled. Derived state, recounted by
    /// [`FaultSim::from_state`].
    unsettled: usize,
    now: u64,
    plan: FaultPlan,
    executed: ScheduleTrace,
    blocked_units: u64,
    /// Maximal runs of denied units, in order of their first slot.
    blocked_log: Vec<BlockedRun>,
    blocked_log_dropped: u64,
    /// Per ingress: the index in `blocked_log` of its last run. Derived
    /// state, rebuilt by [`FaultSim::from_state`].
    last_blocked: Vec<Option<usize>>,
    /// `plan`, compiled. Derived state, rebuilt by [`FaultSim::from_state`].
    index: FaultIndex,
    /// Position in the index's cancellation order: every cancellation
    /// before it has fired (or found its coflow already complete). Restarts
    /// at zero after a restore, which only re-visits cancellations that are
    /// no-ops by now.
    cancel_cursor: usize,
    /// Port-occupancy scratch reused by every [`FaultSim::step`]; not part
    /// of the captured state.
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    /// Scratch of the run-length executors; not part of the captured
    /// state.
    scratch: ExecBuffers,
    /// The trace run being replayed, booked onto its pairs; scratch, not
    /// part of the captured state.
    booking: Booking,
    /// Entry lookups, remembered per ingress; not part of the captured
    /// state.
    memo: EntryMemo,
}

impl FaultSim {
    /// Creates a fault-aware simulator over the instance data. The demands
    /// must be on `m` ports; they are read once, not kept.
    pub fn new<'a>(
        m: usize,
        demands: impl IntoIterator<Item = &'a Demand>,
        releases: &[u64],
        plan: FaultPlan,
    ) -> Self {
        let remaining = SparseDemand::new(m, demands);
        let n = remaining.len();
        assert_eq!(n, releases.len());
        let completion: Vec<Option<u64>> = releases
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                if remaining.total(k) == 0 {
                    Some(r)
                } else {
                    None
                }
            })
            .collect();
        FaultSim {
            m,
            remaining,
            releases: releases.to_vec(),
            last_release: releases.iter().copied().max().unwrap_or(0),
            unsettled: completion.iter().filter(|c| c.is_none()).count(),
            completion,
            last_activity: vec![0; n],
            cancelled: vec![false; n],
            now: 0,
            index: FaultIndex::new(&plan, m, n),
            cancel_cursor: 0,
            plan,
            executed: ScheduleTrace::new(m),
            blocked_units: 0,
            blocked_log: Vec::new(),
            blocked_log_dropped: 0,
            last_blocked: vec![None; m],
            src_used: vec![false; m],
            dst_used: vec![false; m],
            scratch: ExecBuffers::default(),
            booking: Booking::default(),
            memo: EntryMemo::new(m),
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

    /// The fault plan, compiled for this fabric and instance.
    pub fn index(&self) -> &FaultIndex {
        &self.index
    }

    /// Remaining demand of coflow `k` on pair `(i, j)`.
    pub fn remaining(&self, k: usize, i: usize, j: usize) -> u64 {
        self.remaining.get(k, i, j)
    }

    /// Remaining demand of coflow `k`, borrowed.
    pub fn remaining_matrix(&self, k: usize) -> DemandView<'_> {
        self.remaining.view(k)
    }

    /// Remaining demand of every coflow, for reads by entry index.
    pub fn remaining_demand(&self) -> &SparseDemand {
        &self.remaining
    }

    /// Remaining total units of coflow `k`.
    pub fn remaining_total(&self, k: usize) -> u64 {
        self.remaining.total(k)
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

    /// Forensic log of fault-denied service: maximal runs of denied units,
    /// in order of their first slot ([`BlockedUnits`] walks it unit by
    /// unit). Bounded; see [`FaultSim::blocked_log_dropped`].
    pub fn blocked_log(&self) -> &[BlockedRun] {
        &self.blocked_log
    }

    /// Denied units discarded past the blocked log's cap.
    pub fn blocked_log_dropped(&self) -> u64 {
        self.blocked_log_dropped
    }

    /// True when every coflow is either complete or cancelled.
    pub fn all_settled(&self) -> bool {
        self.unsettled == 0
    }

    /// Advances the clock to `t ≥ now` without serving anything, applying
    /// any cancellations that take effect in the skipped slots.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "cannot move time backwards");
        self.now = t;
        self.apply_cancellations_at(t + 1);
    }

    /// Applies every cancellation effective at or before `slot` (a coflow
    /// cancelled `at` is gone from slot `at` on). Callers pass
    /// non-decreasing slots, so one forward cursor over the cancellations
    /// in slot order visits each of them once; a coflow already complete
    /// when its cancellation is reached stays complete.
    fn apply_cancellations_at(&mut self, slot: u64) {
        while let Some(&(at, k)) = self.index.cancel_order.get(self.cancel_cursor) {
            if at > slot {
                break;
            }
            self.cancel_cursor += 1;
            if !self.cancelled[k] && self.completion[k].is_none() {
                self.cancelled[k] = true;
                self.unsettled -= 1;
                self.remaining.clear(k);
            }
        }
    }

    /// The deliver / strand / drop step for one planned unit of coflow `k`
    /// on `(i, j)` in `slot`, shared by every executor. `entry` is `k`'s
    /// entry on the pair ([`SparseDemand::find`]), `open` says whether the
    /// fault plan lets the link carry the unit; the caller has checked ids,
    /// ports and release dates.
    fn serve_unit(
        &mut self,
        slot: u64,
        (i, j): (usize, usize),
        k: usize,
        entry: Option<usize>,
        open: bool,
    ) -> Served {
        if self.cancelled[k] {
            return Served::Dropped;
        }
        let Some(e) = entry.filter(|&e| self.remaining.units(e) > 0) else {
            return Served::Gone; // already delivered by an earlier replan
        };
        if !open {
            self.record_blocked(slot, (i, j), k);
            return Served::Blocked;
        }
        self.remaining.take(k, e, 1);
        self.last_activity[k] = slot;
        if self.remaining.total(k) == 0 {
            self.completion[k] = Some(slot);
            self.unsettled -= 1;
        }
        Served::Delivered
    }

    /// Counts one planned unit of coflow `k` on `(i, j)` denied in `slot`,
    /// and logs it while the log holds fewer than [`MAX_BLOCKED_LOG`]
    /// units. The ingress's last run absorbs it when that run is on the
    /// same egress and coflow and ends at `slot − 1`; otherwise it starts a
    /// new run. An ingress is denied at most one unit per slot, and slots
    /// never decrease, so every run is maximal and the runs are listed in
    /// order of their first slot.
    fn record_blocked(&mut self, slot: u64, (i, j): (usize, usize), k: usize) {
        let logged = self.blocked_units - self.blocked_log_dropped;
        self.blocked_units += 1;
        if logged >= MAX_BLOCKED_LOG {
            self.blocked_log_dropped += 1;
            return;
        }
        if let Some(run) = self.last_blocked[i].map(|r| &mut self.blocked_log[r]) {
            if (run.dst(), run.coflow()) == (j, k) && run.start.checked_add(run.slots) == Some(slot)
            {
                run.slots += 1;
                return;
            }
        }
        let Some(run) = BlockedRun::new(slot, 1, i, j, k) else {
            panic!("port or coflow id does not fit in u32");
        };
        self.last_blocked[i] = Some(self.blocked_log.len());
        self.blocked_log.push(run);
    }

    /// Records `len` consecutive slots from `first` that each deliver the
    /// units `delivered`, in that order. The last executed run absorbs them
    /// when it ends right before `first` and delivers the same list;
    /// otherwise they start a new run, its transfer list allocated at exact
    /// size. Every executed run is thus a maximal stretch of identical
    /// slots, each transfer moving one unit per slot of it. Slots that
    /// deliver nothing are not recorded. Every move was checked against
    /// the fabric and the instance before it was delivered.
    fn record_stretch(&mut self, first: u64, len: u64, delivered: &[(usize, usize, usize)]) {
        if delivered.is_empty() {
            return;
        }
        if let Some(last) = self.executed.runs.last_mut() {
            let same = last.start + last.duration == first
                && last.transfers.len() == delivered.len()
                && last
                    .transfers
                    .iter()
                    .zip(delivered)
                    .all(|(t, &(i, j, k))| (t.src(), t.dst(), t.coflow()) == (i, j, k));
            if same {
                last.duration += len;
                for t in last.transfers.iter_mut() {
                    t.units += len;
                }
                return;
            }
        }
        let transfers = delivered
            .iter()
            .map(|&(src, dst, coflow)| {
                let Some(t) = Transfer::new(src, dst, coflow, len) else {
                    panic!("port or coflow id does not fit in u32");
                };
                t
            })
            .collect();
        self.executed.push_run(Run {
            start: first,
            duration: len,
            transfers,
        });
    }

    /// Enters the fault window that starts at `w0`: fires the cancellations
    /// due by then — they take effect on boundaries, so this covers every
    /// slot of the window — and classifies each of `pairs` for the window
    /// into `states`. Returns the window's last slot, `last` at the latest.
    fn enter_window(
        &mut self,
        w0: u64,
        last: u64,
        pairs: impl Iterator<Item = (usize, usize)>,
        states: &mut Vec<PairState>,
    ) -> u64 {
        self.apply_cancellations_at(w0);
        states.clear();
        states.extend(pairs.map(|(i, j)| self.index.pair_state(i, j, w0)));
        last.min(self.index.next_boundary(w0) - 1)
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
        self.apply_cancellations_at(slot);
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let mut out = SlotOutcome {
            slot,
            ..SlotOutcome::default()
        };
        for &(i, j, k) in moves {
            if i >= self.m {
                return Err(SimError::PortOutOfRange {
                    port: i,
                    ports: self.m,
                });
            }
            if j >= self.m {
                return Err(SimError::PortOutOfRange {
                    port: j,
                    ports: self.m,
                });
            }
            if k >= self.remaining.len() {
                return Err(SimError::UnknownCoflow { coflow: k });
            }
            if self.src_used[i] {
                return Err(SimError::PortMatchedTwice {
                    slot,
                    port: i,
                    ingress: true,
                });
            }
            if self.dst_used[j] {
                return Err(SimError::PortMatchedTwice {
                    slot,
                    port: j,
                    ingress: false,
                });
            }
            self.src_used[i] = true;
            self.dst_used[j] = true;
            if !self.cancelled[k] && self.releases[k] >= slot {
                return Err(SimError::ReleaseViolated {
                    slot,
                    coflow: k,
                    release: self.releases[k],
                });
            }
            let open = self.index.pair_open(i, j, slot);
            let entry = self.memo.find(&self.remaining, k, i, j);
            match self.serve_unit(slot, (i, j), k, entry, open) {
                Served::Delivered => out.delivered.push((i, j, k)),
                Served::Blocked => out.blocked.push((i, j, k)),
                Served::Dropped => out.dropped.push((i, j, k)),
                Served::Gone => {}
            }
        }
        obs::counter_add("netsim.fault.blocked_units", out.blocked.len() as u64);
        obs::counter_add("netsim.fault.dropped_units", out.dropped.len() as u64);
        self.record_stretch(slot, 1, &out.delivered);
        self.now = slot;
        Ok(out)
    }

    /// Holds a matching for `duration` slots from `now + 1`. Each slot,
    /// every pair `(ingress, egress, priority-ordered coflows)` serves its
    /// first listed coflow with demand left on the pair (the in-group
    /// priority and backfilling rule); the fault plan strands or drops
    /// that unit as [`FaultSim::step`] would. `duration == 0` does
    /// nothing; a hold with pairs adds its slots to `netsim.fabric.slots`.
    ///
    /// The hold is split at the plan's boundaries, and each pair keeps a
    /// forward cursor into its list (remaining demand never grows). A
    /// window where every pair is open and no cancellation is due at its
    /// first slot — every window, under the empty plan — is served in one
    /// pass per pair. Other windows go slot by slot, the heads of their
    /// first slot chosen before that slot's cancellations fire, as the
    /// slot-wise path chooses its moves before [`FaultSim::step`] applies
    /// them. The result is identical to [`FaultSim::apply_run_slotwise`],
    /// which runs a hold that could trip a structural [`SimError`] (an id
    /// out of range, a listed coflow not yet released, a port in two
    /// pairs), so error slots and partial state match too.
    pub fn apply_run(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        duration: u64,
    ) -> Result<(), SimError> {
        if duration == 0 {
            return Ok(());
        }
        if !pairs.is_empty() {
            obs::counter_add("netsim.fabric.slots", duration);
        }
        let mut buf = std::mem::take(&mut self.scratch);
        if !self.start_hold(pairs, &mut buf) {
            self.scratch = buf;
            return self.apply_run_slotwise(pairs, duration);
        }
        let (mut blocked, mut dropped) = (0u64, 0u64);
        let last = self.now.saturating_add(duration);
        while self.now < last {
            let w0 = self.now + 1;
            if self.opens_in_bulk(w0, pairs) {
                let w1 = last.min(self.index.next_boundary(w0) - 1);
                self.hold_window(pairs, &mut buf, w0, w1);
                continue;
            }
            // Entering the window fires its cancellations: after the heads.
            self.advance_heads(pairs, &mut buf);
            let pairs_ij = pairs.iter().map(|&(i, j, _)| (i, j));
            let w1 = self.enter_window(w0, last, pairs_ij, &mut buf.states);
            for slot in w0..=w1 {
                if slot > w0 {
                    self.advance_heads(pairs, &mut buf);
                }
                buf.delivered.clear();
                let heads = buf.heads.iter().zip(&buf.states);
                for ((&(c, head), &state), (i, j, prio)) in heads.zip(pairs) {
                    let Some(&k) = prio.get(c) else { continue };
                    let open = state.open(&self.index, *i, *j, slot);
                    match self.serve_unit(slot, (*i, *j), k, head, open) {
                        Served::Delivered => buf.delivered.push((*i, *j, k)),
                        Served::Blocked => blocked += 1,
                        Served::Dropped => dropped += 1,
                        Served::Gone => {}
                    }
                }
                self.record_stretch(slot, 1, &buf.delivered);
                self.now = slot;
            }
        }
        self.scratch = buf;
        obs::counter_add("netsim.fault.blocked_units", blocked);
        obs::counter_add("netsim.fault.dropped_units", dropped);
        Ok(())
    }

    /// True when the hold can serve the window starting at `w0` in bulk:
    /// no cancellation is due by then, and every held pair is open
    /// throughout the window (without a look at the pairs when the plan
    /// has no port or link events).
    fn opens_in_bulk(&self, w0: u64, pairs: &[(usize, usize, Vec<usize>)]) -> bool {
        let index = &self.index;
        let cancels = index.cancel_order.get(self.cancel_cursor);
        let links_open =
            index.ingress.is_empty() && index.egress.is_empty() && index.links.is_empty();
        cancels.is_none_or(|&(at, _)| at > w0)
            && (links_open
                || pairs
                    .iter()
                    .all(|&(i, j, _)| index.pair_state(i, j, w0) == PairState::Open))
    }

    /// Moves each held pair's cursor to its first listed coflow with
    /// demand left on the pair, and its head to that coflow's entry.
    fn advance_heads(&mut self, pairs: &[(usize, usize, Vec<usize>)], buf: &mut ExecBuffers) {
        for ((c, head), (i, j, prio)) in buf.heads.iter_mut().zip(pairs) {
            self.advance_head(c, head, (*i, *j), prio);
        }
    }

    /// Moves cursor `c` of pair `(i, j)` to the first coflow from it in
    /// `prio` with demand left on the pair, and `head` to its entry.
    #[inline]
    fn advance_head(
        &mut self,
        c: &mut usize,
        head: &mut Option<usize>,
        (i, j): (usize, usize),
        prio: &[usize],
    ) {
        while *c < prio.len() && !head.is_some_and(|e| self.remaining.units(e) > 0) {
            *c += 1;
            *head = prio
                .get(*c)
                .and_then(|&k| self.memo.find(&self.remaining, k, i, j));
        }
    }

    /// Serves slots `w0..=w1` of a hold in which every pair is open and no
    /// cancellation fires: each pair drains its list from its cursor for
    /// the window's length, taking what each head has left up to the
    /// budget, and a coflow completes at the slot of its last unit, the
    /// latest over its pairs. The window is recorded as stretches cut
    /// wherever a pair's transfer ends, so the executed trace is what
    /// serving slot by slot records; when every transfer spans the window,
    /// as when each pair serves one coflow, that is one stretch.
    fn hold_window(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        buf: &mut ExecBuffers,
        w0: u64,
        w1: u64,
    ) {
        let len = w1 - w0 + 1;
        buf.served.clear();
        buf.delivered.clear();
        let mut one_stretch = true;
        for (p, ((c, head), (i, j, prio))) in buf.heads.iter_mut().zip(pairs).enumerate() {
            let mut used = 0;
            while used < len {
                self.advance_head(c, head, (*i, *j), prio);
                let (Some(&k), Some(e)) = (prio.get(*c), *head) else {
                    break;
                };
                let take = self.remaining.units(e).min(len - used);
                self.remaining.take(k, e, take);
                used += take;
                self.last_activity[k] = self.last_activity[k].max(w0 - 1 + used);
                if self.remaining.total(k) == 0 {
                    self.completion[k] = Some(self.last_activity[k]);
                    self.unsettled -= 1;
                }
                if one_stretch && take == len {
                    buf.delivered.push((*i, *j, k));
                    continue;
                }
                if one_stretch {
                    // The first cut: every pair before this one served one
                    // coflow for the whole window.
                    one_stretch = false;
                    let mut whole = buf.delivered.iter().peekable();
                    for (q, &(qi, qj, _)) in pairs[..p].iter().enumerate() {
                        let ours = |&&(di, dj, _): &&(usize, usize, usize)| (di, dj) == (qi, qj);
                        if let Some(&(.., dk)) = whole.next_if(ours) {
                            buf.served.push((q, dk, len));
                        }
                    }
                }
                buf.served.push((p, k, used));
            }
        }
        self.now = w1;
        if one_stretch {
            self.record_stretch(w0, len, &buf.delivered);
            return;
        }
        // Cut at every transfer's end. Each pair with transfers keeps a
        // pointer to its first transfer ending after the stretch starts:
        // the one it serves there, unless its transfers ended before.
        buf.cuts.clear();
        buf.cuts.extend(buf.served.iter().map(|&(.., end)| end));
        buf.cuts.sort_unstable();
        buf.cuts.dedup();
        let served = &buf.served;
        buf.served_at.clear();
        buf.served_at
            .extend((0..served.len()).filter(|&s| s == 0 || served[s - 1].0 != served[s].0));
        let mut from = 0;
        for &to in &buf.cuts {
            buf.delivered.clear();
            for at in buf.served_at.iter_mut() {
                let p = served[*at].0;
                while served[*at].2 <= from && served.get(*at + 1).is_some_and(|s| s.0 == p) {
                    *at += 1;
                }
                let (_, k, end) = served[*at];
                if end > from {
                    buf.delivered.push((pairs[p].0, pairs[p].1, k));
                }
            }
            self.record_stretch(w0 + from, to - from, &buf.delivered);
            from = to;
        }
    }

    /// Starts a hold over `pairs` from `now + 1`: each pair's cursor at
    /// the head of its list. Returns false when a slot of the hold could
    /// trip a structural [`SimError`] — an id out of range, a listed
    /// coflow not yet released, a port in two pairs. Once every coflow is
    /// released, a listed coflow is checked for its id alone.
    fn start_hold(&mut self, pairs: &[(usize, usize, Vec<usize>)], buf: &mut ExecBuffers) -> bool {
        let (m, n, first) = (self.m, self.remaining.len(), self.now + 1);
        let all_released = self.last_release < first;
        self.src_used.fill(false);
        self.dst_used.fill(false);
        buf.heads.clear();
        for &(i, j, ref prio) in pairs {
            let released = |&k: &usize| k < n && (all_released || self.releases[k] < first);
            if i >= m
                || j >= m
                || self.src_used[i]
                || self.dst_used[j]
                || !prio.iter().all(released)
            {
                return false;
            }
            self.src_used[i] = true;
            self.dst_used[j] = true;
            let head = prio.first();
            let entry = head.and_then(|&k| self.memo.find(&self.remaining, k, i, j));
            buf.heads.push((0, entry));
        }
        true
    }

    /// True when no two of `pairs` (all in range) share an ingress or an
    /// egress.
    fn ports_disjoint(&mut self, mut pairs: impl Iterator<Item = (usize, usize)>) -> bool {
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let (src_used, dst_used) = (&mut self.src_used, &mut self.dst_used);
        pairs.all(|(i, j)| {
            let fresh = !src_used[i] && !dst_used[j];
            src_used[i] = true;
            dst_used[j] = true;
            fresh
        })
    }

    /// Literal slot-by-slot hold — the reference [`FaultSim::apply_run`] is
    /// differentially tested against, and its fallback. Each slot picks
    /// every pair's first listed coflow with demand left on the pair (a
    /// candidate with an out-of-range id is picked as it is reached, so
    /// [`FaultSim::step`] reports it), then steps.
    pub fn apply_run_slotwise(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        duration: u64,
    ) -> Result<(), SimError> {
        let n = self.remaining.len();
        let mut moves: Vec<(usize, usize, usize)> = Vec::with_capacity(pairs.len());
        for _ in 0..duration {
            moves.clear();
            for &(i, j, ref prio) in pairs {
                let out_of_range = |k: usize| i >= self.m || j >= self.m || k >= n;
                let live = |k: usize| out_of_range(k) || self.remaining.get(k, i, j) > 0;
                if let Some(&k) = prio.iter().find(|&&k| live(k)) {
                    moves.push((i, j, k));
                }
            }
            self.step(&moves)?;
        }
        Ok(())
    }

    /// Replays `trace` from the current time, stopping before slot
    /// `stop_before` (exclusive) when given. Slots the trace leaves idle
    /// are skipped by advancing the clock. Slots at or before the clock
    /// count as done: a run that reaches back before it executes only its
    /// slots after it, and a run that ends by then is skipped — the
    /// epoch-by-epoch replays pass the same trace once per epoch and rely
    /// on this.
    ///
    /// Runs are advanced run-length: each run is split into windows at the
    /// plan's fault epochs ([`FaultIndex::boundaries`]), each port pair is
    /// classified once per window (open / closed / stride-degraded), and
    /// the per-slot work drops to O(active transfers) with no plan scan.
    /// The executed trace, blocked log, completions and counters are
    /// identical to slot-by-slot execution
    /// ([`FaultSim::execute_trace_slotwise`]); runs that could trip a
    /// structural [`SimError`] fall back to the slot-wise path so error
    /// slots and partial state match exactly.
    ///
    /// A run that books more units on a pair than it lasts is refused with
    /// [`SimError::PairOverCapacity`] before any of its slots executes (on
    /// both paths, with the clock where the previous run left it).
    ///
    /// With `stop_before = Some(b)` the clock always ends at `b - 1` (or
    /// later, if it already was); with `None` it ends at the trace's
    /// makespan — so callers make progress even when every planned unit is
    /// blocked.
    pub fn execute_trace(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<(), SimError> {
        self.execute_trace_impl(trace, stop_before, false)
    }

    /// Literal slot-by-slot replay — the reference executor the run-length
    /// path is differentially tested against: one [`FaultSim::step`] per
    /// slot of each run. Leaves the same state as
    /// [`FaultSim::execute_trace`], just slower.
    pub fn execute_trace_slotwise(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<(), SimError> {
        self.execute_trace_impl(trace, stop_before, true)
    }

    fn execute_trace_impl(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
        force_slotwise: bool,
    ) -> Result<(), SimError> {
        for run in &trace.runs {
            if let Some(b) = stop_before {
                if run.start >= b {
                    break;
                }
            }
            if run.start + run.duration <= self.now + 1 {
                continue; // entirely at or before the clock: done
            }
            self.booking.book(run)?;
            if run.start > self.now + 1 {
                self.advance_to(run.start - 1);
            }
            let first = self.now + 1; // slots at or before the clock are done
            let booking = std::mem::take(&mut self.booking);
            let fast = !force_slotwise && self.run_fast(run, &booking, first, stop_before);
            self.booking = booking;
            if !fast {
                self.run_slotwise(run, stop_before)?;
            }
            if let Some(b) = stop_before {
                if run.start + run.duration > b {
                    break; // the stop boundary fell inside this run
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
        Ok(())
    }

    /// The per-slot replay of one run: one [`FaultSim::step`] per slot
    /// after the clock and before `stop_before`.
    fn run_slotwise(&mut self, run: &Run, stop_before: Option<u64>) -> Result<(), SimError> {
        for (o, moves) in run.slot_moves().iter().enumerate() {
            let slot = run.start + o as u64;
            if slot <= self.now {
                continue; // at or before the clock: done
            }
            if stop_before.is_some_and(|b| slot >= b) {
                break;
            }
            self.step(moves)?;
        }
        Ok(())
    }

    /// Run-length replay of one run, `booking` being its [`Booking`].
    /// Returns `false` (having executed nothing) when the run is not
    /// eligible for the fast path — a structural violation is possible and
    /// the slot-wise path must reproduce its exact error slot — and `true`
    /// after executing the run's slots in `[first, stop_before)`.
    fn run_fast(
        &mut self,
        run: &Run,
        booking: &Booking,
        first: u64,
        stop_before: Option<u64>,
    ) -> bool {
        let (m, n) = (self.m, self.remaining.len());
        // PortOutOfRange / UnknownCoflow possible, or ReleaseViolated in
        // early slots.
        let may_err = |t: &Transfer| {
            t.src() >= m || t.dst() >= m || t.coflow() >= n || self.releases[t.coflow()] >= first
        };
        if run.transfers.iter().any(may_err) {
            return false;
        }
        // Distinct pairs sharing a port co-occur in the run's first slot:
        // PortMatchedTwice is possible, so leave the run to the reference.
        let pairs = &booking.pairs;
        if !self.ports_disjoint(pairs.iter().map(|&(i, j, _)| (i, j))) {
            return false;
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.segments.clear();
        for (t, &(p, a)) in run.transfers.iter().zip(&booking.starts) {
            let (src, dst, k) = (t.src(), t.dst(), t.coflow());
            let entry = self.memo.find(&self.remaining, k, src, dst);
            buf.segments.push((p, src, dst, k, entry, a, a + t.units));
        }

        let mut last = run.start + run.duration - 1;
        if let Some(b) = stop_before {
            last = last.min(b - 1);
        }
        let (mut blocked, mut dropped) = (0u64, 0u64);
        let mut w0 = first;
        while w0 <= last {
            let pairs_ij = pairs.iter().map(|&(i, j, _)| (i, j));
            let w1 = self.enter_window(w0, last, pairs_ij, &mut buf.states);
            // Only segments whose offsets intersect the window matter; they
            // keep the listed transfer order, so each slot's moves come out
            // exactly as `Run::slot_moves` lists them.
            let (lo, hi) = (w0 - run.start, w1 - run.start);
            buf.active.clear();
            let segments = buf.segments.iter();
            buf.active
                .extend(segments.filter(|&&(.., a, b)| a <= hi && b > lo));
            for slot in w0..=w1 {
                let o = slot - run.start;
                buf.delivered.clear();
                for &(p, i, j, k, entry, a, b) in &buf.active {
                    if o < a || o >= b {
                        continue;
                    }
                    let open = buf.states[p].open(&self.index, i, j, slot);
                    match self.serve_unit(slot, (i, j), k, entry, open) {
                        Served::Delivered => buf.delivered.push((i, j, k)),
                        Served::Blocked => blocked += 1,
                        Served::Dropped => dropped += 1,
                        Served::Gone => {}
                    }
                }
                self.record_stretch(slot, 1, &buf.delivered);
                self.now = slot;
            }
            w0 = w1 + 1;
        }
        self.scratch = buf;
        obs::counter_add("netsim.fault.blocked_units", blocked);
        obs::counter_add("netsim.fault.dropped_units", dropped);
        true
    }

    /// Captures the complete simulator state as plain data (see
    /// [`crate::snapshot::FaultSimState`]). `capture` + [`FaultSim::from_state`]
    /// round-trips bit-identically: the restored simulator produces the
    /// same [`SlotOutcome`]s, completions, and executed trace as the
    /// original for any subsequent move sequence.
    pub fn capture(&self) -> crate::snapshot::FaultSimState {
        let n = self.remaining.len();
        crate::snapshot::FaultSimState {
            m: self.m,
            remaining: (0..n).map(|k| self.remaining.to_matrix(k)).collect(),
            remaining_total: (0..n).map(|k| self.remaining.total(k)).collect(),
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
    /// The executed trace is recorded anew, so it holds maximal runs even
    /// when it was captured with one run per slot. A run that overlaps the
    /// one before it or ends after the clock is refused (the next recorded
    /// slot would overlap it), as is one that books more units on a pair
    /// than it lasts, rather than replayed short. The blocked log is
    /// recorded anew too, so one entry per unit restores to maximal runs;
    /// a log no run writes is refused (a unit off the fabric or the
    /// instance, in slot 0 or after the clock, out of slot order, sharing
    /// a port with another unit of its slot, or past the cap), as is a
    /// `blocked_units` other than the logged units plus
    /// `blocked_log_dropped`, and a coflow complete or cancelled with
    /// residual demand, or in flight without any.
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
        let residual: Vec<Demand> = state.remaining.iter().map(Demand::from).collect();
        let remaining = SparseDemand::new(state.m, &residual);
        if (0..n).any(|k| remaining.total(k) != state.remaining_total[k]) {
            return bad("remaining_total disagrees with the residual demand");
        }
        // A coflow is settled exactly when it has no residual: the
        // unsettled count is kept on that.
        let mut unsettled = 0;
        for k in 0..n {
            let settled = state.completion[k].is_some() || state.cancelled[k];
            if settled == (remaining.total(k) > 0) {
                let what = if settled {
                    "complete or cancelled"
                } else {
                    "in flight"
                };
                return Err(crate::snapshot::SnapshotError::new(format!(
                    "coflow {} is {} but has {} residual units",
                    k,
                    what,
                    remaining.total(k)
                )));
            }
            unsettled += usize::from(!settled);
        }
        let mut sim = FaultSim {
            m: state.m,
            remaining,
            last_release: state.releases.iter().copied().max().unwrap_or(0),
            releases: state.releases,
            completion: state.completion,
            last_activity: state.last_activity,
            cancelled: state.cancelled,
            unsettled,
            now: state.now,
            index: FaultIndex::new(&state.plan, state.m, n),
            cancel_cursor: 0,
            plan: state.plan,
            executed: ScheduleTrace::new(state.m),
            blocked_units: 0,
            blocked_log: Vec::new(),
            blocked_log_dropped: 0,
            last_blocked: vec![None; state.m],
            src_used: vec![false; state.m],
            dst_used: vec![false; state.m],
            scratch: ExecBuffers::default(),
            booking: Booking::default(),
            memo: EntryMemo::new(state.m),
        };
        sim.record_executed(&state.executed, state.now)?;
        sim.record_blocked_log(&state.blocked_log, state.now)?;
        let counted = sim.blocked_units.checked_add(state.blocked_log_dropped);
        if counted != Some(state.blocked_units) {
            return Err(crate::snapshot::SnapshotError::new(format!(
                "blocked_units {} is not the {} logged units plus the {} dropped",
                state.blocked_units, sim.blocked_units, state.blocked_log_dropped
            )));
        }
        sim.blocked_units = state.blocked_units;
        sim.blocked_log_dropped = state.blocked_log_dropped;
        Ok(sim)
    }

    /// Records a captured blocked log through [`FaultSim::record_blocked`],
    /// unit by unit in [`BlockedUnits`] order, so it restores to maximal
    /// runs whether it was captured as runs or as one entry per unit, in
    /// any order within a slot. Refuses a log that no run of this
    /// simulator writes: more units than the cap, an id outside the fabric
    /// or the instance, a run of zero slots, a unit in slot 0 or after the
    /// clock `now`, runs out of slot order, or two units on one ingress or
    /// one egress in one slot.
    fn record_blocked_log(
        &mut self,
        log: &[BlockedRun],
        now: u64,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let bad = |msg: String| Err(crate::snapshot::SnapshotError::new(msg));
        let (m, n) = (self.m, self.remaining.len());
        let units = log.iter().try_fold(0u64, |sum, r| sum.checked_add(r.slots));
        if units.is_none_or(|u| u > MAX_BLOCKED_LOG) {
            return bad(format!(
                "blocked log holds more than its cap of {} units",
                MAX_BLOCKED_LOG
            ));
        }
        // Per port: the slot of its last blocked unit so far (0 for none).
        let (mut src_busy, mut dst_busy) = (vec![0u64; m], vec![0u64; m]);
        let mut first = 0;
        for run in log {
            let (i, j, k) = (run.src(), run.dst(), run.coflow());
            if i >= m || j >= m || k >= n {
                return bad(format!(
                    "blocked unit ({}, {}, coflow {}) is outside the instance",
                    i, j, k
                ));
            }
            let last = run.start.checked_add(run.slots.saturating_sub(1));
            let Some(last) = last.filter(|&l| run.slots > 0 && run.start > 0 && l <= now) else {
                return bad(format!(
                    "blocked run of {} slots from slot {} is not within slots 1..={}",
                    run.slots, run.start, now
                ));
            };
            if run.start < first {
                return bad(format!(
                    "blocked log goes back from slot {} to slot {}",
                    first, run.start
                ));
            }
            first = run.start;
            for (busy, port, side) in [(&mut src_busy, i, "ingress"), (&mut dst_busy, j, "egress")]
            {
                if run.start <= busy[port] {
                    return bad(format!(
                        "two blocked units on {} {} in slot {}",
                        side, port, run.start
                    ));
                }
                busy[port] = last;
            }
        }
        for (slot, run) in BlockedUnits::new(log) {
            self.record_blocked(slot, (run.src(), run.dst()), run.coflow());
        }
        Ok(())
    }

    /// Records a captured executed trace, whose slots all lie at or before
    /// `now`, run by run. Each run is cut where one of its transfers starts
    /// or ends; every slot of a piece delivers the same units, so the piece
    /// is recorded as one stretch.
    fn record_executed(
        &mut self,
        executed: &ScheduleTrace,
        now: u64,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let bad = |msg: String| Err(crate::snapshot::SnapshotError::new(msg));
        let mut booking = Booking::default();
        let mut cuts: Vec<u64> = Vec::new();
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        let mut free_from = 0;
        for run in &executed.runs {
            let Some(end) = run.start.checked_add(run.duration) else {
                return bad(format!("executed run at {} ends past u64", run.start));
            };
            if run.start < free_from {
                return bad(format!(
                    "executed run at {} starts before the previous run ends",
                    run.start
                ));
            }
            if end > now.saturating_add(1) {
                return bad(format!(
                    "executed run at {} ends after the clock ({})",
                    run.start, now
                ));
            }
            free_from = end;
            if let Err(e) = booking.book(run) {
                return bad(format!("executed {}", e));
            }
            let segments = || {
                let starts = booking.starts.iter();
                run.transfers.iter().zip(starts).map(|(t, &(_, a))| (t, a))
            };
            cuts.clear();
            cuts.extend([0, run.duration]);
            cuts.extend(segments().flat_map(|(t, a)| [a, a + t.units]));
            cuts.sort_unstable();
            cuts.dedup();
            for piece in cuts.windows(2) {
                let (x, y) = (piece[0], piece[1]);
                moves.clear();
                moves.extend(
                    segments()
                        .filter(|&(t, a)| a <= x && x < a + t.units)
                        .map(|(t, _)| (t.src(), t.dst(), t.coflow())),
                );
                self.record_stretch(run.start + x, y - x, &moves);
            }
        }
        Ok(())
    }

    /// Finishes execution, handing over the executed trace (each run a
    /// maximal stretch of consecutive slots that deliver the same units),
    /// completion slots (`None` = cancelled before completion), the count
    /// of fault-stranded planned units, and the blocked log
    /// ([`FaultSim::blocked_log`]).
    pub fn finish(self) -> (ScheduleTrace, Vec<Option<u64>>, u64, Vec<BlockedRun>) {
        (
            self.executed,
            self.completion,
            self.blocked_units,
            self.blocked_log,
        )
    }
}

/// A trace run's transfers booked onto its distinct pairs, reused across
/// runs: transfer `t` on pair `p` owns the contiguous within-run offsets
/// `[a, a + units)` after the units of earlier transfers on the same pair
/// (exactly [`Run::slot_moves`]).
#[derive(Clone, Debug, Default)]
struct Booking {
    /// `(src, dst, units)` per distinct pair, in first-listed order.
    pairs: Vec<(usize, usize, u64)>,
    /// Per transfer: its pair's index in `pairs` and its first offset `a`.
    starts: Vec<(usize, u64)>,
}

impl Booking {
    /// Books `run`, refusing it if a pair's units overflow or exceed the
    /// run's duration.
    fn book(&mut self, run: &Run) -> Result<(), SimError> {
        self.pairs.clear();
        self.starts.clear();
        for t in run.transfers.iter() {
            let (src, dst) = (t.src(), t.dst());
            let p = match self
                .pairs
                .iter()
                .position(|&(i, j, _)| i == src && j == dst)
            {
                Some(p) => p,
                None => {
                    self.pairs.push((src, dst, 0));
                    self.pairs.len() - 1
                }
            };
            let a = self.pairs[p].2;
            match a.checked_add(t.units) {
                Some(b) if b <= run.duration => self.pairs[p].2 = b,
                total => {
                    return Err(SimError::PairOverCapacity {
                        start: run.start,
                        src,
                        dst,
                        units: total.unwrap_or(u64::MAX),
                        capacity: run.duration,
                    })
                }
            }
            self.starts.push((p, a));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(units: u64) -> Demand {
        Demand::from_flows(2, [(0, 1, units)]).expect("a 2-port flow")
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
            FaultEvent::IngressOutage {
                port: 0,
                start: 3,
                end: 5,
            },
            FaultEvent::EgressOutage {
                port: 1,
                start: 10,
                end: 10,
            },
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
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 1,
            end: 2,
        }]);
        let mut sim = FaultSim::new(2, &[demand(3)], &[0], plan);
        // Slots 1 and 2 blocked, 3..5 deliver.
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(sim.blocked_units(), 2);
        assert_eq!(sim.completion_times(), &[Some(5)]);
        let (trace, times, blocked, _) = sim.finish();
        assert_eq!(times, vec![Some(5)]);
        assert_eq!(blocked, 2);
        assert_eq!(trace.total_units(), 3);
        let mut slots = Vec::new();
        trace.for_each_slot(|slot, moves| slots.push((slot, moves.to_vec())));
        let unit = vec![(0, 1, 0)];
        assert_eq!(
            slots,
            vec![(3, unit.clone()), (4, unit.clone()), (5, unit)],
            "only delivering slots are recorded"
        );
        assert_eq!(trace.runs.len(), 1, "three identical slots are one run");
    }

    #[test]
    fn blocked_log_records_each_denied_unit() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 1,
            end: 2,
        }]);
        let mut sim = FaultSim::new(2, &[demand(3)], &[0], plan);
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(
            sim.blocked_log(),
            &[BlockedRun::new(1, 2, 0, 1, 0).unwrap()],
            "slots 1 and 2 are one run"
        );
        let units: Vec<(u64, usize)> = BlockedUnits::new(sim.blocked_log())
            .map(|(slot, run)| (slot, run.coflow()))
            .collect();
        assert_eq!(units, [(1, 0), (2, 0)]);
        assert_eq!(sim.blocked_log_dropped(), 0);
    }

    #[test]
    fn blocked_run_is_32_bytes() {
        assert_eq!(std::mem::size_of::<BlockedRun>(), 32);
        assert!(BlockedRun::new(1, 1, 1 << 32, 0, 0).is_none());
    }

    #[test]
    fn blocked_units_walk_slot_major_in_run_order() {
        let run = |start, slots, src| BlockedRun::new(start, slots, src, 0, 0).unwrap();
        let log = [
            run(1, 3, 0),
            run(2, 1, 1),
            run(2, 0, 3),
            run(6, 2, 2),
            run(7, 1, 3),
        ];
        let units: Vec<(u64, usize)> = BlockedUnits::new(&log)
            .map(|(slot, r)| (slot, r.src()))
            .collect();
        assert_eq!(
            units,
            [(1, 0), (2, 0), (2, 1), (3, 0), (6, 2), (7, 2), (7, 3)]
        );
    }

    #[test]
    fn blocked_log_caps_units_not_runs() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 1,
            end: 70_000,
        }]);
        let mut sim = FaultSim::new(2, &[demand(5)], &[0], plan);
        sim.apply_run(&[(0, 1, vec![0])], 70_000).unwrap();
        assert_eq!(sim.blocked_units(), 70_000);
        assert_eq!(
            sim.blocked_log(),
            &[BlockedRun::new(1, 65_536, 0, 1, 0).unwrap()]
        );
        assert_eq!(sim.blocked_log_dropped(), 70_000 - 65_536);
        let restored = FaultSim::from_state(sim.capture()).unwrap();
        assert_eq!(restored.capture(), sim.capture());
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

    /// The unsettled count agrees with a scan of the coflows through
    /// completions, a cancellation that finds its coflow already complete,
    /// one that fires, and capture / restore round trips; a restore that
    /// marks a coflow with residual complete is refused.
    #[test]
    fn all_settled_agrees_with_a_scan() {
        fn settled(sim: &FaultSim) -> bool {
            let scan = (0..sim.completion_times().len())
                .all(|k| sim.completion_times()[k].is_some() || sim.is_cancelled(k));
            assert_eq!(sim.all_settled(), scan);
            scan
        }
        let round_trip = |sim: &FaultSim| FaultSim::from_state(sim.capture()).unwrap();
        let plan = FaultPlan::new(vec![
            FaultEvent::CoflowCancelled { coflow: 0, at: 2 },
            FaultEvent::CoflowCancelled { coflow: 2, at: 3 },
        ]);
        let back = Demand::from_flows(2, [(1, 0, 2)]).expect("a 2-port flow");
        let demands = [demand(1), demand(0), demand(4), back];
        let mut sim = FaultSim::new(2, &demands, &[0; 4], plan);
        assert!(!settled(&sim));
        sim.step(&[(0, 1, 0), (1, 0, 3)]).unwrap();
        assert_eq!(sim.completion_times()[0], Some(1));
        // A count restored from a settled coflow with residual would wrap.
        let mut doctored = sim.capture();
        doctored.completion[2] = Some(1);
        assert!(FaultSim::from_state(doctored).is_err());
        let mut sim = round_trip(&sim);
        assert!(!settled(&sim));
        sim.step(&[(0, 1, 2), (1, 0, 3)]).unwrap();
        assert!(!sim.is_cancelled(0), "complete before its cancellation");
        assert_eq!(sim.completion_times()[3], Some(2));
        assert!(!settled(&sim));
        sim.step(&[(0, 1, 2)]).unwrap();
        assert!(sim.is_cancelled(2));
        assert!(settled(&sim));
        assert!(settled(&round_trip(&sim)));
    }

    #[test]
    fn structural_violations_error() {
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 0), (0, 0, 1)]).unwrap_err(),
            SimError::PortMatchedTwice {
                slot: 1,
                port: 0,
                ingress: true
            }
        );
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 7)]).unwrap_err(),
            SimError::UnknownCoflow { coflow: 7 }
        );
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 1)]).unwrap_err(),
            SimError::ReleaseViolated {
                slot: 1,
                coflow: 1,
                release: 5
            }
        );
    }

    #[test]
    fn execute_trace_respects_stop_boundary() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 4,
            transfers: Box::new([Transfer::new(0, 1, 0, 4).unwrap()]),
        });
        let mut sim = FaultSim::new(2, &[demand(4)], &[0], FaultPlan::default());
        sim.execute_trace(&trace, Some(3)).unwrap();
        assert_eq!(sim.now(), 2, "slots 1 and 2 only");
        assert_eq!(sim.remaining_total(0), 2);
        // Resume the same trace: the done prefix is skipped, and slots 3
        // and 4 extend the run slots 1 and 2 started.
        sim.execute_trace(&trace, None).unwrap();
        assert_eq!(sim.completion_times(), &[Some(4)]);
        assert_eq!(sim.capture().executed, trace);
    }

    #[test]
    fn held_head_cancelled_in_the_first_slot_is_dropped() {
        // Coflow 0 heads pair (0, 1) when the hold starts in slot 3, the
        // slot its cancellation takes effect: the unit is dropped there,
        // and coflow 1 takes the pair from slot 4 on.
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 3 }]);
        let pairs = [(0, 1, vec![0, 1])];
        let mut fast = FaultSim::new(2, &[demand(5), demand(2)], &[0, 0], plan);
        fast.apply_run(&pairs, 2).unwrap();
        let mut slow = fast.clone();
        fast.apply_run(&pairs, 3).unwrap();
        slow.apply_run_slotwise(&pairs, 3).unwrap();
        assert_eq!(fast.capture(), slow.capture());
        assert!(fast.is_cancelled(0));
        assert_eq!(fast.remaining_total(0), 0);
        assert_eq!(fast.completion_times(), &[None, Some(5)]);
        let (trace, ..) = fast.finish();
        let mut served: Vec<(u64, usize)> = Vec::new();
        trace.for_each_slot(|slot, moves| served.extend(moves.iter().map(|&(.., k)| (slot, k))));
        assert_eq!(served, vec![(1, 0), (2, 0), (4, 1), (5, 1)]);
    }

    #[test]
    fn apply_run_falls_back_to_report_structural_errors() {
        let mut sim = FaultSim::new(2, &[demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.apply_run(&[(0, 1, vec![1])], 2).unwrap_err(),
            SimError::ReleaseViolated {
                slot: 1,
                coflow: 1,
                release: 5
            }
        );
        let d = Demand::from_flows(2, [(0, 1, 2), (0, 0, 1)]).expect("2-port flows");
        let mut sim = FaultSim::new(2, &[d], &[0], FaultPlan::default());
        assert_eq!(
            sim.apply_run(&[(0, 1, vec![0]), (0, 0, vec![0])], 1)
                .unwrap_err(),
            SimError::PortMatchedTwice {
                slot: 1,
                port: 0,
                ingress: true
            }
        );
        let mut sim = FaultSim::new(2, &[demand(2)], &[0], FaultPlan::default());
        assert_eq!(
            sim.apply_run(&[(0, 1, vec![3])], 1).unwrap_err(),
            SimError::UnknownCoflow { coflow: 3 }
        );
        assert_eq!(
            sim.apply_run(&[(0, 2, vec![0])], 1).unwrap_err(),
            SimError::PortOutOfRange { port: 2, ports: 2 }
        );
    }

    #[test]
    fn fully_blocked_epoch_still_advances_the_clock() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 0,
            start: 1,
            end: 9,
        }]);
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 2,
            transfers: Box::new([Transfer::new(0, 1, 0, 2).unwrap()]),
        });
        let mut sim = FaultSim::new(2, &[demand(2)], &[0], plan);
        sim.execute_trace(&trace, Some(5)).unwrap();
        assert_eq!(sim.now(), 4, "clock lands on the epoch boundary");
        assert_eq!(sim.remaining_total(0), 2, "demand stranded");
        assert_eq!(sim.blocked_units(), 2);
    }

    /// Under the empty plan a hold is served in bulk: a shared pair drains
    /// its list in priority order, each coflow completing at the slot of
    /// its last unit, the budget caps what a hold moves, and a coflow
    /// without demand completes at its release.
    #[test]
    fn bulk_hold_serves_in_priority_order() {
        let demands = [demand(3), demand(2), demand(10), demand(0)];
        let mut sim = FaultSim::new(2, &demands, &[0, 0, 0, 7], FaultPlan::default());
        assert_eq!(sim.completion_times()[3], Some(7));
        sim.apply_run(&[(0, 1, vec![0, 1, 2])], 9).unwrap();
        assert_eq!(sim.completion_times()[..3], [Some(3), Some(5), None]);
        assert_eq!(sim.remaining_total(2), 6, "the hold's budget caps coflow 2");
        assert_eq!(sim.now(), 9);
        let stretches: Vec<(u64, u64, usize)> = sim
            .capture()
            .executed
            .runs
            .iter()
            .map(|r| (r.start, r.duration, r.transfers[0].coflow()))
            .collect();
        assert_eq!(stretches, [(1, 3, 0), (4, 2, 1), (6, 4, 2)]);
    }
}
