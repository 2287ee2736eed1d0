//! Execution of matching schedules on the non-blocking switch fabric.
//!
//! Time is slotted; slot `t ∈ {1, 2, …}` is the `t`-th unit interval. Each
//! ingress sends at most one data unit per slot and each egress receives at
//! most one (constraints (2)–(3) of the paper). A coflow with release date
//! `r_k` may first be served in slot `r_k + 1`.
//!
//! Two executors are provided:
//!
//! * [`Fabric`] — run-length executor: applies a matching for `q`
//!   consecutive slots at once, serving each port pair from a priority-
//!   ordered list of coflows (this is where backfilling happens). Exact
//!   per-slot completion times are recovered from the within-run offsets.
//!   Its remaining demand is a [`SparseDemand`] over the coflows' nonzero
//!   pairs, concatenated from the borrowed demands; a listed coflow's
//!   entry on a pair is found by binary search over its pairs, unless the
//!   last lookup at the pair's ingress was for the same coflow and pair.
//! * [`SlotSim`] — a literal slot-by-slot executor over dense matrices,
//!   used to cross-check the run-length arithmetic in tests.

use crate::demand::{Demand, DemandView, EntryMemo, SparseDemand};
use crate::trace::{Run, ScheduleTrace, Transfer};
use coflow_matching::IntMatrix;

/// Run-length schedule executor and completion-time bookkeeper.
#[derive(Clone, Debug)]
pub struct Fabric {
    m: usize,
    /// Remaining demand per coflow, over its nonzero pairs.
    remaining: SparseDemand,
    releases: Vec<u64>,
    /// Completion slot per coflow (`None` while unfinished; coflows with no
    /// demand complete at their release date).
    completion: Vec<Option<u64>>,
    /// Last slot in which each coflow moved a unit (0 if never).
    last_activity: Vec<u64>,
    /// Count of coflows not yet complete, kept in sync with `completion`
    /// so `all_done` is O(1) on the engine's per-decision check.
    unfinished: usize,
    now: u64,
    trace: ScheduleTrace,
    /// Scratch port-occupancy masks reused across `apply_run` calls.
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    /// The run `apply_run` is building, reused across calls; each run
    /// keeps an exact-size copy.
    transfers: Vec<Transfer>,
    /// Entry lookups of `apply_run`, remembered per ingress.
    memo: EntryMemo,
}

impl Fabric {
    /// Creates a fabric loaded with the given coflow demands and release
    /// dates. All demands must be on `m` ports; they are read once, not
    /// kept.
    pub fn new<'a>(
        m: usize,
        demands: impl IntoIterator<Item = &'a Demand>,
        releases: &[u64],
    ) -> Self {
        let remaining = SparseDemand::new(m, demands);
        assert_eq!(remaining.len(), releases.len());
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
        let unfinished = completion.iter().filter(|c| c.is_none()).count();
        Fabric {
            m,
            last_activity: vec![0; releases.len()],
            remaining,
            releases: releases.to_vec(),
            completion,
            unfinished,
            now: 0,
            trace: ScheduleTrace::new(m),
            src_used: vec![false; m],
            dst_used: vec![false; m],
            transfers: Vec::new(),
            memo: EntryMemo::new(m),
        }
    }

    /// Current time (end of the last executed slot).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Fabric size.
    pub fn dim(&self) -> usize {
        self.m
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

    /// True when all coflows have completed.
    pub fn all_done(&self) -> bool {
        self.unfinished == 0
    }

    /// Completion slots (`None` for unfinished coflows).
    pub fn completion_times(&self) -> &[Option<u64>] {
        &self.completion
    }

    /// Advances the clock to `t ≥ now` without transferring anything.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "cannot move time backwards");
        self.now = t;
    }

    /// Applies a matching for `duration` consecutive slots.
    ///
    /// `pairs` assigns to each used port pair a priority-ordered list of
    /// coflow indices; the pair serves coflows in that order, exhausting
    /// each one's remaining demand on the pair before moving on (this is the
    /// paper's in-group priority + backfilling rule). Each ingress and each
    /// egress may appear in at most one pair. Every listed coflow must have
    /// been released (`r_k ≤ now`).
    pub fn apply_run(&mut self, pairs: &[(usize, usize, Vec<usize>)], duration: u64) {
        assert!(duration > 0, "runs must last at least one slot");
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let start = self.now + 1;
        self.transfers.clear();
        for (i, j, prio) in pairs {
            assert!(
                !self.src_used[*i] && !self.dst_used[*j],
                "matching constraint violated: port reused within a run"
            );
            self.src_used[*i] = true;
            self.dst_used[*j] = true;
            let mut budget = duration;
            let mut used: u64 = 0;
            for &k in prio {
                if budget == 0 {
                    break;
                }
                assert!(
                    self.releases[k] <= self.now,
                    "coflow {} scheduled before its release date",
                    k
                );
                let Some(e) = self.memo.find(&self.remaining, k, *i, *j) else {
                    continue;
                };
                let take = self.remaining.units(e).min(budget);
                if take == 0 {
                    continue;
                }
                self.remaining.take(k, e, take);
                budget -= take;
                used += take;
                let Some(transfer) = Transfer::new(*i, *j, k, take) else {
                    panic!("port or coflow id does not fit in u32");
                };
                self.transfers.push(transfer);
                // This transfer's last unit moves in slot (start - 1) + used;
                // pairs run in parallel, so the coflow's completion is the
                // max of this over all its transfers.
                let done_at = start - 1 + used;
                self.last_activity[k] = self.last_activity[k].max(done_at);
                if self.remaining.total(k) == 0 {
                    let prev = self.completion[k].replace(self.last_activity[k]);
                    debug_assert!(prev.is_none(), "coflow completed twice");
                    self.unfinished -= 1;
                }
            }
        }
        self.now += duration;
        obs::counter_add("netsim.fabric.slots", duration);
        self.trace.push_run(Run {
            start,
            duration,
            transfers: self.transfers.as_slice().into(),
        });
    }

    /// Finishes execution, returning the recorded trace and completion times.
    ///
    /// Panics if any coflow is unfinished — schedulers are expected to run
    /// instances to completion.
    pub fn finish(self) -> (ScheduleTrace, Vec<u64>) {
        let times = self
            .completion
            .iter()
            .enumerate()
            .map(|(k, c)| c.unwrap_or_else(|| panic!("coflow {} unfinished", k)))
            .collect();
        (self.trace, times)
    }

    /// Finishes execution without requiring completion.
    pub fn finish_partial(self) -> (ScheduleTrace, Vec<Option<u64>>) {
        (self.trace, self.completion)
    }
}

/// Literal slot-by-slot executor used for cross-validation in tests.
#[derive(Clone, Debug)]
pub struct SlotSim {
    m: usize,
    remaining: Vec<IntMatrix>,
    remaining_total: Vec<u64>,
    releases: Vec<u64>,
    completion: Vec<Option<u64>>,
    now: u64,
}

impl SlotSim {
    /// Creates a slot-level simulator.
    pub fn new(m: usize, demands: &[IntMatrix], releases: &[u64]) -> Self {
        let remaining_total: Vec<u64> = demands.iter().map(IntMatrix::total).collect();
        let completion = remaining_total
            .iter()
            .zip(releases)
            .map(|(&tot, &r)| if tot == 0 { Some(r) } else { None })
            .collect();
        SlotSim {
            m,
            remaining: demands.to_vec(),
            remaining_total,
            releases: releases.to_vec(),
            completion,
            now: 0,
        }
    }

    /// Executes one slot: each `(i, j, k)` moves one unit of coflow `k`
    /// from `i` to `j`. Ports must not repeat; demands must exist; `k` must
    /// be released.
    pub fn step(&mut self, moves: &[(usize, usize, usize)]) {
        let t = self.now + 1;
        let mut src_used = vec![false; self.m];
        let mut dst_used = vec![false; self.m];
        for &(i, j, k) in moves {
            assert!(!src_used[i] && !dst_used[j], "port reused in slot");
            src_used[i] = true;
            dst_used[j] = true;
            assert!(self.releases[k] < t, "coflow served before release");
            assert!(self.remaining[k][(i, j)] > 0, "no demand to serve");
            self.remaining[k][(i, j)] -= 1;
            self.remaining_total[k] -= 1;
            if self.remaining_total[k] == 0 {
                self.completion[k] = Some(t);
            }
        }
        self.now = t;
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Completion slots so far.
    pub fn completion_times(&self) -> &[Option<u64>] {
        &self.completion
    }

    /// True when everything has been delivered.
    pub fn all_done(&self) -> bool {
        self.completion.iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Vec<Demand> {
        vec![IntMatrix::from_nested(&[[1, 2], [2, 1]]).into()]
    }

    #[test]
    fn fig1_completes_in_three_slots() {
        // Matchings from the paper: identity, then anti-diagonal twice.
        let demands = fig1();
        let mut f = Fabric::new(2, &demands, &[0]);
        f.apply_run(&[(0, 0, vec![0]), (1, 1, vec![0])], 1);
        f.apply_run(&[(0, 1, vec![0]), (1, 0, vec![0])], 2);
        assert!(f.all_done());
        let (trace, times) = f.finish();
        assert_eq!(times, vec![3]);
        assert_eq!(trace.makespan(), 3);
        assert_eq!(trace.total_units(), 6);
    }

    #[test]
    fn completion_at_exact_offset_within_run() {
        // One pair, demand 2, run of 5 slots: completes at slot 2.
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 2;
        let mut f = Fabric::new(2, &[Demand::from(d)], &[0]);
        f.apply_run(&[(0, 1, vec![0])], 5);
        assert_eq!(f.completion_times(), &[Some(2)]);
        assert_eq!(f.now(), 5);
    }

    #[test]
    fn backfill_order_determines_completions() {
        // Two coflows share pair (0,1): priority [0, 1], demands 3 and 2.
        let mut d0 = IntMatrix::zeros(2);
        d0[(0, 1)] = 3;
        let mut d1 = IntMatrix::zeros(2);
        d1[(0, 1)] = 2;
        let mut f = Fabric::new(2, &[Demand::from(d0), Demand::from(d1)], &[0, 0]);
        f.apply_run(&[(0, 1, vec![0, 1])], 10);
        assert_eq!(f.completion_times(), &[Some(3), Some(5)]);
    }

    #[test]
    fn zero_demand_coflow_completes_at_release() {
        let d = IntMatrix::zeros(2);
        let f = Fabric::new(2, &[Demand::from(d)], &[7]);
        assert_eq!(f.completion_times(), &[Some(7)]);
        assert!(f.all_done());
    }

    #[test]
    fn advance_to_models_idle_waiting() {
        let mut d = IntMatrix::zeros(2);
        d[(1, 0)] = 1;
        let mut f = Fabric::new(2, &[Demand::from(d)], &[4]);
        f.advance_to(4);
        f.apply_run(&[(1, 0, vec![0])], 1);
        assert_eq!(f.completion_times(), &[Some(5)]);
    }

    #[test]
    #[should_panic(expected = "before its release")]
    fn release_dates_enforced() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        let mut f = Fabric::new(2, &[Demand::from(d)], &[3]);
        f.apply_run(&[(0, 0, vec![0])], 1);
    }

    #[test]
    #[should_panic(expected = "matching constraint")]
    fn duplicate_src_rejected() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        d[(0, 1)] = 1;
        let mut f = Fabric::new(2, &[Demand::from(d)], &[0]);
        f.apply_run(&[(0, 0, vec![0]), (0, 1, vec![0])], 1);
    }

    #[test]
    fn slot_sim_matches_fabric_on_shared_pair() {
        let mut d0 = IntMatrix::zeros(2);
        d0[(0, 1)] = 2;
        let mut d1 = IntMatrix::zeros(2);
        d1[(0, 1)] = 1;
        let demands = [d0, d1];

        let mut f = Fabric::new(2, &demands.clone().map(Demand::from), &[0, 0]);
        f.apply_run(&[(0, 1, vec![0, 1])], 3);

        let mut s = SlotSim::new(2, &demands, &[0, 0]);
        s.step(&[(0, 1, 0)]);
        s.step(&[(0, 1, 0)]);
        s.step(&[(0, 1, 1)]);

        assert_eq!(f.completion_times(), s.completion_times());
    }

    #[test]
    fn budget_caps_transfers() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 10;
        let mut f = Fabric::new(2, &[Demand::from(d)], &[0]);
        f.apply_run(&[(0, 1, vec![0])], 4);
        assert_eq!(f.remaining(0, 0, 1), 6);
        assert!(!f.all_done());
        let (_, c) = f.finish_partial();
        assert_eq!(c, vec![None]);
    }
}
