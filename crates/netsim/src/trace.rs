//! Run-length encoded matching schedules.
//!
//! The paper's schedules are sequences of *matchings*, each held for some
//! number of consecutive slots (`q_u` in Algorithm 1). A [`ScheduleTrace`]
//! records exactly that: non-overlapping [`Run`]s, each pairing ports in a
//! (partial) matching and transferring units of specific coflows. Multiple
//! coflows may share a port pair within a run — that is how backfilling
//! manifests — as long as their total does not exceed the run's duration.

/// Data movement of one coflow on one port pair within a run.
///
/// The three ids are stored as `u32`, so a transfer takes 24 bytes; they
/// are checked once, in [`Transfer::new`], and read back as `usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    src: u32,
    dst: u32,
    coflow: u32,
    /// Units transferred (1 unit = 1 slot of the pair's capacity).
    pub units: u64,
}

impl Transfer {
    /// A transfer of `units` units of coflow `coflow` from ingress `src`
    /// to egress `dst`; `None` when an id does not fit in `u32`.
    pub fn new(src: usize, dst: usize, coflow: usize, units: u64) -> Option<Transfer> {
        Some(Transfer {
            src: u32::try_from(src).ok()?,
            dst: u32::try_from(dst).ok()?,
            coflow: u32::try_from(coflow).ok()?,
            units,
        })
    }

    /// Ingress port.
    pub fn src(&self) -> usize {
        self.src as usize
    }

    /// Egress port.
    pub fn dst(&self) -> usize {
        self.dst as usize
    }

    /// Coflow index.
    pub fn coflow(&self) -> usize {
        self.coflow as usize
    }
}

/// A matching held for `duration` consecutive slots starting at `start`.
///
/// Within a run each ingress appears with at most one egress and vice versa
/// (the matching constraints (2)–(3) of the paper); transfers on the same
/// pair are processed in the order listed, which encodes coflow priority for
/// completion-time accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// First time slot of the run (slots are 1-indexed: the first slot of
    /// the horizon is slot 1, matching the paper's `t = 1, 2, …`).
    pub start: u64,
    /// Number of consecutive slots.
    pub duration: u64,
    /// Transfers, grouped by pair in priority order, at exact size.
    pub transfers: Box<[Transfer]>,
}

impl Run {
    /// Total units moved during this run.
    pub fn total_units(&self) -> u64 {
        self.transfers.iter().map(|t| t.units).sum()
    }

    /// Expands the run into per-slot unit moves: element `o` lists the
    /// `(src, dst, coflow)` units moved in slot `start + o`. Within a run
    /// each pair serves its transfers in listed (priority) order, so the
    /// unit at offset `o` on a pair belongs to the transfer covering that
    /// offset; offsets past a pair's total are idle for that pair. Panics
    /// if a pair's transfers book more units than the run lasts.
    pub fn slot_moves(&self) -> Vec<Vec<(usize, usize, usize)>> {
        let mut slots: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); self.duration as usize];
        // Per-pair consumed units, indexed flat by source port. A valid
        // run is a matching, so each source's list holds one destination;
        // unvalidated runs (the slot-wise fallback path feeds them here)
        // may pair a source with several, hence the inner list.
        let bound = self
            .transfers
            .iter()
            .map(|t| t.src() + 1)
            .max()
            .unwrap_or(0);
        let mut pair_used: Vec<Vec<(usize, u64)>> = vec![Vec::new(); bound];
        for t in &self.transfers {
            let list = &mut pair_used[t.src()];
            let slot = match list.iter().position(|(d, _)| *d == t.dst()) {
                Some(i) => i,
                None => {
                    list.push((t.dst(), 0));
                    list.len() - 1
                }
            };
            let used = &mut list[slot].1;
            for o in *used..*used + t.units {
                slots[o as usize].push((t.src(), t.dst(), t.coflow()));
            }
            *used += t.units;
        }
        slots
    }
}

/// A complete run-length schedule for an `m × m` fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Fabric size.
    pub m: usize,
    /// Runs in increasing time order; runs must not overlap.
    pub runs: Vec<Run>,
}

impl ScheduleTrace {
    /// Creates an empty trace for an `m × m` fabric.
    pub fn new(m: usize) -> Self {
        ScheduleTrace {
            m,
            runs: Vec::new(),
        }
    }

    /// Appends a run; panics if it starts before the previous run ends.
    pub fn push_run(&mut self, run: Run) {
        if let Some(last) = self.runs.last() {
            assert!(
                run.start >= last.start + last.duration,
                "runs must not overlap: new start {} < previous end {}",
                run.start,
                last.start + last.duration
            );
        }
        self.runs.push(run);
    }

    /// The last slot used by the schedule (its makespan).
    pub fn makespan(&self) -> u64 {
        self.runs
            .last()
            .map(|r| r.start + r.duration - 1)
            .unwrap_or(0)
    }

    /// Total units moved by the whole schedule.
    pub fn total_units(&self) -> u64 {
        self.runs.iter().map(Run::total_units).sum()
    }

    /// Visits every scheduled slot in time order as `(slot, unit moves)`.
    /// Idle slots between runs are skipped; idle slots *within* a run are
    /// visited with an empty move list.
    ///
    /// Equivalent to walking [`Run::slot_moves`] but with three reused
    /// buffers instead of a `Vec` per slot and a hash map per run — this is
    /// the path the flight recorder and diagnostics replay, where runs can
    /// span five-figure slot counts.
    pub fn for_each_slot<F: FnMut(u64, &[(usize, usize, usize)])>(&self, mut f: F) {
        let mut buf: Vec<(usize, usize, usize)> = Vec::new();
        // Per-transfer offset segments: a transfer owns the contiguous
        // within-run offsets [a, b) after earlier transfers on its pair.
        let mut segs: Vec<(usize, usize, usize, u64, u64)> = Vec::new();
        let mut pairs: Vec<(usize, usize, u64)> = Vec::new();
        for run in &self.runs {
            segs.clear();
            pairs.clear();
            for t in &run.transfers {
                let (src, dst) = (t.src(), t.dst());
                let a = match pairs.iter_mut().find(|p| p.0 == src && p.1 == dst) {
                    Some(p) => {
                        let a = p.2;
                        p.2 += t.units;
                        a
                    }
                    None => {
                        pairs.push((src, dst, t.units));
                        0
                    }
                };
                segs.push((src, dst, t.coflow(), a, a + t.units));
            }
            for o in 0..run.duration {
                buf.clear();
                for &(src, dst, coflow, a, b) in &segs {
                    if a <= o && o < b {
                        buf.push((src, dst, coflow));
                    }
                }
                f(run.start + o, &buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(src: usize, dst: usize, coflow: usize, units: u64) -> Transfer {
        Transfer::new(src, dst, coflow, units).expect("ids fit in u32")
    }

    fn idle(start: u64, duration: u64) -> Run {
        Run {
            start,
            duration,
            transfers: Box::default(),
        }
    }

    #[test]
    fn records_are_compact() {
        assert_eq!(std::mem::size_of::<Transfer>(), 24);
        assert_eq!(std::mem::size_of::<Run>(), 32);
    }

    #[test]
    fn transfer_ids_are_checked_once() {
        let t = tr(3, 5, 7, 9);
        assert_eq!((t.src(), t.dst(), t.coflow(), t.units), (3, 5, 7, 9));
        let max = u32::MAX as usize;
        assert!(Transfer::new(max, max, max, u64::MAX).is_some());
        assert_eq!(Transfer::new(max + 1, 0, 0, 1), None);
        assert_eq!(Transfer::new(0, max + 1, 0, 1), None);
        assert_eq!(Transfer::new(0, 0, max + 1, 1), None);
    }

    #[test]
    fn push_run_ordering_enforced() {
        let mut t = ScheduleTrace::new(2);
        t.push_run(idle(1, 3));
        t.push_run(idle(4, 2));
        assert_eq!(t.makespan(), 5);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_runs_rejected() {
        let mut t = ScheduleTrace::new(2);
        t.push_run(idle(1, 3));
        t.push_run(idle(2, 1));
    }

    #[test]
    fn totals() {
        let mut t = ScheduleTrace::new(2);
        t.push_run(Run {
            start: 1,
            duration: 2,
            transfers: Box::new([tr(0, 1, 0, 2), tr(1, 0, 1, 1)]),
        });
        assert_eq!(t.total_units(), 3);
        assert_eq!(t.makespan(), 2);
    }

    #[test]
    fn slot_expansion_respects_priority_order() {
        // Pair (0,1) serves coflow 0 for 2 slots then coflow 1 for 1 slot;
        // pair (1,0) serves coflow 2 in slot 1 only.
        let run = Run {
            start: 4,
            duration: 3,
            transfers: Box::new([tr(0, 1, 0, 2), tr(0, 1, 1, 1), tr(1, 0, 2, 1)]),
        };
        let slots = run.slot_moves();
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0], vec![(0, 1, 0), (1, 0, 2)]);
        assert_eq!(slots[1], vec![(0, 1, 0)]);
        assert_eq!(slots[2], vec![(0, 1, 1)]);

        let mut trace = ScheduleTrace::new(2);
        trace.push_run(run);
        let mut visited = Vec::new();
        trace.for_each_slot(|slot, moves| visited.push((slot, moves.len())));
        assert_eq!(visited, vec![(4, 2), (5, 1), (6, 1)]);
    }
}
