//! Run-length encoded matching schedules.
//!
//! The paper's schedules are sequences of *matchings*, each held for some
//! number of consecutive slots (`q_u` in Algorithm 1). A [`ScheduleTrace`]
//! records exactly that: non-overlapping [`Run`]s, each a (partial)
//! matching held for `duration` slots, whose every [`Transfer`] moves one
//! unit of its coflow in every slot of the run.

/// One matched port pair of a run and the coflow it serves: a unit of
/// `coflow` moves from ingress `src` to egress `dst` in every slot of the
/// run.
///
/// The three ids are stored as `u32`, so a transfer takes 12 bytes; they
/// are checked once, in [`Transfer::new`], and read back as `usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    src: u32,
    dst: u32,
    coflow: u32,
}

impl Transfer {
    /// Coflow `coflow` served from ingress `src` to egress `dst`; `None`
    /// when an id does not fit in `u32`.
    pub fn new(src: usize, dst: usize, coflow: usize) -> Option<Transfer> {
        Some(Transfer {
            src: u32::try_from(src).ok()?,
            dst: u32::try_from(dst).ok()?,
            coflow: u32::try_from(coflow).ok()?,
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
/// Within a run each ingress appears in at most one transfer and so does
/// each egress (the matching constraints (2)–(3) of the paper), and every
/// transfer moves one unit in every slot: the run moves
/// `duration × transfers.len()` units.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// First time slot of the run (slots are 1-indexed: the first slot of
    /// the horizon is slot 1, matching the paper's `t = 1, 2, …`).
    pub start: u64,
    /// Number of consecutive slots.
    pub duration: u64,
    /// The matched pairs, each with the coflow it serves.
    pub transfers: Box<[Transfer]>,
}

impl Run {
    /// Total units moved during this run: one per transfer per slot.
    pub fn total_units(&self) -> u64 {
        self.duration * self.transfers.len() as u64
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

    /// Visits every scheduled slot in time order as `(slot, unit moves)`:
    /// each slot of a run gets that run's `(src, dst, coflow)` moves, in
    /// listed order. Idle slots between runs are skipped.
    pub fn for_each_slot<F: FnMut(u64, &[(usize, usize, usize)])>(&self, mut f: F) {
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        for run in &self.runs {
            moves.clear();
            moves.extend(run.transfers.iter().map(|t| (t.src(), t.dst(), t.coflow())));
            for o in 0..run.duration {
                f(run.start + o, &moves);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(src: usize, dst: usize, coflow: usize) -> Transfer {
        Transfer::new(src, dst, coflow).expect("ids fit in u32")
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
        assert_eq!(std::mem::size_of::<Transfer>(), 12);
        assert_eq!(std::mem::size_of::<Run>(), 32);
    }

    #[test]
    fn transfer_ids_are_checked_once() {
        let t = tr(3, 5, 7);
        assert_eq!((t.src(), t.dst(), t.coflow()), (3, 5, 7));
        let max = u32::MAX as usize;
        assert!(Transfer::new(max, max, max).is_some());
        assert_eq!(Transfer::new(max + 1, 0, 0), None);
        assert_eq!(Transfer::new(0, max + 1, 0), None);
        assert_eq!(Transfer::new(0, 0, max + 1), None);
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
            transfers: Box::new([tr(0, 1, 0), tr(1, 0, 1)]),
        });
        t.push_run(Run {
            start: 5,
            duration: 3,
            transfers: Box::new([tr(0, 0, 1)]),
        });
        assert_eq!(t.runs[0].total_units(), 4);
        assert_eq!(t.total_units(), 7);
        assert_eq!(t.makespan(), 7);
    }

    #[test]
    fn every_slot_of_a_run_moves_its_transfers() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 4,
            duration: 2,
            transfers: Box::new([tr(0, 1, 0), tr(1, 0, 2)]),
        });
        trace.push_run(Run {
            start: 8,
            duration: 1,
            transfers: Box::new([tr(1, 1, 1)]),
        });
        let mut visited = Vec::new();
        trace.for_each_slot(|slot, moves| visited.push((slot, moves.to_vec())));
        let both = vec![(0, 1, 0), (1, 0, 2)];
        assert_eq!(
            visited,
            vec![(4, both.clone()), (5, both), (8, vec![(1, 1, 1)])]
        );
    }
}
