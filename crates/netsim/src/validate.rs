//! Independent validation of schedule traces.
//!
//! Every scheduler in this project is checked end-to-end: the trace it
//! produces is replayed here against the *original* instance data and the
//! formal constraints of problem (O) — matching constraints per slot, release
//! dates, and exact demand delivery — and completion times are recomputed
//! from scratch. Tests compare these against the scheduler's own accounting.
//!
//! The replay borrows the coflows' demands and concatenates them into a
//! [`SparseDemand`] over their nonzero pairs that it then drains: a
//! transfer finds its coflow's entry on the pair (by binary search, unless
//! the last transfer out of its ingress was on the same coflow and pair),
//! and a pair the coflow never demanded accepts only a zero-unit transfer.

use crate::demand::{Demand, EntryMemo, SparseDemand};
use crate::trace::ScheduleTrace;

/// A violation found while validating a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// An ingress or egress port was matched twice within one run.
    PortReused {
        /// Index of the offending run.
        run: usize,
        /// The reused port.
        port: usize,
        /// True for an ingress port, false for an egress port.
        ingress: bool,
    },
    /// A pair moved more units than the run duration allows.
    PairOverCapacity {
        /// Index of the offending run.
        run: usize,
        /// Ingress of the pair.
        src: usize,
        /// Egress of the pair.
        dst: usize,
        /// Units attempted.
        units: u64,
        /// Slots available.
        capacity: u64,
    },
    /// A coflow's unit was moved in a slot before its release allows.
    ReleaseViolated {
        /// Index of the offending run.
        run: usize,
        /// The coflow.
        coflow: usize,
        /// Slot of the first offending unit.
        slot: u64,
        /// The coflow's release date.
        release: u64,
    },
    /// More units moved on a pair than the coflow demands there.
    OverDelivery {
        /// The coflow.
        coflow: usize,
        /// Ingress of the pair.
        src: usize,
        /// Egress of the pair.
        dst: usize,
    },
    /// Demand left undelivered at the end of the trace.
    UnderDelivery {
        /// The coflow.
        coflow: usize,
        /// Units never delivered.
        missing: u64,
    },
    /// A transfer references a port outside the fabric.
    PortOutOfRange {
        /// Index of the offending run.
        run: usize,
        /// The offending port.
        port: usize,
        /// Fabric size.
        ports: usize,
    },
    /// A transfer references a coflow index outside the instance.
    UnknownCoflow {
        /// The offending index.
        coflow: usize,
    },
    /// A run starts before the previous run ends. Runs are checked for
    /// port reuse one at a time, so they must come in time order without
    /// overlap.
    RunOverlap {
        /// Index of the offending run.
        run: usize,
        /// Its first slot.
        start: u64,
        /// The first slot after the previous run.
        free_from: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl std::error::Error for ValidationError {}

/// Replays `trace` against the instance (`demands`, `releases`) and returns
/// the recomputed completion time of every coflow. The demands must be on
/// `trace.m` ports, and the runs in time order, none starting before the
/// previous one ends.
///
/// Coflows with zero demand complete at their release date, as the
/// executor ([`crate::FaultSim`]) reports them.
pub fn validate_trace<'a>(
    demands: impl IntoIterator<Item = &'a Demand>,
    releases: &[u64],
    trace: &ScheduleTrace,
) -> Result<Vec<u64>, ValidationError> {
    let _span = obs::span("netsim.validate");
    let m = trace.m;
    // Units not yet delivered, per demanded pair and per coflow.
    let mut remaining = SparseDemand::new(m, demands);
    let n = remaining.len();
    let mut completion: Vec<u64> = releases.to_vec();
    let mut last_activity: Vec<u64> = vec![0; n];

    // Per-port scratch, allocated once and cleared between runs through the
    // touched lists (runs touch ≤ m ports, typically far fewer, so clearing
    // by touched entry beats re-zeroing — and the flat layout replaces the
    // per-run pair HashMap/HashSet churn). Within a valid run each ingress
    // port serves a single destination, so pair state — the destination and
    // the units consumed so far — indexes by source port.
    let mut src_used = vec![false; m];
    let mut dst_used = vec![false; m];
    let mut pair_dst = vec![usize::MAX; m];
    let mut pair_units = vec![0u64; m];
    let mut touched_src: Vec<usize> = Vec::new();
    let mut touched_dst: Vec<usize> = Vec::new();
    let mut memo = EntryMemo::new(m);
    let mut free_from = 0;

    for (ridx, run) in trace.runs.iter().enumerate() {
        if run.start < free_from {
            return Err(ValidationError::RunOverlap {
                run: ridx,
                start: run.start,
                free_from,
            });
        }
        free_from = run.start.saturating_add(run.duration);
        for &s in &touched_src {
            src_used[s] = false;
            pair_dst[s] = usize::MAX;
            pair_units[s] = 0;
        }
        for &d in &touched_dst {
            dst_used[d] = false;
        }
        touched_src.clear();
        touched_dst.clear();

        for t in &run.transfers {
            let (src, dst, k, units) = (t.src(), t.dst(), t.coflow(), t.units);
            if let Some(port) = [src, dst].into_iter().find(|&p| p >= m) {
                return Err(ValidationError::PortOutOfRange {
                    run: ridx,
                    port,
                    ports: m,
                });
            }
            if k >= n {
                return Err(ValidationError::UnknownCoflow { coflow: k });
            }
            if pair_dst[src] != dst {
                if src_used[src] {
                    return Err(ValidationError::PortReused {
                        run: ridx,
                        port: src,
                        ingress: true,
                    });
                }
                if dst_used[dst] {
                    return Err(ValidationError::PortReused {
                        run: ridx,
                        port: dst,
                        ingress: false,
                    });
                }
                src_used[src] = true;
                dst_used[dst] = true;
                pair_dst[src] = dst;
                touched_src.push(src);
                touched_dst.push(dst);
            }
            let used = &mut pair_units[src];
            let booked = used.checked_add(units);
            if booked.is_none_or(|b| b > run.duration) {
                return Err(ValidationError::PairOverCapacity {
                    run: ridx,
                    src,
                    dst,
                    units: booked.unwrap_or(u64::MAX),
                    capacity: run.duration,
                });
            }
            // Slots occupied by this transfer: run.start + used .. + units - 1.
            let first_slot = run.start + *used;
            if first_slot <= releases[k] {
                return Err(ValidationError::ReleaseViolated {
                    run: ridx,
                    coflow: k,
                    slot: first_slot,
                    release: releases[k],
                });
            }
            let last_slot = first_slot + units - 1;
            *used += units;

            let entry = memo.find(&remaining, k, src, dst);
            match entry.filter(|&e| remaining.units(e) >= units) {
                Some(e) => remaining.take(k, e, units),
                None if units == 0 => {}
                None => {
                    return Err(ValidationError::OverDelivery {
                        coflow: k,
                        src,
                        dst,
                    })
                }
            }
            // Pairs run in parallel within a run: a coflow completes at the
            // latest last-slot over all of its transfers.
            last_activity[k] = last_activity[k].max(last_slot);
            if remaining.total(k) == 0 {
                completion[k] = last_activity[k];
            }
        }
    }

    if let Some(k) = (0..n).find(|&k| remaining.total(k) > 0) {
        return Err(ValidationError::UnderDelivery {
            coflow: k,
            missing: remaining.total(k),
        });
    }
    Ok(completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSim};
    use crate::trace::{Run, Transfer};
    use coflow_matching::IntMatrix;

    #[test]
    fn executed_trace_validates_and_times_agree() {
        // The paper's Figure 1: the identity, then the anti-diagonal twice.
        let d0 = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let demands = vec![Demand::from(d0)];
        let mut sim = FaultSim::new(2, &demands, &[0], FaultPlan::default());
        sim.apply_run(&[(0, 0, vec![0]), (1, 1, vec![0])], 1)
            .unwrap();
        sim.apply_run(&[(0, 1, vec![0]), (1, 0, vec![0])], 2)
            .unwrap();
        let (trace, times, ..) = sim.finish();
        let validated = validate_trace(&demands, &[0], &trace).expect("valid");
        assert_eq!(validated, vec![3]);
        assert_eq!(times, vec![Some(3)]);
    }

    #[test]
    fn detects_port_reuse() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        d[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([
                Transfer::new(0, 0, 0, 1).unwrap(),
                Transfer::new(0, 1, 0, 1).unwrap(),
            ]),
        });
        let err = validate_trace(&[Demand::from(d)], &[0], &trace).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::PortReused { ingress: true, .. }
        ));
    }

    #[test]
    fn detects_over_capacity() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 5;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: Box::new([Transfer::new(0, 1, 0, 5).unwrap()]),
        });
        let err = validate_trace(&[Demand::from(d)], &[0], &trace).unwrap_err();
        assert!(matches!(err, ValidationError::PairOverCapacity { .. }));
    }

    #[test]
    fn detects_release_violation() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([Transfer::new(0, 1, 0, 1).unwrap()]),
        });
        let err = validate_trace(&[Demand::from(d.clone())], &[5], &trace).unwrap_err();
        assert!(matches!(err, ValidationError::ReleaseViolated { .. }));
        // Released at 0: slot 1 is fine.
        assert!(validate_trace(&[Demand::from(d)], &[0], &trace).is_ok());
    }

    #[test]
    fn detects_under_and_over_delivery() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 2;
        let empty = ScheduleTrace::new(2);
        let err = validate_trace(&[Demand::from(d.clone())], &[0], &empty).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::UnderDelivery { missing: 2, .. }
        ));

        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: Box::new([Transfer::new(0, 1, 0, 3).unwrap()]),
        });
        let err = validate_trace(&[Demand::from(d)], &[0], &trace).unwrap_err();
        assert!(matches!(err, ValidationError::OverDelivery { .. }));
    }

    #[test]
    fn only_zero_units_may_move_on_an_undemanded_pair() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 1).unwrap(),
                Transfer::new(1, 0, 0, 0).unwrap(),
            ]),
        });
        assert_eq!(
            validate_trace(&[Demand::from(d.clone())], &[0], &trace),
            Ok(vec![1])
        );
        trace.runs[0].transfers[1].units = 1;
        assert_eq!(
            validate_trace(&[Demand::from(d)], &[0], &trace),
            Err(ValidationError::OverDelivery {
                coflow: 0,
                src: 1,
                dst: 0
            })
        );
    }

    #[test]
    fn mid_run_release_offsets_allowed() {
        // Run starts at slot 1 but coflow 1's units begin at offset 2
        // (slot 3), which is legal with release date 2.
        let mut d0 = IntMatrix::zeros(2);
        d0[(0, 1)] = 2;
        let mut d1 = IntMatrix::zeros(2);
        d1[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 2).unwrap(),
                Transfer::new(0, 1, 1, 1).unwrap(),
            ]),
        });
        let times =
            validate_trace(&[Demand::from(d0), Demand::from(d1)], &[0, 2], &trace).expect("valid");
        assert_eq!(times, vec![2, 3]);
    }
}
