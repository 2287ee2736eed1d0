//! Independent validation of schedule traces.
//!
//! Every scheduler in this project is checked end-to-end: the trace it
//! produces is replayed here against the *original* instance data, the
//! fault plan it ran under (the empty plan for a clean run) and the formal
//! constraints of problem (O) — a matching in every slot, release dates,
//! open links, cancellations, and exact demand delivery — and completion
//! times are recomputed from scratch. Callers compare these against the
//! scheduler's own accounting.
//!
//! A run is one matching held for its duration, so the replay checks each
//! run once rather than slot by slot. It borrows the coflows' demands and
//! concatenates them into a [`SparseDemand`] over their nonzero pairs that
//! it then drains: a transfer finds its coflow's entry on the pair (by
//! binary search, unless the last transfer out of its ingress was on the
//! same coflow and pair), and a pair the coflow never demanded accepts
//! nothing.

use crate::demand::{Demand, EntryMemo, SparseDemand};
use crate::fault::{FaultIndex, FaultPlan};
use crate::trace::ScheduleTrace;

/// A violation found while validating a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// An ingress or egress port appears twice within one run (a pair
    /// listed twice reuses both of its ports).
    PortReused {
        /// Index of the offending run.
        run: usize,
        /// The reused port.
        port: usize,
        /// True for an ingress port, false for an egress port.
        ingress: bool,
    },
    /// A coflow was served in a run that starts before its release allows.
    ReleaseViolated {
        /// Index of the offending run.
        run: usize,
        /// The coflow.
        coflow: usize,
        /// The run's first slot.
        slot: u64,
        /// The coflow's release date.
        release: u64,
    },
    /// A unit moved over a link the fault plan holds closed in that slot
    /// (a port outage, or a degraded link off its stride).
    LinkClosed {
        /// Index of the offending run.
        run: usize,
        /// The first closed slot of the run on the link.
        slot: u64,
        /// Ingress of the link.
        src: usize,
        /// Egress of the link.
        dst: usize,
    },
    /// A coflow was served at or after the slot the fault plan cancels it.
    ServedAfterCancellation {
        /// Index of the offending run.
        run: usize,
        /// The coflow.
        coflow: usize,
        /// The first slot of the run at or after the cancellation.
        slot: u64,
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
    /// Demand of a coflow the plan never cancels left undelivered at the
    /// end of the trace.
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
    /// A run lasts zero slots, or its last slot lies past `u64::MAX`.
    RunLength {
        /// Index of the offending run.
        run: usize,
        /// Its first slot.
        start: u64,
        /// Its duration.
        duration: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl std::error::Error for ValidationError {}

/// Replays `trace` against the instance (`demands`, `releases`) under
/// `plan` and returns the recomputed completion time of every coflow. The
/// demands must be on `trace.m` ports, one release per demand.
///
/// Every run must come in time order without overlap and last at least
/// one slot; every id must be in range; no port may appear twice in a
/// run. Each transfer's coflow must be released before the run's first
/// slot and not cancelled by its last, its link open in every slot of the
/// run, and its pair demanded for at least the units the run moves. Every
/// coflow the plan does not cancel must be delivered exactly.
///
/// A coflow with zero demand completes at its release date, a delivered
/// coflow in its last served slot, and a cancelled coflow left incomplete
/// is `None` — as the executor ([`crate::FaultSim`]) reports them.
pub fn validate_trace<'a>(
    demands: impl IntoIterator<Item = &'a Demand>,
    releases: &[u64],
    plan: &FaultPlan,
    trace: &ScheduleTrace,
) -> Result<Vec<Option<u64>>, ValidationError> {
    let _span = obs::span("netsim.validate");
    let m = trace.m;
    // Units not yet delivered, per demanded pair and per coflow.
    let mut remaining = SparseDemand::new(m, demands);
    let n = remaining.len();
    assert_eq!(n, releases.len(), "one release per demand");
    let faults = FaultIndex::new(plan, m, n);
    // The last slot each coflow was served in; 0 while never served.
    let mut last_served = vec![0u64; n];
    // Ports matched in the current run, cleared through its transfers.
    let mut src_used = vec![false; m];
    let mut dst_used = vec![false; m];
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
        let end = run.duration.checked_sub(1);
        let Some(last) = end.and_then(|d| run.start.checked_add(d)) else {
            return Err(ValidationError::RunLength {
                run: ridx,
                start: run.start,
                duration: run.duration,
            });
        };
        free_from = last.saturating_add(1);
        for t in &run.transfers {
            let (src, dst, k) = (t.src(), t.dst(), t.coflow());
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
            if src_used[src] || dst_used[dst] {
                return Err(ValidationError::PortReused {
                    run: ridx,
                    port: if src_used[src] { src } else { dst },
                    ingress: src_used[src],
                });
            }
            src_used[src] = true;
            dst_used[dst] = true;
            if releases[k] >= run.start {
                return Err(ValidationError::ReleaseViolated {
                    run: ridx,
                    coflow: k,
                    slot: run.start,
                    release: releases[k],
                });
            }
            if let Some(slot) = faults.first_closed(src, dst, run.start, last) {
                return Err(ValidationError::LinkClosed {
                    run: ridx,
                    slot,
                    src,
                    dst,
                });
            }
            if let Some(at) = faults.cancellation(k).filter(|&at| at <= last) {
                return Err(ValidationError::ServedAfterCancellation {
                    run: ridx,
                    coflow: k,
                    slot: at.max(run.start),
                });
            }
            let entry = memo.find(&remaining, k, src, dst);
            let Some(e) = entry.filter(|&e| remaining.units(e) >= run.duration) else {
                return Err(ValidationError::OverDelivery {
                    coflow: k,
                    src,
                    dst,
                });
            };
            remaining.take(k, e, run.duration);
            // Runs come in time order: this run's last slot is the latest.
            last_served[k] = last;
        }
        for t in &run.transfers {
            src_used[t.src()] = false;
            dst_used[t.dst()] = false;
        }
    }

    (0..n)
        .map(|k| match remaining.total(k) {
            0 if last_served[k] == 0 => Ok(Some(releases[k])),
            0 => Ok(Some(last_served[k])),
            _ if faults.cancellation(k).is_some() => Ok(None),
            missing => Err(ValidationError::UnderDelivery { coflow: k, missing }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultSim};
    use crate::trace::{Run, Transfer};
    use coflow_matching::IntMatrix;

    /// A trace of one run from `start` for `duration` slots over `pairs`
    /// (`(src, dst, coflow)` each).
    fn one_run(
        m: usize,
        start: u64,
        duration: u64,
        pairs: &[(usize, usize, usize)],
    ) -> ScheduleTrace {
        let mut trace = ScheduleTrace::new(m);
        trace.push_run(Run {
            start,
            duration,
            transfers: pairs
                .iter()
                .map(|&(i, j, k)| Transfer::new(i, j, k).unwrap())
                .collect(),
        });
        trace
    }

    fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    #[test]
    fn executed_trace_validates_and_times_agree() {
        // The paper's Figure 1: the identity, then the anti-diagonal twice.
        let d0 = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let demands = vec![Demand::from(d0)];
        let mut sim = FaultSim::new(2, &demands, &[0], clean());
        sim.apply_run(&[(0, 0, vec![0]), (1, 1, vec![0])], 1)
            .unwrap();
        sim.apply_run(&[(0, 1, vec![0]), (1, 0, vec![0])], 2)
            .unwrap();
        let (trace, times, ..) = sim.finish();
        let validated = validate_trace(&demands, &[0], &clean(), &trace).expect("valid");
        assert_eq!(validated, vec![Some(3)]);
        assert_eq!(times, vec![Some(3)]);
    }

    #[test]
    fn detects_port_reuse() {
        let d = Demand::from_flows(2, [(0, 0, 1), (0, 1, 1)]).unwrap();
        let trace = one_run(2, 1, 1, &[(0, 0, 0), (0, 1, 0)]);
        let err = validate_trace(&[d], &[0], &clean(), &trace).unwrap_err();
        assert_eq!(
            err,
            ValidationError::PortReused {
                run: 0,
                port: 0,
                ingress: true
            }
        );
    }

    #[test]
    fn detects_release_violation() {
        let d = Demand::from_flows(2, [(0, 1, 1)]).unwrap();
        let trace = one_run(2, 1, 1, &[(0, 1, 0)]);
        let err = validate_trace([&d], &[5], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::ReleaseViolated { .. }));
        // Released at 0: slot 1 is fine.
        assert_eq!(
            validate_trace([&d], &[0], &clean(), &trace),
            Ok(vec![Some(1)])
        );
    }

    #[test]
    fn detects_under_and_over_delivery() {
        let d = Demand::from_flows(2, [(0, 1, 2)]).unwrap();
        let empty = ScheduleTrace::new(2);
        let err = validate_trace([&d], &[0], &clean(), &empty).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::UnderDelivery { missing: 2, .. }
        ));
        let trace = one_run(2, 1, 3, &[(0, 1, 0)]);
        let err = validate_trace([&d], &[0], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::OverDelivery { .. }));
    }

    #[test]
    fn nothing_may_move_on_an_undemanded_pair() {
        let d = Demand::from_flows(2, [(0, 1, 1)]).unwrap();
        let trace = one_run(2, 1, 1, &[(0, 1, 0), (1, 0, 0)]);
        assert_eq!(
            validate_trace([&d], &[0], &clean(), &trace),
            Err(ValidationError::OverDelivery {
                coflow: 0,
                src: 1,
                dst: 0
            })
        );
    }

    #[test]
    fn a_coflow_without_demand_completes_at_its_release() {
        let d = Demand::from_flows(2, [(0, 1, 2)]).unwrap();
        let none = Demand::from_flows(2, []).unwrap();
        let trace = one_run(2, 3, 2, &[(0, 1, 0)]);
        assert_eq!(
            validate_trace([&d, &none], &[1, 7], &clean(), &trace),
            Ok(vec![Some(4), Some(7)])
        );
    }

    #[test]
    fn faults_close_links_and_cancel_coflows() {
        let d = Demand::from_flows(2, [(0, 1, 2)]).unwrap();
        let trace = one_run(2, 3, 2, &[(0, 1, 0)]);
        // An outage of egress 1 in the run's last slot.
        let outage = FaultPlan::new(vec![FaultEvent::EgressOutage {
            port: 1,
            start: 4,
            end: 9,
        }]);
        assert_eq!(
            validate_trace([&d], &[0], &outage, &trace),
            Err(ValidationError::LinkClosed {
                run: 0,
                slot: 4,
                src: 0,
                dst: 1
            })
        );
        // A degradation that serves slots 2, 4, … but not 3.
        let degraded = FaultPlan::new(vec![FaultEvent::LinkDegraded {
            src: 0,
            dst: 1,
            start: 2,
            end: 9,
            stride: 2,
        }]);
        assert!(matches!(
            validate_trace([&d], &[0], &degraded, &trace),
            Err(ValidationError::LinkClosed { slot: 3, .. })
        ));
        // Served in slot 4, the slot of its cancellation.
        let cancel = |at| FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at }]);
        assert_eq!(
            validate_trace([&d], &[0], &cancel(4), &trace),
            Err(ValidationError::ServedAfterCancellation {
                run: 0,
                coflow: 0,
                slot: 4
            })
        );
        // Complete before a later cancellation.
        assert_eq!(
            validate_trace([&d], &[0], &cancel(5), &trace),
            Ok(vec![Some(4)])
        );
        // Cancelled before completing: no completion, no under-delivery.
        let half = one_run(2, 3, 1, &[(0, 1, 0)]);
        assert_eq!(
            validate_trace([&d], &[0], &cancel(5), &half),
            Ok(vec![None])
        );
        assert_eq!(
            validate_trace([&d], &[0], &clean(), &half),
            Err(ValidationError::UnderDelivery {
                coflow: 0,
                missing: 1
            })
        );
    }
}
