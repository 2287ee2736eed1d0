//! Bounded per-coflow flight recorder: a structured event stream derived
//! from a finished [`ScheduleTrace`] (plus, under faults, the
//! [`FaultSim`](crate::FaultSim) blocked log).
//!
//! The recorder answers "what did the scheduler decide, and when" for each
//! coflow: release, first service, service gaps while other traffic moved
//! (the priority-inversion signal), coarse progress checkpoints,
//! fault-blocked service, and completion. It also accumulates per-port
//! per-bucket utilization series for the heatmap sinks.
//!
//! Everything here is derived *offline* from the recorded trace — the hot
//! scheduling and simulation paths are untouched, so the recorder costs
//! nothing when unused. Event streams are bounded: each coflow keeps at
//! most [`RecorderConfig::max_events_per_coflow`] events and counts the
//! overflow in [`CoflowFlight::events_dropped`].

use crate::fault::{BlockedRun, BlockedUnits};
use crate::trace::ScheduleTrace;

/// One entry in a coflow's flight log. Slots are 1-indexed, matching the
/// paper's `t = 1, 2, …`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// The coflow's release date passed (service may start at `slot`).
    Released {
        /// First slot in which service is permitted (`r_k + 1`).
        slot: u64,
    },
    /// First unit of the coflow was delivered.
    FirstService {
        /// The delivering slot.
        slot: u64,
    },
    /// Progress checkpoint at a bucket boundary (emitted at most once per
    /// bucket, only when units moved since the previous checkpoint).
    Progress {
        /// Last slot of the bucket being summarized.
        slot: u64,
        /// Cumulative units delivered through `slot`.
        done: u64,
        /// Total units demanded.
        total: u64,
    },
    /// Service stopped while the coflow was incomplete and the fabric kept
    /// serving *other* coflows — the priority-inversion / preemption signal.
    Preempted {
        /// First slot of the service gap.
        slot: u64,
    },
    /// Service resumed after a [`FlightEvent::Preempted`] gap.
    Resumed {
        /// The slot service resumed in.
        slot: u64,
    },
    /// A planned unit was denied by an injected fault (from the
    /// [`FaultSim`](crate::FaultSim) blocked log).
    FaultBlocked {
        /// The blocked slot.
        slot: u64,
        /// Ingress of the blocked pair.
        src: usize,
        /// Egress of the blocked pair.
        dst: usize,
    },
    /// The last demanded unit was delivered.
    Completed {
        /// The completing slot.
        slot: u64,
    },
}

impl FlightEvent {
    /// The slot the event is anchored to (used for chronological merge).
    pub fn slot(&self) -> u64 {
        match *self {
            FlightEvent::Released { slot }
            | FlightEvent::FirstService { slot }
            | FlightEvent::Progress { slot, .. }
            | FlightEvent::Preempted { slot }
            | FlightEvent::Resumed { slot }
            | FlightEvent::FaultBlocked { slot, .. }
            | FlightEvent::Completed { slot } => slot,
        }
    }

    /// Short kebab-case tag for report serialization.
    pub fn tag(&self) -> &'static str {
        match self {
            FlightEvent::Released { .. } => "released",
            FlightEvent::FirstService { .. } => "first-service",
            FlightEvent::Progress { .. } => "progress",
            FlightEvent::Preempted { .. } => "preempted",
            FlightEvent::Resumed { .. } => "resumed",
            FlightEvent::FaultBlocked { .. } => "fault-blocked",
            FlightEvent::Completed { .. } => "completed",
        }
    }
}

/// The flight log of one coflow.
#[derive(Clone, Debug, Default)]
pub struct CoflowFlight {
    /// Coflow index in the instance.
    pub coflow: usize,
    /// Chronological event stream (bounded; see `events_dropped`).
    pub events: Vec<FlightEvent>,
    /// Events discarded past the per-coflow cap. Summary fields below stay
    /// exact regardless.
    pub events_dropped: u64,
    /// Release date `r_k` (service may start at `r_k + 1`).
    pub release: u64,
    /// Slot of the first delivered unit, if any service happened.
    pub first_service: Option<u64>,
    /// Slot of the last demanded unit, if the coflow completed in-trace.
    pub completion: Option<u64>,
    /// Units delivered over the whole trace.
    pub served_units: u64,
    /// Distinct slots in which at least one unit was delivered.
    pub service_slots: u64,
    /// Planned units denied by faults (blocked-log join).
    pub blocked_slots: u64,
    /// Service gaps while incomplete and the fabric served other traffic.
    pub preemptions: u64,
}

/// Per-port, per-bucket busy-slot series for both fabric sides.
#[derive(Clone, Debug, Default)]
pub struct PortSeries {
    /// Slots per bucket.
    pub bucket: u64,
    /// Number of buckets covering the makespan.
    pub buckets: usize,
    /// `ingress_busy[port][bucket]` = units sent by `port` in the bucket.
    pub ingress_busy: Vec<Vec<u64>>,
    /// `egress_busy[port][bucket]` = units received by `port` in the bucket.
    pub egress_busy: Vec<Vec<u64>>,
}

impl PortSeries {
    /// Utilization of an ingress-port bucket in `[0, 1]` (the last bucket
    /// is normalized by its true width).
    pub fn ingress_utilization(&self, port: usize, bucket: usize, makespan: u64) -> f64 {
        self.ingress_busy[port][bucket] as f64 / self.bucket_width(bucket, makespan) as f64
    }

    /// Utilization of an egress-port bucket in `[0, 1]`.
    pub fn egress_utilization(&self, port: usize, bucket: usize, makespan: u64) -> f64 {
        self.egress_busy[port][bucket] as f64 / self.bucket_width(bucket, makespan) as f64
    }

    fn bucket_width(&self, bucket: usize, makespan: u64) -> u64 {
        let start = bucket as u64 * self.bucket;
        (makespan - start).min(self.bucket).max(1)
    }
}

/// Recorder bounds and resolution.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Slots per progress/utilization bucket; `0` picks
    /// `makespan / 64` (at least 1) automatically.
    pub bucket: u64,
    /// Cap on stored events per coflow; overflow is counted, not stored.
    pub max_events_per_coflow: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            bucket: 0,
            max_events_per_coflow: 256,
        }
    }
}

/// A complete flight recording of one executed schedule.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    /// One flight per coflow, indexed like the instance.
    pub flights: Vec<CoflowFlight>,
    /// Per-port utilization series.
    pub ports: PortSeries,
    /// Schedule makespan (0 for an empty trace).
    pub makespan: u64,
}

/// Derives the flight recording of `trace` for coflows with the given
/// `totals` (demanded units) and `releases`. `blocked` is the
/// [`FaultSim`](crate::FaultSim) blocked log (empty for clean runs); each
/// of its units becomes one `FaultBlocked` event, merged into the owning
/// coflow's stream chronologically (in run order within one slot).
///
/// Single pass over the trace's slots; memory is bounded by the per-coflow
/// event cap plus the `O(m · makespan / bucket)` port series.
pub fn record_flights(
    trace: &ScheduleTrace,
    totals: &[u64],
    releases: &[u64],
    blocked: &[BlockedRun],
    cfg: &RecorderConfig,
) -> FlightRecorder {
    let n = totals.len();
    assert_eq!(n, releases.len(), "totals and releases must align");
    let makespan = trace.makespan();
    let bucket = if cfg.bucket == 0 {
        (makespan / 64).max(1)
    } else {
        cfg.bucket
    };
    let buckets = if makespan == 0 {
        0
    } else {
        makespan.div_ceil(bucket) as usize
    };

    let mut flights: Vec<CoflowFlight> = (0..n)
        .map(|k| CoflowFlight {
            coflow: k,
            release: releases[k],
            ..CoflowFlight::default()
        })
        .collect();
    let mut ports = PortSeries {
        bucket,
        buckets,
        ingress_busy: vec![vec![0; buckets]; trace.m],
        egress_busy: vec![vec![0; buckets]; trace.m],
    };

    // Pre-index blocked runs by coflow (the log lists runs in order of
    // their first slot, so each coflow's units come out chronologically).
    let mut blocked_by_coflow: Vec<Vec<&BlockedRun>> = vec![Vec::new(); n];
    for b in blocked {
        if b.coflow() < n {
            blocked_by_coflow[b.coflow()].push(b);
        }
    }
    let mut blocked_units: Vec<_> = blocked_by_coflow
        .into_iter()
        .map(|runs| BlockedUnits::new(runs).peekable())
        .collect();

    let cap = cfg.max_events_per_coflow;
    let push = |f: &mut CoflowFlight, ev: FlightEvent| {
        if f.events.len() < cap {
            f.events.push(ev);
        } else {
            f.events_dropped += 1;
        }
    };

    let mut done = vec![0u64; n];
    let mut last_checkpoint = vec![0u64; n]; // units at the last Progress event
    let mut in_gap = vec![false; n]; // currently inside a Preempted gap
    let mut served_this_slot = vec![false; n];

    let mut prev_bucket: Option<usize> = None;
    trace.for_each_slot(|slot, moves| {
        let b = ((slot - 1) / bucket) as usize;
        // Crossing into a new bucket: emit progress checkpoints for the
        // previous one. (Idle gaps between runs may skip buckets; the
        // checkpoint then covers everything since the last one.)
        if let Some(pb) = prev_bucket {
            if b != pb {
                for (k, f) in flights.iter_mut().enumerate() {
                    if done[k] > last_checkpoint[k] {
                        push(
                            f,
                            FlightEvent::Progress {
                                slot: (pb as u64 + 1) * bucket,
                                done: done[k],
                                total: totals[k],
                            },
                        );
                        last_checkpoint[k] = done[k];
                    }
                }
            }
        }
        prev_bucket = Some(b);

        served_this_slot.iter_mut().for_each(|s| *s = false);
        for &(src, dst, k) in moves {
            if src < trace.m {
                ports.ingress_busy[src][b] += 1;
            }
            if dst < trace.m {
                ports.egress_busy[dst][b] += 1;
            }
            if k >= n {
                continue;
            }
            // Merge any blocked units that precede this delivery.
            while let Some((at, bl)) = blocked_units[k].next_if(|&(at, _)| at <= slot) {
                flights[k].blocked_slots += 1;
                push(
                    &mut flights[k],
                    FlightEvent::FaultBlocked {
                        slot: at,
                        src: bl.src(),
                        dst: bl.dst(),
                    },
                );
            }
            let f = &mut flights[k];
            if f.first_service.is_none() {
                push(
                    f,
                    FlightEvent::Released {
                        slot: releases[k] + 1,
                    },
                );
                push(f, FlightEvent::FirstService { slot });
                f.first_service = Some(slot);
            } else if in_gap[k] {
                push(f, FlightEvent::Resumed { slot });
                in_gap[k] = false;
            }
            done[k] += 1;
            f.served_units += 1;
            if !served_this_slot[k] {
                served_this_slot[k] = true;
                f.service_slots += 1;
            }
            if done[k] >= totals[k] && f.completion.is_none() {
                push(f, FlightEvent::Completed { slot });
                f.completion = Some(slot);
            }
        }
        // Gap detection: a coflow that has started, is incomplete, and got
        // nothing this slot while *someone* was served has been preempted.
        if !moves.is_empty() {
            for (k, f) in flights.iter_mut().enumerate() {
                if served_this_slot[k] || in_gap[k] {
                    continue;
                }
                if f.first_service.is_some() && f.completion.is_none() {
                    push(f, FlightEvent::Preempted { slot });
                    f.preemptions += 1;
                    in_gap[k] = true;
                }
            }
        }
    });

    // Flush trailing state: final progress checkpoints, never-served
    // releases, and blocked units after the last delivery.
    for (k, f) in flights.iter_mut().enumerate() {
        for (at, bl) in &mut blocked_units[k] {
            f.blocked_slots += 1;
            push(
                f,
                FlightEvent::FaultBlocked {
                    slot: at,
                    src: bl.src(),
                    dst: bl.dst(),
                },
            );
        }
        if f.first_service.is_none() && totals[k] > 0 {
            push(
                f,
                FlightEvent::Released {
                    slot: releases[k] + 1,
                },
            );
        }
        // The final bucket never "closed": record where an incomplete
        // coflow ended up.
        if done[k] > last_checkpoint[k] && f.completion.is_none() {
            push(
                f,
                FlightEvent::Progress {
                    slot: makespan,
                    done: done[k],
                    total: totals[k],
                },
            );
        }
        // A zero-demand coflow completes at its release by convention.
        if totals[k] == 0 && f.completion.is_none() {
            f.completion = Some(releases[k]);
        }
    }

    FlightRecorder {
        flights,
        ports,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Run, Transfer};

    fn two_coflow_trace() -> ScheduleTrace {
        // Pair (0,1): coflow 0 for 3 slots; pair (1,0): coflow 1 slot 1
        // only, then coflow 1 resumes in a second run at slot 6.
        let mut t = ScheduleTrace::new(2);
        t.push_run(Run {
            start: 1,
            duration: 3,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 3).unwrap(),
                Transfer::new(1, 0, 1, 1).unwrap(),
            ]),
        });
        t.push_run(Run {
            start: 6,
            duration: 1,
            transfers: Box::new([Transfer::new(1, 0, 1, 1).unwrap()]),
        });
        t
    }

    #[test]
    fn records_release_service_completion() {
        let trace = two_coflow_trace();
        // Coarse bucket: no intermediate progress checkpoints.
        let cfg = RecorderConfig {
            bucket: 8,
            max_events_per_coflow: 256,
        };
        let rec = record_flights(&trace, &[3, 2], &[0, 0], &[], &cfg);
        assert_eq!(rec.flights.len(), 2);
        let f0 = &rec.flights[0];
        assert_eq!(f0.first_service, Some(1));
        assert_eq!(f0.completion, Some(3));
        assert_eq!(f0.served_units, 3);
        assert_eq!(f0.service_slots, 3);
        assert_eq!(f0.preemptions, 0);
        let f1 = &rec.flights[1];
        assert_eq!(f1.first_service, Some(1));
        assert_eq!(f1.completion, Some(6));
        assert_eq!(f1.preemptions, 1, "slots 2-3 served only coflow 0");
        let tags: Vec<&str> = f1.events.iter().map(FlightEvent::tag).collect();
        assert_eq!(
            tags,
            vec![
                "released",
                "first-service",
                "preempted",
                "resumed",
                "completed"
            ]
        );
    }

    #[test]
    fn port_series_counts_busy_units() {
        let trace = two_coflow_trace();
        let cfg = RecorderConfig {
            bucket: 2,
            max_events_per_coflow: 256,
        };
        let rec = record_flights(&trace, &[3, 2], &[0, 0], &[], &cfg);
        assert_eq!(rec.ports.buckets, 3, "makespan 6 in buckets of 2");
        // Ingress 0 sends in slots 1-3: buckets [2, 1, 0].
        assert_eq!(rec.ports.ingress_busy[0], vec![2, 1, 0]);
        // Ingress 1 sends in slots 1 and 6.
        assert_eq!(rec.ports.ingress_busy[1], vec![1, 0, 1]);
        // Egress totals mirror ingress on the swapped pair.
        assert_eq!(rec.ports.egress_busy[1], vec![2, 1, 0]);
        let total_busy: u64 = rec.ports.ingress_busy.iter().flatten().sum();
        assert_eq!(total_busy, trace.total_units());
    }

    #[test]
    fn event_cap_is_enforced_with_drop_counter() {
        // A long alternating schedule forces many preempt/resume pairs.
        let mut t = ScheduleTrace::new(2);
        for i in 0..40u64 {
            let k = (i % 2) as usize;
            t.push_run(Run {
                start: i + 1,
                duration: 1,
                transfers: Box::new([Transfer::new(0, 1, k, 1).unwrap()]),
            });
        }
        let cfg = RecorderConfig {
            bucket: 1,
            max_events_per_coflow: 8,
        };
        let rec = record_flights(&t, &[20, 20], &[0, 0], &[], &cfg);
        for f in &rec.flights {
            assert!(f.events.len() <= 8);
            assert!(f.events_dropped > 0, "overflow must be counted");
            assert_eq!(f.served_units, 20, "summary fields stay exact");
        }
    }

    #[test]
    fn blocked_log_entries_join_the_owning_flight() {
        let trace = two_coflow_trace();
        // Coflow 1 is denied on (1, 0) in slots 4 and 5, and on (0, 1) in
        // slots 2 to 5; within a slot the units come in run order.
        let blocked = vec![
            BlockedRun::new(2, 4, 0, 1, 1).unwrap(),
            BlockedRun::new(4, 2, 1, 0, 1).unwrap(),
        ];
        let rec = record_flights(
            &trace,
            &[3, 2],
            &[0, 0],
            &blocked,
            &RecorderConfig::default(),
        );
        assert_eq!(rec.flights[1].blocked_slots, 6);
        assert_eq!(rec.flights[0].blocked_slots, 0);
        let seen: Vec<(u64, usize)> = rec.flights[1]
            .events
            .iter()
            .filter_map(|e| match *e {
                FlightEvent::FaultBlocked { slot, src, .. } => Some((slot, src)),
                _ => None,
            })
            .collect();
        assert_eq!(seen, [(2, 0), (3, 0), (4, 0), (4, 1), (5, 0), (5, 1)]);
    }

    #[test]
    fn unserved_coflow_still_gets_release_event() {
        let trace = two_coflow_trace();
        let rec = record_flights(
            &trace,
            &[3, 2, 9],
            &[0, 0, 2],
            &[],
            &RecorderConfig::default(),
        );
        let f2 = &rec.flights[2];
        assert_eq!(f2.first_service, None);
        assert_eq!(f2.completion, None);
        assert_eq!(f2.events, vec![FlightEvent::Released { slot: 3 }]);
    }

    #[test]
    fn empty_trace_records_nothing_but_releases() {
        let rec = record_flights(
            &ScheduleTrace::new(3),
            &[5],
            &[1],
            &[],
            &RecorderConfig::default(),
        );
        assert_eq!(rec.makespan, 0);
        assert_eq!(rec.ports.buckets, 0);
        assert_eq!(
            rec.flights[0].events,
            vec![FlightEvent::Released { slot: 2 }]
        );
    }
}
