//! Property-based verification of the flight recorder, with the
//! checkpoint/restore boundary in mind:
//!
//! * per-coflow event streams are **well-formed**: slots never rewind,
//!   `Preempted`/`Resumed` strictly alternate (every `Resumed` closes an
//!   open gap), `Progress` checkpoints are strictly increasing and bounded
//!   by the demand, and nothing follows `Completed`;
//! * the recording is **invariant under run splits**: splitting any run at
//!   any interior slot boundary — exactly what a checkpoint/restore does to
//!   the executed trace of the epoch in flight — yields a bit-identical
//!   recording, so forensics taken after a resume agree with forensics of
//!   the uninterrupted run.

use coflow_netsim::{record_flights, FlightEvent, RecorderConfig, Run, ScheduleTrace, Transfer};
use proptest::prelude::*;

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

/// Builds a random valid trace (partial matchings, idle gaps, one coflow
/// per matched pair) plus per-coflow demand totals. Some coflows get extra
/// never-served demand so incomplete flights are exercised too.
fn build_case(m: usize, n: usize, nruns: usize, seed: u64) -> (ScheduleTrace, Vec<u64>) {
    let mut rng = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut trace = ScheduleTrace::new(m);
    let mut planned = vec![0u64; n];
    let mut next_start = 1 + rng.below(3);
    for _ in 0..nruns {
        let duration = 1 + rng.below(5);
        let shift = rng.below(m as u64) as usize;
        let mut transfers = Vec::new();
        for i in 0..m {
            if rng.below(3) == 0 {
                continue;
            }
            let dst = (i + shift) % m;
            let k = rng.below(n as u64) as usize;
            planned[k] += duration;
            transfers.push(Transfer::new(i, dst, k).unwrap());
        }
        if !transfers.is_empty() {
            trace.push_run(Run {
                start: next_start,
                duration,
                transfers: transfers.into(),
            });
        }
        next_start += duration + rng.below(3);
    }
    let totals: Vec<u64> = planned
        .iter()
        .map(|&p| {
            if rng.below(5) == 0 {
                p + 1 + rng.below(3)
            } else {
                p
            }
        })
        .collect();
    (trace, totals)
}

/// Splits every multi-slot run at a seeded interior boundary into two
/// runs that hold the same matching, as a checkpoint/restore in the middle
/// of a run leaves the executed trace.
fn split_runs(trace: &ScheduleTrace, seed: u64) -> ScheduleTrace {
    let mut rng = Lcg(seed ^ 0x517c_c1b7_2722_0a95);
    let mut out = ScheduleTrace::new(trace.m);
    for run in &trace.runs {
        if run.duration < 2 {
            out.push_run(run.clone());
            continue;
        }
        let cut = 1 + rng.below(run.duration - 1);
        for (start, duration) in [(run.start, cut), (run.start + cut, run.duration - cut)] {
            out.push_run(Run {
                start,
                duration,
                transfers: run.transfers.clone(),
            });
        }
    }
    out
}

fn record(trace: &ScheduleTrace, totals: &[u64]) -> coflow_netsim::FlightRecorder {
    let releases = vec![0u64; totals.len()];
    let cfg = RecorderConfig {
        bucket: 4,
        ..RecorderConfig::default()
    };
    record_flights(trace, totals, &releases, &[], &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stream well-formedness on arbitrary traces.
    #[test]
    fn flight_streams_are_well_formed(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..7,
        seed in 0u64..1u64 << 32,
    ) {
        let (trace, totals) = build_case(m, n, nruns, seed);
        let rec = record(&trace, &totals);
        prop_assert_eq!(rec.flights.len(), totals.len());
        for (k, f) in rec.flights.iter().enumerate() {
            let mut last_slot = 0u64;
            let mut in_gap = false;
            let mut started = false;
            let mut completed = false;
            let mut last_done = 0u64;
            let mut preempted_events = 0u64;
            for ev in &f.events {
                prop_assert!(ev.slot() >= last_slot, "coflow {}: slot rewound in {:?}", k, f.events);
                last_slot = ev.slot();
                match ev {
                    FlightEvent::FirstService { .. } => {
                        prop_assert!(!started, "coflow {}: double FirstService", k);
                        started = true;
                    }
                    FlightEvent::Preempted { .. } => {
                        prop_assert!(started && !completed && !in_gap,
                            "coflow {}: Preempted outside service ({:?})", k, f.events);
                        in_gap = true;
                        preempted_events += 1;
                    }
                    FlightEvent::Resumed { .. } => {
                        prop_assert!(in_gap, "coflow {}: Resumed without a gap", k);
                        in_gap = false;
                    }
                    FlightEvent::Progress { done, total, .. } => {
                        prop_assert!(*done > last_done, "coflow {}: Progress not increasing", k);
                        prop_assert!(*done <= *total, "coflow {}: Progress past demand", k);
                        last_done = *done;
                    }
                    FlightEvent::Completed { .. } => {
                        prop_assert!(!completed, "coflow {}: double Completed", k);
                        completed = true;
                    }
                    FlightEvent::Released { .. } | FlightEvent::FaultBlocked { .. } => {}
                }
            }
            prop_assert_eq!(f.preemptions, preempted_events, "coflow {}: preemption counter", k);
            prop_assert!(f.served_units <= totals[k], "coflow {}: overserved", k);
            if totals[k] > 0 && f.served_units == totals[k] {
                prop_assert!(f.completion.is_some(), "coflow {}: full service but no completion", k);
            }
        }
    }

    /// Restore-boundary invariance: splitting runs at arbitrary slot
    /// boundaries (the executed-trace shape a mid-epoch checkpoint/resume
    /// produces) leaves the recording bit-identical.
    #[test]
    fn recording_is_invariant_under_run_splits(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..7,
        seed in 0u64..1u64 << 32,
    ) {
        let (trace, totals) = build_case(m, n, nruns, seed);
        let split = split_runs(&trace, seed);
        prop_assert_eq!(split.makespan(), trace.makespan());
        prop_assert_eq!(split.total_units(), trace.total_units());

        let a = record(&trace, &totals);
        let b = record(&split, &totals);
        for (fa, fb) in a.flights.iter().zip(&b.flights) {
            prop_assert_eq!(&fa.events, &fb.events,
                "coflow {}: streams diverged across the split", fa.coflow);
            prop_assert_eq!(fa.first_service, fb.first_service);
            prop_assert_eq!(fa.completion, fb.completion);
            prop_assert_eq!(fa.served_units, fb.served_units);
            prop_assert_eq!(fa.service_slots, fb.service_slots);
            prop_assert_eq!(fa.preemptions, fb.preemptions);
            prop_assert_eq!(fa.events_dropped, fb.events_dropped);
        }
        prop_assert_eq!(&a.ports.ingress_busy, &b.ports.ingress_busy);
        prop_assert_eq!(&a.ports.egress_busy, &b.ports.egress_busy);
    }
}
