//! Utilization statistics over schedule traces.
//!
//! Every transfer of a run moves one unit in each of the run's slots, so
//! the units a trace moves — in total and per port — follow from the runs'
//! durations and transfer counts.

use crate::trace::ScheduleTrace;

/// Aggregate utilization metrics of a schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Last slot used.
    pub makespan: u64,
    /// Total data units moved.
    pub total_units: u64,
    /// `total_units / (makespan · m)`: overall fabric utilization in [0, 1].
    pub fabric_utilization: f64,
    /// Per-ingress-port utilization over the makespan
    /// (`units sent / makespan`, in [0, 1]).
    pub ingress_utilization: Vec<f64>,
    /// Per-egress-port utilization over the makespan
    /// (`units received / makespan`, in [0, 1]).
    pub egress_utilization: Vec<f64>,
}

/// Computes utilization statistics for a trace.
pub fn trace_stats(trace: &ScheduleTrace) -> TraceStats {
    let m = trace.m;
    let mut ingress_units = vec![0u64; m];
    let mut egress_units = vec![0u64; m];
    for run in &trace.runs {
        for t in &run.transfers {
            ingress_units[t.src()] += run.duration;
            egress_units[t.dst()] += run.duration;
        }
    }
    let moved = trace.total_units();
    let makespan = trace.makespan();
    let denom = (makespan * m as u64).max(1);
    let per_port = |units: Vec<u64>| -> Vec<f64> {
        units
            .into_iter()
            .map(|u| u as f64 / makespan.max(1) as f64)
            .collect()
    };
    TraceStats {
        makespan,
        total_units: moved,
        fabric_utilization: moved as f64 / denom as f64,
        ingress_utilization: per_port(ingress_units),
        egress_utilization: per_port(egress_units),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Run, Transfer};

    /// Ingress 1 sends to egress 0 in slots 1–4, ingress 0 to egress 1 in
    /// slots 2–4.
    fn two_runs() -> ScheduleTrace {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([Transfer::new(1, 0, 0).unwrap()]),
        });
        trace.push_run(Run {
            start: 2,
            duration: 3,
            transfers: Box::new([
                Transfer::new(0, 1, 0).unwrap(),
                Transfer::new(1, 0, 0).unwrap(),
            ]),
        });
        trace
    }

    #[test]
    fn stats_count_one_unit_per_transfer_and_slot() {
        let s = trace_stats(&two_runs());
        assert_eq!(s.makespan, 4);
        assert_eq!(s.total_units, 7);
        assert!((s.fabric_utilization - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn per_port_utilization_tracks_each_side() {
        let s = trace_stats(&two_runs());
        assert_eq!(s.ingress_utilization, vec![0.75, 1.0]);
        assert_eq!(s.egress_utilization, vec![1.0, 0.75]);
    }

    #[test]
    fn empty_trace() {
        let s = trace_stats(&ScheduleTrace::new(4));
        assert_eq!(s.makespan, 0);
        assert_eq!(s.total_units, 0);
        assert_eq!(s.fabric_utilization, 0.0);
        assert_eq!(s.ingress_utilization, vec![0.0; 4]);
    }
}
