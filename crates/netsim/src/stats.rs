//! Utilization statistics over schedule traces.
//!
//! Backfilling exists precisely to reclaim the *unforced idle time* that the
//! Birkhoff–von Neumann augmentation introduces (§4.1 of the paper); these
//! statistics quantify it.

use crate::trace::ScheduleTrace;

/// Aggregate utilization metrics of a schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Last slot used.
    pub makespan: u64,
    /// Total data units moved.
    pub total_units: u64,
    /// Slot-pair capacity offered by the runs (Σ duration × pairs).
    pub offered_capacity: u64,
    /// Capacity offered but unused — idle port-pair slots inside runs.
    pub idle_pair_slots: u64,
    /// `total_units / (makespan · m)`: overall fabric utilization in [0, 1].
    pub fabric_utilization: f64,
    /// Per-ingress-port utilization over the makespan
    /// (`units sent / makespan`, in [0, 1]).
    pub ingress_utilization: Vec<f64>,
    /// Per-egress-port utilization over the makespan
    /// (`units received / makespan`, in [0, 1]).
    pub egress_utilization: Vec<f64>,
}

/// Reusable bitmap over the `m × m` port pairs of one fabric. Clearing
/// touches only the words set since the last clear, so counting the
/// distinct pairs of each run costs `O(transfers)` — no hashing, no
/// per-run allocation (the 150-port grid hits this on every run).
struct PairBitmap {
    words: Vec<u64>,
    touched: Vec<usize>,
}

impl PairBitmap {
    fn new(pairs: usize) -> Self {
        PairBitmap {
            words: vec![0; pairs.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Sets bit `idx`; returns true when it was previously clear.
    fn insert(&mut self, idx: usize) -> bool {
        let w = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        if self.words[w] == 0 {
            self.touched.push(w);
        }
        self.words[w] |= bit;
        true
    }

    fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w] = 0;
        }
        self.touched.clear();
    }
}

/// Computes utilization statistics for a trace.
pub fn trace_stats(trace: &ScheduleTrace) -> TraceStats {
    let m = trace.m;
    let mut offered = 0u64;
    let mut moved = 0u64;
    let mut ingress_units = vec![0u64; m];
    let mut egress_units = vec![0u64; m];
    let mut pairs = PairBitmap::new(m * m);
    for run in &trace.runs {
        let mut distinct = 0u64;
        for t in &run.transfers {
            if pairs.insert(t.src() * m + t.dst()) {
                distinct += 1;
            }
            moved += t.units;
            ingress_units[t.src()] += t.units;
            egress_units[t.dst()] += t.units;
        }
        pairs.clear();
        offered += run.duration * distinct;
    }
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
        offered_capacity: offered,
        idle_pair_slots: offered - moved,
        fabric_utilization: moved as f64 / denom as f64,
        ingress_utilization: per_port(ingress_units),
        egress_utilization: per_port(egress_units),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Run, Transfer};

    #[test]
    fn stats_account_for_idle_capacity() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 4,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 3).unwrap(),
                Transfer::new(1, 0, 0, 4).unwrap(),
            ]),
        });
        let s = trace_stats(&trace);
        assert_eq!(s.makespan, 4);
        assert_eq!(s.total_units, 7);
        assert_eq!(s.offered_capacity, 8);
        assert_eq!(s.idle_pair_slots, 1);
        assert!((s.fabric_utilization - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn per_port_utilization_tracks_each_side() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 4,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 3).unwrap(),
                Transfer::new(1, 0, 0, 4).unwrap(),
            ]),
        });
        let s = trace_stats(&trace);
        assert_eq!(s.ingress_utilization, vec![0.75, 1.0]);
        assert_eq!(s.egress_utilization, vec![1.0, 0.75]);
    }

    #[test]
    fn shared_pairs_count_once_per_run() {
        // Two coflows share pair (0, 1): one distinct pair, not two.
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: Box::new([
                Transfer::new(0, 1, 0, 2).unwrap(),
                Transfer::new(0, 1, 1, 1).unwrap(),
            ]),
        });
        let s = trace_stats(&trace);
        assert_eq!(s.offered_capacity, 3);
        assert_eq!(s.idle_pair_slots, 0);
    }

    #[test]
    fn empty_trace() {
        let s = trace_stats(&ScheduleTrace::new(4));
        assert_eq!(s.makespan, 0);
        assert_eq!(s.total_units, 0);
        assert_eq!(s.fabric_utilization, 0.0);
        assert_eq!(s.ingress_utilization, vec![0.0; 4]);
    }

    #[test]
    fn bitmap_reuse_across_runs_is_clean() {
        let mut trace = ScheduleTrace::new(3);
        for start in [1u64, 3, 5] {
            trace.push_run(Run {
                start,
                duration: 2,
                transfers: Box::new([
                    Transfer::new(0, 1, 0, 2).unwrap(),
                    Transfer::new(1, 2, 0, 1).unwrap(),
                ]),
            });
        }
        let s = trace_stats(&trace);
        // 3 runs × 2 pairs × 2 slots offered; 9 units moved.
        assert_eq!(s.offered_capacity, 12);
        assert_eq!(s.total_units, 9);
        assert_eq!(s.idle_pair_slots, 3);
    }
}
