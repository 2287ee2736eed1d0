//! Schedule forensics: joins the flight-recorder event stream
//! ([`coflow_netsim::record_flights`]) with the interval-indexed LP
//! relaxation to explain *where the objective went* — per-coflow
//! attribution against the fractional completion times `C̄_k`, a
//! wait-versus-service split of each coflow's flow time, and anomaly
//! detectors for the pathologies the paper's analysis rules out
//! (starvation, unforced idle, priority inversions) plus fault-recovery
//! regressions.
//!
//! Two entry points:
//!
//! * [`diagnose`] — clean schedules ([`ScheduleOutcome`]);
//! * [`diagnose_faulty`] — fault-injected executions ([`FaultyOutcome`]),
//!   optionally against a clean baseline for regression attribution.
//!
//! Every firing detector also emits an [`obs::instant`] marker
//! (`diag.anomaly.<detector>`), so anomalies land on the chrome-trace
//! timeline next to the pipeline spans that produced them.

use crate::instance::Instance;
use crate::relax::LpRelaxation;
use crate::sched::recovery::FaultyOutcome;
use crate::sched::ScheduleOutcome;
use coflow_netsim::{
    record_flights, BlockedRun, FlightRecorder, RecorderConfig, Run, ScheduleTrace, SparseDemand,
};

/// How loud a firing detector is. Ordered: `Info < Warning < Critical`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth surfacing, not actionable by itself.
    Info,
    /// Likely costing objective; investigate.
    Warning,
    /// The schedule is demonstrably mis-serving some coflow.
    Critical,
}

impl Severity {
    /// Kebab-case name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parses a CLI/report severity name.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// Which pathology a detector looks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    /// A coflow repeatedly denied service by fault windows: its
    /// fault-blocked slot count reached the configured threshold.
    /// Deterministically silent on fault-free runs (the blocked log is
    /// empty there).
    Starvation,
    /// Work-conservation violations: slots in which some released coflow
    /// had remaining demand on a pair whose ingress *and* egress both sat
    /// idle, beyond the share BvN augmentation padding and group
    /// serialization normally cost.
    UnforcedIdle,
    /// Realized completion order inverts the priority permutation the
    /// scheduler committed to more than backfilling normally explains.
    OrderingViolation,
    /// A coflow never touched by a fault finished materially later under
    /// fault recovery than in the clean baseline — replanning collateral.
    RecoveryRegression,
}

impl Detector {
    /// Kebab-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Detector::Starvation => "starvation",
            Detector::UnforcedIdle => "unforced-idle",
            Detector::OrderingViolation => "ordering-violation",
            Detector::RecoveryRegression => "recovery-regression",
        }
    }

    /// Static marker name for the chrome-trace instant event.
    fn instant_name(&self) -> &'static str {
        match self {
            Detector::Starvation => "diag.anomaly.starvation",
            Detector::UnforcedIdle => "diag.anomaly.unforced-idle",
            Detector::OrderingViolation => "diag.anomaly.ordering-violation",
            Detector::RecoveryRegression => "diag.anomaly.recovery-regression",
        }
    }
}

/// Detector thresholds and recorder granularity.
///
/// The idle and inversion defaults are calibrated against the seed-2015
/// experiment grid (60 ports, 150 coflows, all 12 rule × case cells): the
/// clean grid stays silent with comfortable margin, while synthetic
/// pathologies (a serial schedule, a reversed priority order) fire. See
/// DESIGN.md §4d.
#[derive(Clone, Debug)]
pub struct DiagnosticsConfig {
    /// Fault-blocked unit-slots a single coflow must accumulate before
    /// [`Detector::Starvation`] fires.
    pub starvation_blocked_slots: u64,
    /// Maximum tolerated share of slots violating work conservation —
    /// a servable pair (ingress and egress idle) left unused while the
    /// top-priority released coflow still had demand on it
    /// ([`Detector::UnforcedIdle`]).
    pub unforced_idle_share: f64,
    /// Absolute evidence floor for [`Detector::UnforcedIdle`]: the share
    /// only fires once this many non-conserving slots accumulate, so a
    /// few padding slots on a tiny makespan are not flagged.
    pub unforced_idle_min_slots: u64,
    /// Maximum tolerated fraction of coflow pairs completing against the
    /// committed priority order ([`Detector::OrderingViolation`]).
    pub ordering_inversion_fraction: f64,
    /// Minimum relative completion-time inflation of an unblocked coflow
    /// before [`Detector::RecoveryRegression`] fires.
    pub recovery_inflation: f64,
    /// Flight-recorder granularity (progress buckets, per-coflow caps).
    pub recorder: RecorderConfig,
}

impl Default for DiagnosticsConfig {
    /// Grid calibration: Algorithm 1's rigid run-length schedules leave
    /// the top-priority coflow's pairs idle during matchings that do not
    /// cover them, so even clean grids carry an intrinsic non-conserving
    /// share — peaking at 36.7% on the seed-2015 paper-scale grid (60
    /// ports, 150 coflows, `H_LP` case d) and 59.1% on the small-config
    /// grid, where sparser demand means more augmentation padding. The
    /// committed inversion fraction peaks at 12.7% (`H_A` with
    /// backfilling). The 0.70 and 0.25 defaults keep every clean cell
    /// silent with margin, while a schedule that mis-serves its
    /// top-priority coflow (reversed order, dropped capacity) pushes the
    /// share toward 1.0.
    fn default() -> Self {
        DiagnosticsConfig {
            starvation_blocked_slots: 4,
            unforced_idle_share: 0.70,
            unforced_idle_min_slots: 256,
            ordering_inversion_fraction: 0.25,
            recovery_inflation: 0.5,
            recorder: RecorderConfig::default(),
        }
    }
}

/// One firing of one detector.
#[derive(Clone, Debug)]
pub struct Anomaly {
    /// Which detector fired.
    pub detector: Detector,
    /// How loud.
    pub severity: Severity,
    /// The coflow concerned, when the anomaly is per-coflow.
    pub coflow: Option<usize>,
    /// The measured value that crossed the threshold.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Per-coflow attribution against the LP relaxation.
#[derive(Clone, Debug)]
pub struct CoflowReport {
    /// Coflow index into the instance.
    pub coflow: usize,
    /// Objective weight `w_k`.
    pub weight: f64,
    /// Release date `r_k`.
    pub release: u64,
    /// Realized completion slot; `None` when cancelled under faults.
    pub completion: Option<u64>,
    /// Fractional completion `C̄_k` from the interval-indexed LP.
    pub lp_completion: f64,
    /// `C_k / max(C̄_k, 1)` — the per-coflow realized approximation ratio
    /// (Theorem 1 bounds it by 67/3). The denominator is floored at one
    /// slot because the LP's left-endpoint convention (`τ_0 = 0`) can put
    /// `C̄_k` at 0 for first-interval coflows, while no feasible schedule
    /// completes anything before slot 1. `None` when the coflow was
    /// cancelled under faults.
    pub ratio: Option<f64>,
    /// Slots between release and completion in which the coflow received
    /// no service (the *wait* half of the flow-time split).
    pub wait_slots: u64,
    /// Slots in which the coflow moved at least one unit.
    pub service_slots: u64,
    /// Unit-slots denied by fault windows (0 on clean runs).
    pub blocked_slots: u64,
    /// Service gaps (higher-priority work or faults pushed it out).
    pub preemptions: u64,
    /// Share of the schedule's unforced idle falling inside this coflow's
    /// active window — how much of the avoidable idleness it had to sit
    /// through.
    pub idle_share: f64,
}

/// The full forensics report for one schedule.
#[derive(Clone, Debug)]
pub struct ScheduleDiagnostics {
    /// Per-coflow attribution, indexed by coflow.
    pub per_coflow: Vec<CoflowReport>,
    /// Every detector firing, in detector order then coflow order.
    pub anomalies: Vec<Anomaly>,
    /// Realized objective `Σ w_k C_k` (surviving coflows only, under
    /// faults).
    pub objective: f64,
    /// The LP relaxation's objective — the lower bound being attributed.
    pub lp_lower_bound: f64,
    /// `objective / lp_lower_bound` (`None` when the bound is zero).
    pub approx_ratio: Option<f64>,
    /// Schedule makespan.
    pub makespan: u64,
    /// Idle pair-slots while released, incomplete demand was pending
    /// (the attribution denominator for [`CoflowReport::idle_share`]).
    pub unforced_idle: u64,
    /// Slots violating work conservation: some released coflow had
    /// remaining demand on a pair whose ingress and egress both idled.
    pub nonconserving_slots: u64,
    /// Offered pair-slots over the makespan (`m · makespan`).
    pub offered: u64,
    /// The LP permutation (ordering (15)) — the order the relaxation
    /// wants.
    pub lp_order: Vec<usize>,
    /// The priority permutation the scheduler committed to.
    pub committed_order: Vec<usize>,
    /// Fraction of pairs whose completions invert `lp_order`.
    pub lp_inversion_fraction: f64,
    /// Fraction of pairs whose completions invert `committed_order`.
    pub committed_inversion_fraction: f64,
    /// The underlying flight-recorder streams (events, port series).
    pub recorder: FlightRecorder,
}

impl ScheduleDiagnostics {
    /// Anomalies at or above `min`.
    pub fn anomalies_at_least(&self, min: Severity) -> impl Iterator<Item = &Anomaly> {
        self.anomalies.iter().filter(move |a| a.severity >= min)
    }
}

/// Diagnoses a clean (fault-free) schedule against the LP relaxation.
pub fn diagnose(
    instance: &Instance,
    outcome: &ScheduleOutcome,
    lp: &LpRelaxation,
    cfg: &DiagnosticsConfig,
) -> ScheduleDiagnostics {
    let _span = obs::span("diag.analyze");
    let completions: Vec<Option<u64>> = outcome.completions.iter().map(|&c| Some(c)).collect();
    diagnose_core(
        instance,
        &outcome.trace,
        &completions,
        &outcome.order,
        &[],
        None,
        lp,
        cfg,
    )
}

/// Diagnoses a fault-injected execution. When `baseline` (the clean run of
/// the same instance and spec) is supplied, the recovery-regression
/// detector compares completions of coflows the faults never touched.
pub fn diagnose_faulty(
    instance: &Instance,
    faulty: &FaultyOutcome,
    baseline: Option<&ScheduleOutcome>,
    lp: &LpRelaxation,
    cfg: &DiagnosticsConfig,
) -> ScheduleDiagnostics {
    let _span = obs::span("diag.analyze");
    // Fault executions replan per epoch; the committed order degenerates
    // to arrival order for reporting purposes.
    let committed: Vec<usize> = (0..instance.len()).collect();
    diagnose_core(
        instance,
        &faulty.executed,
        &faulty.completions,
        &committed,
        &faulty.blocked,
        baseline.map(|b| b.completions.as_slice()),
        lp,
        cfg,
    )
}

#[allow(clippy::too_many_arguments)]
fn diagnose_core(
    instance: &Instance,
    trace: &ScheduleTrace,
    completions: &[Option<u64>],
    committed_order: &[usize],
    blocked: &[BlockedRun],
    baseline: Option<&[u64]>,
    lp: &LpRelaxation,
    cfg: &DiagnosticsConfig,
) -> ScheduleDiagnostics {
    let n = instance.len();
    let m = instance.ports();
    let makespan = trace.makespan();
    let releases = instance.releases();
    let totals: Vec<u64> = instance.coflows().iter().map(|c| c.total_units()).collect();
    let recorder = record_flights(trace, &totals, &releases, blocked, &cfg.recorder);

    // The run serving each slot (1-indexed; `None` in gaps between runs):
    // every slot of a run moves one unit per transfer.
    let mut run_of_slot: Vec<Option<&Run>> = vec![None; makespan as usize + 1];
    for run in &trace.runs {
        let slots = run.start as usize..(run.start + run.duration) as usize;
        run_of_slot[slots].fill(Some(run));
    }
    let moves_in = |t: usize| run_of_slot[t].map_or(&[][..], |r| &r.transfers[..]);

    // Per-slot idle accounting. Idle capacity in a slot is *unforced*
    // when at least one released, incomplete coflow still has demand there
    // — idle forced by release dates (nothing to serve yet) is not the
    // scheduler's fault.
    let mut pending_demand = vec![false; makespan as usize + 1];
    for k in 0..n {
        if totals[k] == 0 {
            continue;
        }
        let from = releases[k] + 1;
        let to = completions[k].unwrap_or(makespan).min(makespan);
        for t in from..=to {
            pending_demand[t as usize] = true;
        }
    }
    // Prefix sums of unforced idle, so per-coflow windows are O(1).
    let mut idle_prefix = vec![0u64; makespan as usize + 1];
    let mut unforced_idle = 0u64;
    for t in 1..=makespan as usize {
        if pending_demand[t] {
            unforced_idle += (m as u64).saturating_sub(moves_in(t).len() as u64);
        }
        idle_prefix[t] = unforced_idle;
    }
    let offered = m as u64 * makespan;

    // Work-conservation scan: a slot is *non-conserving* when the
    // highest-priority (per committed order) released, incomplete coflow
    // still has demand on a pair whose ingress and egress both sit idle —
    // a unit of the coflow the scheduler itself ranks first could have
    // moved and didn't. Lower-priority coflows are deliberately excluded:
    // Algorithm 2 serializes by priority, so *their* servable demand
    // sitting behind the active group is policy, not pathology. What the
    // policy never justifies is idling the top coflow's own pairs — that
    // is exactly the waste backfilling exists to consume.
    // Per-coflow remaining demand, drained as moves replay.
    let mut rem = SparseDemand::new(m, instance.demands());
    let mut src_busy = vec![false; m];
    let mut dst_busy = vec![false; m];
    let mut nonconserving_slots = 0u64;
    for t in 1..=makespan {
        src_busy.fill(false);
        dst_busy.fill(false);
        for tr in moves_in(t as usize) {
            let (s, d, k) = (tr.src(), tr.dst(), tr.coflow());
            src_busy[s] = true;
            dst_busy[d] = true;
            if k >= n {
                continue;
            }
            if let Some(e) = rem.find(k, s, d).filter(|&e| rem.units(e) > 0) {
                rem.take(k, e, 1);
            }
        }
        // The top-priority coflow that is released (servable from slot
        // r_k + 1) and still has unserved demand after this slot's moves.
        let top = committed_order
            .iter()
            .copied()
            .find(|&k| releases[k] < t && rem.total(k) > 0);
        let Some(k) = top else { continue };
        if rem
            .view(k)
            .nonzero_entries()
            .any(|(i, j, _)| !src_busy[i] && !dst_busy[j])
        {
            nonconserving_slots += 1;
        }
    }

    // Per-coflow attribution.
    let mut per_coflow = Vec::with_capacity(n);
    for k in 0..n {
        let c = instance.coflow(k);
        let flight = &recorder.flights[k];
        let end = completions[k].unwrap_or(makespan).min(makespan);
        let flow_time = end.saturating_sub(releases[k]);
        let wait_slots = flow_time.saturating_sub(flight.service_slots);
        let lp_completion = lp.approx_completion.get(k).copied().unwrap_or(0.0);
        let ratio = completions[k].map(|ck| ck as f64 / lp_completion.max(1.0));
        let window_idle =
            idle_prefix[end as usize] - idle_prefix[(releases[k].min(makespan)) as usize];
        let idle_share = if unforced_idle > 0 {
            window_idle as f64 / unforced_idle as f64
        } else {
            0.0
        };
        per_coflow.push(CoflowReport {
            coflow: k,
            weight: c.weight,
            release: releases[k],
            completion: completions[k],
            lp_completion,
            ratio,
            wait_slots,
            service_slots: flight.service_slots,
            blocked_slots: flight.blocked_slots,
            preemptions: flight.preemptions,
            idle_share,
        });
    }

    let objective: f64 = instance
        .coflows()
        .iter()
        .zip(completions)
        .filter_map(|(c, ck)| ck.map(|t| c.weight * t as f64))
        .sum();
    let lp_inversion_fraction = inversion_fraction(lp.order.as_slice(), completions);
    let committed_inversion_fraction = inversion_fraction(committed_order, completions);

    let mut anomalies = Vec::new();

    // Starvation: fault-blocked service above threshold. The blocked log
    // is empty on clean runs, so this cannot fire there.
    for report in &per_coflow {
        if report.blocked_slots >= cfg.starvation_blocked_slots.max(1) {
            let severity = if report.blocked_slots >= 2 * cfg.starvation_blocked_slots {
                Severity::Critical
            } else {
                Severity::Warning
            };
            anomalies.push(Anomaly {
                detector: Detector::Starvation,
                severity,
                coflow: Some(report.coflow),
                value: report.blocked_slots as f64,
                threshold: cfg.starvation_blocked_slots as f64,
                message: format!(
                    "coflow {} was denied {} unit-slots by fault windows \
                     (threshold {})",
                    report.coflow, report.blocked_slots, cfg.starvation_blocked_slots
                ),
            });
        }
    }

    // Unforced idle: slots violating work conservation, as a share of
    // the makespan. Augmentation padding without backfilling legitimately
    // leaves some servable capacity on the table; the threshold sits
    // above the worst clean grid cell (see DESIGN.md §4d calibration).
    let nonconserving_share = if makespan > 0 {
        nonconserving_slots as f64 / makespan as f64
    } else {
        0.0
    };
    if nonconserving_share > cfg.unforced_idle_share
        && nonconserving_slots >= cfg.unforced_idle_min_slots
    {
        anomalies.push(Anomaly {
            detector: Detector::UnforcedIdle,
            severity: Severity::Warning,
            coflow: None,
            value: nonconserving_share,
            threshold: cfg.unforced_idle_share,
            message: format!(
                "{:.1}% of slots left a servable pair idle with released \
                 demand pending (threshold {:.1}%)",
                100.0 * nonconserving_share,
                100.0 * cfg.unforced_idle_share
            ),
        });
    }

    // Ordering violations: completions inverting the committed priority
    // order beyond what backfilling normally explains.
    if committed_inversion_fraction > cfg.ordering_inversion_fraction {
        anomalies.push(Anomaly {
            detector: Detector::OrderingViolation,
            severity: Severity::Warning,
            coflow: None,
            value: committed_inversion_fraction,
            threshold: cfg.ordering_inversion_fraction,
            message: format!(
                "{:.1}% of coflow pairs completed against the committed \
                 priority order (threshold {:.1}%)",
                100.0 * committed_inversion_fraction,
                100.0 * cfg.ordering_inversion_fraction
            ),
        });
    }

    // Recovery regressions: unblocked coflows that still slipped vs the
    // clean baseline.
    if let Some(base) = baseline {
        for report in &per_coflow {
            let (Some(faulty_c), Some(&clean_c)) = (report.completion, base.get(report.coflow))
            else {
                continue;
            };
            if report.blocked_slots > 0 || clean_c == 0 {
                continue;
            }
            let inflation = faulty_c as f64 / clean_c as f64 - 1.0;
            if inflation > cfg.recovery_inflation {
                anomalies.push(Anomaly {
                    detector: Detector::RecoveryRegression,
                    severity: Severity::Warning,
                    coflow: Some(report.coflow),
                    value: inflation,
                    threshold: cfg.recovery_inflation,
                    message: format!(
                        "coflow {} was never fault-blocked yet completed at \
                         {} vs {} clean (+{:.0}%, threshold +{:.0}%)",
                        report.coflow,
                        faulty_c,
                        clean_c,
                        100.0 * inflation,
                        100.0 * cfg.recovery_inflation
                    ),
                });
            }
        }
    }

    for a in &anomalies {
        obs::instant(a.detector.instant_name());
        obs::counter_add("diag.anomalies", 1);
    }

    let lp_lower_bound = lp.lower_bound;
    ScheduleDiagnostics {
        per_coflow,
        anomalies,
        objective,
        lp_lower_bound,
        approx_ratio: if lp_lower_bound > 0.0 {
            Some(objective / lp_lower_bound)
        } else {
            None
        },
        makespan,
        unforced_idle,
        nonconserving_slots,
        offered,
        lp_order: lp.order.clone(),
        committed_order: committed_order.to_vec(),
        lp_inversion_fraction,
        committed_inversion_fraction,
        recorder,
    }
}

/// Fraction of ordered pairs `(a before b)` in `order` whose realized
/// completions invert (`C_a > C_b`). Cancelled coflows and zero-demand
/// ties are skipped; 0.0 when fewer than two comparable pairs exist.
fn inversion_fraction(order: &[usize], completions: &[Option<u64>]) -> f64 {
    let mut pairs = 0u64;
    let mut inverted = 0u64;
    for (i, &a) in order.iter().enumerate() {
        let Some(ca) = completions.get(a).copied().flatten() else {
            continue;
        };
        for &b in &order[i + 1..] {
            let Some(cb) = completions.get(b).copied().flatten() else {
                continue;
            };
            pairs += 1;
            if ca > cb {
                inverted += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        inverted as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::ordering::OrderRule;
    use crate::relax::solve_interval_lp;
    use crate::sched::{run, AlgorithmSpec};
    use coflow_matching::IntMatrix;

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn clean_schedule_attributes_every_coflow() {
        let instance = inst();
        let out = run(&instance, &AlgorithmSpec::algorithm2());
        let lp = solve_interval_lp(&instance);
        let d = diagnose(&instance, &out, &lp, &DiagnosticsConfig::default());
        assert_eq!(d.per_coflow.len(), 3);
        for r in &d.per_coflow {
            assert_eq!(r.blocked_slots, 0);
            let ratio = r.ratio.expect("clean run has a ratio for every coflow");
            assert!(ratio > 0.0);
            assert!(
                ratio <= crate::DETERMINISTIC_RATIO + 1e-9,
                "coflow {} ratio {} exceeds 67/3",
                r.coflow,
                ratio
            );
            // wait + service account for the full flow time.
            let end = r.completion.unwrap();
            assert_eq!(r.wait_slots + r.service_slots, end - r.release);
        }
        assert!(d.approx_ratio.unwrap() >= 1.0 - 1e-9);
        // No faults, no starvation or regression; thresholds keep the
        // idle/ordering detectors quiet on this tiny instance.
        assert!(d
            .anomalies
            .iter()
            .all(|a| a.detector != Detector::Starvation
                && a.detector != Detector::RecoveryRegression));
    }

    #[test]
    fn idle_shares_are_a_distribution() {
        let instance = inst();
        let out = run(&instance, &AlgorithmSpec::algorithm2());
        let lp = solve_interval_lp(&instance);
        let d = diagnose(&instance, &out, &lp, &DiagnosticsConfig::default());
        for r in &d.per_coflow {
            assert!((0.0..=1.0 + 1e-9).contains(&r.idle_share));
        }
    }

    #[test]
    fn reversed_priority_order_trips_the_ordering_detector() {
        // Serve in the *worst* order: the committed order claims the
        // reverse of what actually completes first.
        let instance = inst();
        let out = run(&instance, &AlgorithmSpec::algorithm2());
        let lp = solve_interval_lp(&instance);
        let mut tampered = out.clone();
        tampered.order.reverse();
        let cfg = DiagnosticsConfig {
            ordering_inversion_fraction: 0.10,
            ..DiagnosticsConfig::default()
        };
        let d_orig = diagnose(&instance, &out, &lp, &cfg);
        let d_rev = diagnose(&instance, &tampered, &lp, &cfg);
        assert!(
            d_rev.committed_inversion_fraction > d_orig.committed_inversion_fraction,
            "reversing the committed order must increase inversions"
        );
    }

    #[test]
    fn serial_schedule_fires_unforced_idle() {
        use coflow_netsim::{Run, Transfer};

        // 300 units on one pair, dribbled out one unit every fifth slot:
        // four fifths of the makespan leave the top-priority coflow's
        // servable pair idle. A work-conserving scheduler serves it
        // back-to-back and stays silent.
        let coflow = Coflow::new(0, IntMatrix::from_nested(&[[0, 300], [0, 0]]));
        let instance = Instance::new(2, vec![coflow]);
        let lp = solve_interval_lp(&instance);
        let cfg = DiagnosticsConfig::default();

        let dribble = |stride: u64| {
            let runs = (0..300u64)
                .map(|i| Run {
                    start: stride * i + 1,
                    duration: 1,
                    transfers: Box::new([Transfer::new(0, 1, 0).unwrap()]),
                })
                .collect();
            let trace = ScheduleTrace { m: 2, runs };
            let completion = trace.makespan();
            ScheduleOutcome {
                order: vec![0],
                completions: vec![completion],
                objective: completion as f64,
                trace,
            }
        };

        let serial = dribble(5);
        let d = diagnose(&instance, &serial, &lp, &cfg);
        assert!(
            d.nonconserving_slots >= cfg.unforced_idle_min_slots,
            "dribbled schedule must accumulate evidence ({} slots)",
            d.nonconserving_slots
        );
        assert!(
            d.anomalies
                .iter()
                .any(|a| a.detector == Detector::UnforcedIdle),
            "serial dribble must fire unforced-idle"
        );

        let dense = dribble(1);
        let d = diagnose(&instance, &dense, &lp, &cfg);
        assert_eq!(
            d.nonconserving_slots, 0,
            "back-to-back service conserves work"
        );
        assert!(d.anomalies.is_empty());
    }

    #[test]
    fn severity_ordering_and_parsing() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("nope"), None);
        assert_eq!(Severity::Critical.name(), "critical");
    }

    #[test]
    fn starvation_fires_only_with_blocked_slots() {
        use crate::sched::engine::{run_policy_with_faults, ResilientPolicy};
        use coflow_lp::SimplexOptions;
        use coflow_netsim::{FaultEvent, FaultPlan};

        let instance = inst();
        let spec = AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        };
        let lp = solve_interval_lp(&instance);
        let cfg = DiagnosticsConfig {
            starvation_blocked_slots: 1,
            ..DiagnosticsConfig::default()
        };

        // Clean fault run: no starvation possible.
        let replan = |plan: &FaultPlan| {
            let mut policy = ResilientPolicy::new(spec, SimplexOptions::default());
            run_policy_with_faults(&instance, &mut policy, plan).unwrap()
        };
        let clean = replan(&FaultPlan::default());
        let d_clean = diagnose_faulty(&instance, &clean, None, &lp, &cfg);
        assert!(
            d_clean
                .anomalies
                .iter()
                .all(|a| a.detector != Detector::Starvation),
            "no fault plan, no starvation"
        );

        // A long ingress outage strands planned units -> starvation fires.
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage {
            port: 1,
            start: 1,
            end: 6,
        }]);
        let faulty = replan(&plan);
        assert!(faulty.blocked_units > 0, "outage must strand planned units");
        let d = diagnose_faulty(&instance, &faulty, None, &lp, &cfg);
        assert!(
            d.anomalies
                .iter()
                .any(|a| a.detector == Detector::Starvation),
            "stranded units above threshold must fire starvation"
        );
    }

    #[test]
    fn inversion_fraction_counts_pairs() {
        let comps = vec![Some(3u64), Some(2), Some(1)];
        // Order 0,1,2 but completions strictly decreasing: all 3 pairs
        // inverted.
        assert!((inversion_fraction(&[0, 1, 2], &comps) - 1.0).abs() < 1e-12);
        // The realized completion order has zero inversions.
        assert_eq!(inversion_fraction(&[2, 1, 0], &comps), 0.0);
        // Cancelled coflows drop out of the comparison.
        let with_none = vec![Some(3u64), None, Some(1)];
        assert!((inversion_fraction(&[0, 1, 2], &with_none) - 1.0).abs() < 1e-12);
    }
}
