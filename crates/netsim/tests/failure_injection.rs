//! Failure injection: corrupt valid traces in targeted ways and check the
//! validator rejects each corruption with the *right* error. A validator
//! that silently accepts corrupted schedules would quietly void every other
//! guarantee in this repository, so each rejection path is exercised.

use coflow_matching::IntMatrix;
use coflow_netsim::{
    validate_trace, Demand, FaultPlan, Run, ScheduleTrace, Transfer, ValidationError,
};

/// A `duration`-slot run from `start` over `(src, dst, coflow)` transfers.
fn run(start: u64, duration: u64, transfers: &[(usize, usize, usize)]) -> Run {
    Run {
        start,
        duration,
        transfers: transfers
            .iter()
            .map(|&(i, j, k)| Transfer::new(i, j, k).unwrap())
            .collect(),
    }
}

/// A valid two-coflow instance and its trace: a run over slots 2–3 in
/// which pair (0, 1) serves coflow 0's two units and (2, 0) coflow 1's
/// two, then a run in slot 4 in which (0, 1) serves coflow 1's unit and
/// (1, 2) coflow 0's.
fn valid_setup() -> (Vec<Demand>, Vec<u64>, ScheduleTrace) {
    let mut d0 = IntMatrix::zeros(3);
    d0[(0, 1)] = 2;
    d0[(1, 2)] = 1;
    let mut d1 = IntMatrix::zeros(3);
    d1[(0, 1)] = 1;
    d1[(2, 0)] = 2;
    let demands = vec![Demand::from(d0), Demand::from(d1)];
    let releases = vec![0, 1];
    let mut trace = ScheduleTrace::new(3);
    trace.push_run(run(2, 2, &[(0, 1, 0), (2, 0, 1)]));
    trace.push_run(run(4, 1, &[(0, 1, 1), (1, 2, 0)]));
    (demands, releases, trace)
}

/// [`validate_trace`] under the empty fault plan.
fn validate(
    demands: &[Demand],
    releases: &[u64],
    trace: &ScheduleTrace,
) -> Result<Vec<Option<u64>>, ValidationError> {
    validate_trace(demands, releases, &FaultPlan::default(), trace)
}

/// Rewrites the first run's transfer list.
fn edit_first_run(trace: &mut ScheduleTrace, edit: impl FnOnce(&mut Vec<Transfer>)) {
    let mut transfers = trace.runs[0].transfers.to_vec();
    edit(&mut transfers);
    trace.runs[0].transfers = transfers.into();
}

/// A transfer of `coflow` on `(src, dst)`.
fn transfer(src: usize, dst: usize, coflow: usize) -> Transfer {
    Transfer::new(src, dst, coflow).unwrap()
}

#[test]
fn baseline_trace_is_valid() {
    let (demands, releases, trace) = valid_setup();
    let times = validate(&demands, &releases, &trace).expect("valid baseline");
    assert_eq!(times, vec![Some(4), Some(4)]);
}

#[test]
fn dropping_a_transfer_is_under_delivery() {
    let (demands, releases, mut trace) = valid_setup();
    edit_first_run(&mut trace, |ts| {
        ts.pop();
    });
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(err, ValidationError::UnderDelivery { .. }),
        "{:?}",
        err
    );
}

#[test]
fn inflating_units_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    // Each transfer of the first run now moves 3 units: one more than
    // coflow 0 demands on (0, 1).
    trace.runs[0].duration += 1;
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert_eq!(
        err,
        ValidationError::OverDelivery {
            coflow: 0,
            src: 0,
            dst: 1
        }
    );
}

#[test]
fn listing_a_pair_twice_is_port_reuse() {
    let (demands, releases, mut trace) = valid_setup();
    // Coflow 1 also demands (0, 1): a second transfer on the pair in the
    // same run would share its ports.
    edit_first_run(&mut trace, |ts| ts.push(transfer(0, 1, 1)));
    let err = validate(&demands, &releases, &trace).unwrap_err();
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
fn a_run_of_zero_slots_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    trace.runs[1].duration = 0;
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert_eq!(
        err,
        ValidationError::RunLength {
            run: 1,
            start: 4,
            duration: 0
        }
    );
}

#[test]
fn duplicating_a_pair_on_another_source_is_port_reuse() {
    let (demands, releases, mut trace) = valid_setup();
    // Egress 1 is already used by pair (0,1); add (1,1) to clash.
    edit_first_run(&mut trace, |ts| ts.push(transfer(1, 1, 0)));
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(err, ValidationError::PortReused { ingress: false, .. })
            || matches!(err, ValidationError::PortReused { ingress: true, .. }),
        "{:?}",
        err
    );
}

#[test]
fn rewriting_coflow_attribution_is_over_delivery() {
    let (demands, releases, mut trace) = valid_setup();
    // Attribute coflow 1's (2,0) units to coflow 0, which has no demand
    // there.
    for t in trace.runs[0].transfers.iter_mut() {
        if t.src() == 2 {
            *t = transfer(t.src(), t.dst(), 0);
        }
    }
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::OverDelivery { .. } | ValidationError::UnderDelivery { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn shifting_a_run_before_release_is_caught() {
    let (demands, releases, trace) = valid_setup();
    // Rebuild the first run starting at slot 1 — coflow 1 is released at
    // 1, so its first allowed slot is 2.
    let mut early = ScheduleTrace::new(3);
    early.push_run(Run {
        start: 1,
        duration: 2,
        transfers: trace.runs[0].transfers.clone(),
    });
    let err = validate(&demands, &releases, &early).unwrap_err();
    assert!(
        matches!(err, ValidationError::ReleaseViolated { coflow: 1, .. }),
        "{:?}",
        err
    );
}

#[test]
fn unknown_coflow_index_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    let t = &mut trace.runs[0].transfers[0];
    *t = transfer(t.src(), t.dst(), 99);
    let err = validate(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(err, ValidationError::UnknownCoflow { coflow: 99 }),
        "{:?}",
        err
    );
}

#[test]
fn moving_units_across_pairs_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    // Divert coflow 0's (1,2) unit onto (1,0): no demand there.
    for t in trace.runs.iter_mut().flat_map(|r| r.transfers.iter_mut()) {
        if t.src() == 1 {
            *t = transfer(t.src(), 0, t.coflow());
        }
    }
    let err = validate(&demands, &releases, &trace).unwrap_err();
    // Either the diverted pair over-delivers (no demand there) or the
    // original pair under-delivers — or the diverted pair collides with an
    // existing egress assignment.
    assert!(
        matches!(
            err,
            ValidationError::OverDelivery { .. }
                | ValidationError::UnderDelivery { .. }
                | ValidationError::PortReused { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn a_port_outside_the_fabric_is_caught() {
    for (src, dst, port) in [(3, 1, 3), (0, 3, 3)] {
        let (demands, releases, mut trace) = valid_setup();
        let t = &mut trace.runs[0].transfers[0];
        *t = transfer(src, dst, t.coflow());
        let err = validate(&demands, &releases, &trace).unwrap_err();
        assert_eq!(
            err,
            ValidationError::PortOutOfRange {
                run: 0,
                port,
                ports: 3
            }
        );
    }
}

/// Two runs that share slot 1 move two units through ingress 0 in that
/// slot, which each run alone allows; listed out of time order they
/// overlap too. Both are refused at the later-listed run. (`push_run`
/// refuses such runs, but `runs` is a public list.)
#[test]
fn overlapping_runs_are_caught() {
    let demands = [Demand::from_flows(2, [(0, 1, 2)]).unwrap()];
    let run = |start, duration| Run {
        start,
        duration,
        transfers: Box::new([transfer(0, 1, 0)]),
    };
    for (first, free_from) in [(1, 3), (5, 7)] {
        let mut trace = ScheduleTrace::new(2);
        trace.runs.push(run(first, 2));
        trace.runs.push(run(1, 1));
        assert_eq!(
            validate(&demands, &[0], &trace),
            Err(ValidationError::RunOverlap {
                run: 1,
                start: 1,
                free_from
            })
        );
    }
}
