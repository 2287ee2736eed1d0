//! Failure injection: corrupt valid traces in targeted ways and check the
//! validator rejects each corruption with the *right* error. A validator
//! that silently accepts corrupted schedules would quietly void every other
//! guarantee in this repository, so each rejection path is exercised.

use coflow_matching::IntMatrix;
use coflow_netsim::{validate_trace, Demand, Run, ScheduleTrace, Transfer, ValidationError};

/// A valid two-coflow instance and its trace: one run over slots 2–4 in
/// which pair (0, 1) serves coflow 0's two units and then coflow 1's one,
/// and (1, 2) and (2, 0) serve the rest.
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
    trace.push_run(Run {
        start: 2,
        duration: 3,
        transfers: Box::new([
            Transfer::new(0, 1, 0, 2).unwrap(),
            Transfer::new(0, 1, 1, 1).unwrap(),
            Transfer::new(1, 2, 0, 1).unwrap(),
            Transfer::new(2, 0, 1, 2).unwrap(),
        ]),
    });
    (demands, releases, trace)
}

/// Rewrites the first run's transfer list.
fn edit_first_run(trace: &mut ScheduleTrace, edit: impl FnOnce(&mut Vec<Transfer>)) {
    let mut transfers = trace.runs[0].transfers.to_vec();
    edit(&mut transfers);
    trace.runs[0].transfers = transfers.into();
}

/// `t` with its ports and coflow replaced.
fn relabel(t: &Transfer, src: usize, dst: usize, coflow: usize) -> Transfer {
    Transfer::new(src, dst, coflow, t.units).unwrap()
}

#[test]
fn baseline_trace_is_valid() {
    let (demands, releases, trace) = valid_setup();
    let times = validate_trace(&demands, &releases, &trace).expect("valid baseline");
    assert_eq!(times.len(), 2);
}

#[test]
fn dropping_a_transfer_is_under_delivery() {
    let (demands, releases, mut trace) = valid_setup();
    edit_first_run(&mut trace, |ts| {
        ts.pop();
    });
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(err, ValidationError::UnderDelivery { .. }),
        "{:?}",
        err
    );
}

#[test]
fn inflating_units_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    trace.runs[0].transfers[0].units += 5;
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::PairOverCapacity { .. } | ValidationError::OverDelivery { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn duplicating_a_pair_on_another_source_is_port_reuse() {
    let (demands, releases, mut trace) = valid_setup();
    // Egress 1 is already used by pair (0,1); add (1,1) to clash.
    edit_first_run(&mut trace, |ts| ts.push(Transfer::new(2, 1, 0, 1).unwrap()));
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
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
            *t = relabel(t, t.src(), t.dst(), 0);
        }
    }
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
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
    // Rebuild the same transfers in a run starting at slot 1 — coflow 1 is
    // released at 1, so its first allowed slot is 2.
    let mut early = ScheduleTrace::new(3);
    early.push_run(Run {
        start: 1,
        duration: 3,
        transfers: trace.runs[0].transfers.clone(),
    });
    let err = validate_trace(&demands, &releases, &early).unwrap_err();
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
    *t = relabel(t, t.src(), t.dst(), 99);
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
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
    for t in trace.runs[0].transfers.iter_mut() {
        if t.src() == 1 {
            *t = relabel(t, t.src(), 0, t.coflow());
        }
    }
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
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
        *t = relabel(t, src, dst, t.coflow());
        let err = validate_trace(&demands, &releases, &trace).unwrap_err();
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

#[test]
fn units_that_wrap_a_pair_sum_are_over_capacity() {
    let (demands, releases, mut trace) = valid_setup();
    // After the first transfer's 2 units on (0,1), u64::MAX more wraps the
    // pair's sum.
    edit_first_run(&mut trace, |ts| {
        ts.insert(1, Transfer::new(0, 1, 0, u64::MAX).unwrap())
    });
    let err = validate_trace(&demands, &releases, &trace).unwrap_err();
    assert_eq!(
        err,
        ValidationError::PairOverCapacity {
            run: 0,
            src: 0,
            dst: 1,
            units: u64::MAX,
            capacity: 3
        }
    );
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
        transfers: Box::new([Transfer::new(0, 1, 0, 1).unwrap()]),
    };
    for (first, free_from) in [(1, 3), (5, 7)] {
        let mut trace = ScheduleTrace::new(2);
        trace.runs.push(run(first, 2));
        trace.runs.push(run(1, 1));
        assert_eq!(
            validate_trace(&demands, &[0], &trace),
            Err(ValidationError::RunOverlap {
                run: 1,
                start: 1,
                free_from
            })
        );
    }
}
