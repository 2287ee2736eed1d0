//! `coflow-snapshot/1` checkpoints are external bytes, so the simulator
//! state they carry must agree with the instance before a run resumes from
//! it. Residual demand on a pair the coflow never demanded used to hang
//! `online` (its empty matching was held for about 2⁶⁴ slots) and panic the
//! order-driven policies; an executed transfer from a port outside the
//! fabric panicked the replay check; residual above the demand was
//! over-delivered; a coflow marked complete with residual demand
//! finished as if the residual were not there. An executed transfer
//! longer than its run would lose its excess units when the restored
//! trace is merged into maximal runs, and an executed run after the clock
//! panicked the first slot the resumed run recorded. A blocked log was
//! taken verbatim: a unit on a port outside the fabric, in slot 0 or after
//! the clock, out of slot order, or sharing a port with another unit of
//! its slot, and a `blocked_units` that disagrees with the log, all
//! restored; merging such a log into runs would index past the fabric or
//! lose units. `Engine::restore` now answers each with a typed
//! `SnapshotError`, for every checkpointing policy, and an intact
//! checkpoint still resumes bit for bit.

use coflow::{
    verify_faulty_outcome, Coflow, Engine, EngineError, EngineSnapshot, FaultyOutcome, Instance,
    Policy, PolicyRegistry,
};
use coflow_matching::IntMatrix;
use coflow_netsim::{BlockedRun, FaultPlan, Run, Transfer};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Two ports, two coflows: coflow 0 demands the diagonal, coflow 1 the
/// anti-diagonal.
fn instance() -> Instance {
    Instance::new(
        2,
        vec![
            Coflow::new(0, IntMatrix::from_nested(&[[2, 0], [0, 1]])).with_weight(2.0),
            Coflow::new(1, IntMatrix::from_nested(&[[0, 3], [1, 0]])),
        ],
    )
}

/// Runs `policy` to completion from `engine`'s current state.
fn finish(mut engine: Engine<'_>, policy: &mut dyn Policy) -> FaultyOutcome {
    while engine.step(policy).expect("step") {}
    engine.into_outcome(policy)
}

/// Restores `snapshot` on a worker thread and, if it is accepted, runs it
/// to the end. Returns the restore's error message, or what happened
/// instead: the run ended, panicked, or was still going after 20 s.
fn refusal(instance: &Instance, snapshot: EngineSnapshot) -> Result<String, String> {
    let instance = instance.clone();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let verdict = match Engine::restore(&instance, snapshot) {
            Err(e) => Ok(e.message),
            Ok((mut engine, mut policy)) => {
                let mut run = || -> Result<(), EngineError> {
                    while engine.step(&mut *policy)? {}
                    Ok(())
                };
                Err(format!("restored, and the run ended with {:?}", run()))
            }
        };
        let _ = tx.send(verdict);
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(verdict) => verdict,
        Err(RecvTimeoutError::Timeout) => Err("restored, and still running after 20 s".into()),
        Err(RecvTimeoutError::Disconnected) => Err("panicked".into()),
    }
}

/// Sets coflow `k`'s residual demand to `residual`, with a matching total,
/// and marks it in flight.
fn set_residual(snapshot: &mut EngineSnapshot, k: usize, residual: IntMatrix) {
    snapshot.sim.remaining_total[k] = residual.total();
    snapshot.sim.remaining[k] = residual;
    snapshot.sim.completion[k] = None;
    snapshot.sim.cancelled[k] = false;
}

/// Replaces the first executed transfer with `(src, dst, coflow, units)`
/// (adding one when nothing was executed).
fn set_transfer(snapshot: &mut EngineSnapshot, src: usize, dst: usize, coflow: usize, units: u64) {
    let transfer = Transfer::new(src, dst, coflow, units).expect("ids fit in u32");
    let executed = &mut snapshot.sim.executed;
    match executed.runs.first_mut() {
        Some(run) => run.transfers[0] = transfer,
        None => executed.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([transfer]),
        }),
    }
}

/// Appends a blocked run of `slots` units of `coflow` on `(src, dst)` from
/// slot `start` to the log, and counts its units in `blocked_units`.
fn block(
    snapshot: &mut EngineSnapshot,
    start: u64,
    slots: u64,
    pair: (usize, usize),
    coflow: usize,
) {
    let run = BlockedRun::new(start, slots, pair.0, pair.1, coflow).expect("ids fit in u32");
    snapshot.sim.blocked_log.push(run);
    snapshot.sim.blocked_units += slots;
}

type Doctor = fn(&mut EngineSnapshot);

/// Each hostile edit of a valid checkpoint, and a fragment of the error
/// that must refuse it.
const CASES: [(&str, Doctor, &str); 21] = [
    (
        "residual on a pair the coflow never demanded",
        |s| set_residual(s, 0, IntMatrix::from_nested(&[[0, 1], [0, 0]])),
        "above its demand of 0",
    ),
    (
        "residual above the coflow's demand on a pair",
        |s| set_residual(s, 1, IntMatrix::from_nested(&[[0, 4], [0, 0]])),
        "above its demand of 3",
    ),
    (
        "coflow marked complete with residual demand",
        |s| {
            set_residual(s, 0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
            s.sim.completion[0] = Some(1);
        },
        "complete or cancelled but has 1 residual units",
    ),
    (
        "coflow marked cancelled with residual demand",
        |s| {
            set_residual(s, 0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
            s.sim.cancelled[0] = true;
        },
        "complete or cancelled but has 1 residual units",
    ),
    (
        "coflow in flight without residual demand",
        |s| set_residual(s, 0, IntMatrix::zeros(2)),
        "in flight but has 0 residual units",
    ),
    (
        "executed transfer from ingress 7",
        |s| set_transfer(s, 7, 0, 0, 1),
        "outside the instance",
    ),
    (
        "executed transfer to egress 7",
        |s| set_transfer(s, 0, 7, 0, 1),
        "outside the instance",
    ),
    (
        "executed transfer of coflow 9",
        |s| set_transfer(s, 0, 0, 9, 1),
        "outside the instance",
    ),
    (
        "executed transfer of zero units",
        |s| set_transfer(s, 0, 0, 0, 0),
        "outside the instance",
    ),
    (
        "executed transfer longer than its run",
        |s| {
            let duration = s.sim.executed.runs.first().map_or(1, |r| r.duration);
            set_transfer(s, 0, 0, 0, duration + 1);
        },
        "but lasts",
    ),
    (
        "executed run after the clock",
        |s| {
            let transfer = Transfer::new(0, 0, 0, 1).expect("ids fit in u32");
            let start = s.sim.now + 2;
            s.sim.executed.runs.push(Run {
                start,
                duration: 1,
                transfers: Box::new([transfer]),
            });
        },
        "ends after the clock",
    ),
    (
        "blocked unit on ingress 7",
        |s| block(s, 1, 1, (7, 0), 0),
        "blocked unit (7, 0, coflow 0) is outside the instance",
    ),
    (
        "blocked unit on egress 7",
        |s| block(s, 1, 1, (0, 7), 0),
        "blocked unit (0, 7, coflow 0) is outside the instance",
    ),
    (
        "blocked unit of coflow 9",
        |s| block(s, 1, 1, (0, 0), 9),
        "blocked unit (0, 0, coflow 9) is outside the instance",
    ),
    (
        "blocked unit in slot 0",
        |s| block(s, 0, 1, (0, 0), 0),
        "from slot 0 is not within slots 1..=",
    ),
    (
        "blocked unit after the clock",
        |s| {
            let after = s.sim.now + 1;
            block(s, after, 1, (0, 0), 0);
        },
        "is not within slots 1..=",
    ),
    (
        "blocked units out of slot order",
        |s| {
            s.sim.now = s.sim.now.max(2);
            block(s, 2, 1, (0, 0), 0);
            block(s, 1, 1, (1, 1), 1);
        },
        "blocked log goes back from slot 2 to slot 1",
    ),
    (
        "two blocked units on one ingress in one slot",
        |s| {
            block(s, 1, 1, (0, 0), 0);
            block(s, 1, 1, (0, 1), 1);
        },
        "two blocked units on ingress 0 in slot 1",
    ),
    (
        "two blocked units on one egress in one slot",
        |s| {
            block(s, 1, 1, (0, 1), 1);
            block(s, 1, 1, (1, 1), 0);
        },
        "two blocked units on egress 1 in slot 1",
    ),
    (
        "more blocked units than the log's cap",
        |s| block(s, 1, 65_537, (0, 0), 0),
        "blocked log holds more than its cap of 65536 units",
    ),
    (
        "blocked_units above the logged and dropped units",
        |s| s.sim.blocked_units += 1,
        "is not the 0 logged units plus the 0 dropped",
    ),
];

#[test]
fn restore_refuses_state_that_contradicts_the_instance() {
    let inst = instance();
    let plan = FaultPlan::default();
    let entries = PolicyRegistry::builtin().entries();
    let checkpointing = entries.iter().filter(|e| e.caps.supports_checkpoint);
    let mut policies = 0;
    for entry in checkpointing {
        policies += 1;
        let mut policy = entry.build(&inst);
        let mut engine = Engine::new(&inst, &plan);
        assert!(engine.step(&mut *policy).expect("step"), "{}", entry.name);
        let json = engine.checkpoint(&*policy).expect("checkpoint").to_json();
        let intact = EngineSnapshot::from_json(&json).expect("parse");

        // The intact checkpoint resumes to the uninterrupted run's outcome.
        let (restored, mut resumed_policy) =
            Engine::restore(&inst, intact.clone()).expect("intact checkpoint restores");
        let resumed = finish(restored, &mut *resumed_policy);
        let mut fresh = entry.build(&inst);
        let whole = finish(Engine::new(&inst, &plan), &mut *fresh);
        assert_eq!(resumed.completions, whole.completions, "{}", entry.name);
        assert_eq!(
            resumed.objective.to_bits(),
            whole.objective.to_bits(),
            "{}",
            entry.name
        );
        verify_faulty_outcome(&inst, &plan, &resumed).expect("resumed run verifies");

        for (case, doctor, expected) in CASES {
            let mut hostile = intact.clone();
            doctor(&mut hostile);
            match refusal(&inst, hostile) {
                Ok(message) => assert!(
                    message.contains(expected),
                    "{}: {}: refused for the wrong reason: {}",
                    entry.name,
                    case,
                    message
                ),
                Err(what) => panic!("{}: {}: not refused; {}", entry.name, case, what),
            }
        }
    }
    assert_eq!(
        policies, 7,
        "every checkpointing registry policy is covered"
    );
}
