//! `coflow-snapshot/1` checkpoints are external bytes, so the simulator
//! state they carry must agree with the instance before a run resumes from
//! it. Residual demand on a pair the coflow never demanded used to hang
//! `online` (its empty matching was held for about 2⁶⁴ slots) and panic the
//! order-driven policies; an executed transfer from a port outside the
//! fabric panicked the replay check; residual above the demand was
//! over-delivered; a coflow marked complete with residual demand
//! finished as if the residual were not there. An executed transfer
//! longer than its run would lose its excess units when the restored
//! trace is merged into maximal runs, an executed run that is not a
//! matching restored and failed the replay check only after the resumed
//! run, and an executed run after the clock panicked the first slot the
//! resumed run recorded. A blocked log was
//! taken verbatim: a unit on a port outside the fabric, in slot 0 or after
//! the clock, out of slot order, or sharing a port with another unit of
//! its slot, and a `blocked_units` that disagrees with the log, all
//! restored; merging such a log into runs would index past the fabric or
//! lose units. `Engine::restore` now answers each with a typed
//! `SnapshotError`, for every checkpointing policy, and an intact
//! checkpoint still resumes bit for bit.
//!
//! A sweep of blind edits — truncations, and every digit replaced by an
//! out-of-range number — then requires each edited checkpoint to be
//! refused or to resume without a panic. The watchdog used to rebuild its
//! batch plan without the order and batch checks a top-level `bvn-batch`
//! state gets, and a solver tolerance edited past every pivot panicked the
//! simplex.

use coflow::{
    compute_order, verify_faulty_outcome, BvnBatchPolicy, Coflow, Engine, EngineError,
    EngineSnapshot, ExecOptions, FaultyOutcome, Instance, OrderRule, Policy, PolicyRegistry,
    PolicyState, WatchdogPolicy,
};
use coflow_matching::IntMatrix;
use coflow_netsim::{BlockedRun, FaultPlan, Run, Transfer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Builds a fresh policy over an instance.
type Build = Box<dyn Fn(&Instance) -> Box<dyn Policy>>;

/// Every checkpointing policy: the registry's, and `watchdog-bvn` as the
/// chaos harness builds it (the grouped `H_ρ` batch plan under the
/// watchdog's Finished rescue).
fn checkpointing_policies() -> Vec<(&'static str, Build)> {
    let mut policies: Vec<(&'static str, Build)> = PolicyRegistry::builtin()
        .entries()
        .iter()
        .map(|entry| {
            let build: Build = Box::new(move |inst| entry.build(inst));
            (entry.name, build)
        })
        .collect();
    policies.push((
        "watchdog-bvn",
        Box::new(|inst| {
            let order = compute_order(inst, OrderRule::LoadOverWeight);
            let batch = BvnBatchPolicy::grouped(inst, order, true, ExecOptions::default());
            Box::new(WatchdogPolicy::over_bvn(batch))
        }),
    ));
    policies
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

/// Replaces the first executed transfer with `(src, dst, coflow)` (adding
/// one when nothing was executed).
fn set_transfer(snapshot: &mut EngineSnapshot, src: usize, dst: usize, coflow: usize) {
    let transfer = Transfer::new(src, dst, coflow).expect("ids fit in u32");
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

/// Makes the first executed run hold its first transfer and `twin` of it.
fn add_twin(snapshot: &mut EngineSnapshot, twin: fn(Transfer) -> (usize, usize, usize)) {
    let run = snapshot
        .sim
        .executed
        .runs
        .first_mut()
        .expect("a run executed");
    let first = run.transfers[0];
    let (src, dst, coflow) = twin(first);
    let twin = Transfer::new(src, dst, coflow).expect("ids fit in u32");
    run.transfers = Box::new([first, twin]);
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
        |s| set_transfer(s, 7, 0, 0),
        "outside the instance",
    ),
    (
        "executed transfer to egress 7",
        |s| set_transfer(s, 0, 7, 0),
        "outside the instance",
    ),
    (
        "executed transfer of coflow 9",
        |s| set_transfer(s, 0, 0, 9),
        "outside the instance",
    ),
    (
        "executed run that repeats an ingress",
        |s| add_twin(s, |t| (t.src(), 1 - t.dst(), t.coflow())),
        "uses ingress",
    ),
    (
        "executed run that repeats an egress",
        |s| add_twin(s, |t| (1 - t.src(), t.dst(), 1 - t.coflow())),
        "uses egress",
    ),
    (
        "executed run after the clock",
        |s| {
            let transfer = Transfer::new(0, 0, 0).expect("ids fit in u32");
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
    let policies = checkpointing_policies();
    assert_eq!(policies.len(), 7, "every checkpointing policy is covered");
    for (name, build) in policies {
        let mut policy = build(&inst);
        let mut engine = Engine::new(&inst, &plan);
        assert!(engine.step(&mut *policy).expect("step"), "{}", name);
        let json = engine.checkpoint(&*policy).expect("checkpoint").to_json();
        let intact = EngineSnapshot::from_json(&json).expect("parse");

        // The intact checkpoint resumes to the uninterrupted run's outcome.
        let (restored, mut resumed_policy) =
            Engine::restore(&inst, intact.clone()).expect("intact checkpoint restores");
        let resumed = finish(restored, &mut *resumed_policy);
        let mut fresh = build(&inst);
        let whole = finish(Engine::new(&inst, &plan), &mut *fresh);
        assert_eq!(resumed.completions, whole.completions, "{}", name);
        assert_eq!(
            resumed.objective.to_bits(),
            whole.objective.to_bits(),
            "{}",
            name
        );
        verify_faulty_outcome(&inst, &plan, &resumed).expect("resumed run verifies");

        for (case, doctor, expected) in CASES {
            let mut hostile = intact.clone();
            doctor(&mut hostile);
            match refusal(&inst, hostile) {
                Ok(message) => assert!(
                    message.contains(expected),
                    "{}: {}: refused for the wrong reason: {}",
                    name,
                    case,
                    message
                ),
                Err(what) => panic!("{}: {}: not refused; {}", name, case, what),
            }
        }
    }
}

/// A `coflow-snapshot/1` document lists each executed transfer as
/// `[src,dst,coflow,units]`, and every transfer moves one unit in each
/// slot of its run: units other than the run's duration are refused,
/// naming the run, for every checkpointing policy.
#[test]
fn executed_units_other_than_the_run_duration_are_refused() {
    let inst = instance();
    let plan = FaultPlan::default();
    for (name, build) in checkpointing_policies() {
        let mut policy = build(&inst);
        let mut engine = Engine::new(&inst, &plan);
        assert!(engine.step(&mut *policy).expect("step"), "{}", name);
        let snapshot = engine.checkpoint(&*policy).expect("checkpoint");
        let run = snapshot.sim.executed.runs.first().expect("a run executed");
        let (start, duration, t) = (run.start, run.duration, run.transfers[0]);
        let json = snapshot.to_json();
        let written = |units: u64| {
            format!(
                "[{},{},[[{},{},{},{}]",
                start,
                duration,
                t.src(),
                t.dst(),
                t.coflow(),
                units
            )
        };
        assert!(json.contains(&written(duration)), "{}: {}", name, json);
        for units in [0, duration - 1, duration + 1] {
            let doctored = json.replacen(&written(duration), &written(units), 1);
            let err = EngineSnapshot::from_json(&doctored).expect_err(name);
            let want = format!("run 0 moves {} units of coflow {}", units, t.coflow());
            assert!(err.message.contains(&want), "{}: {}", name, err);
        }
    }
}

/// `m` ports, `n` coflows on about half the port pairs, arriving a few
/// slots apart.
fn arrivals(m: usize, n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut release = 0;
    let coflows = (0..n)
        .map(|id| {
            let data: Vec<u64> = (0..m * m)
                .map(|_| rng.gen_range(0u64..6).saturating_sub(2))
                .collect();
            release += rng.gen_range(0u64..8);
            Coflow::new(id, IntMatrix::from_rows(m, data))
                .with_release(release)
                .with_weight(rng.gen_range(1u64..5) as f64)
        })
        .collect();
    Instance::new(m, coflows)
}

/// Decisions a resumed run may take before the sweep stops it. An edit
/// that stretches an outage to about 10¹² slots resumes legitimately, and
/// holds re-serve the blocked pair every few slots, so such a run would
/// take hundreds of thousands of decisions.
const DECISION_BUDGET: usize = 2_000;

/// Parses, restores and runs `doc` for at most [`DECISION_BUDGET`]
/// decisions. True when the document is refused.
fn refused(inst: &Instance, doc: &str) -> bool {
    let Ok(snapshot) = EngineSnapshot::from_json(doc) else {
        return true;
    };
    let Ok((mut engine, mut policy)) = Engine::restore(inst, snapshot) else {
        return true;
    };
    for _ in 0..DECISION_BUDGET {
        if !matches!(engine.step(&mut *policy), Ok(true)) {
            break;
        }
    }
    false
}

/// Blind edits of `doc`, each with its description: truncations, and each
/// digit replaced by `0`, `9`, `99999999999`, `-1`, `1.5` and `1e999`.
fn hostile_edits(doc: &str) -> impl Iterator<Item = (String, String)> + '_ {
    let cuts = (0..doc.len())
        .step_by(doc.len() / 64 + 1)
        .chain([doc.len() - 2, doc.len() - 1])
        .map(|at| (format!("cut at byte {}", at), doc[..at].to_string()));
    let digits = doc
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .flat_map(move |(at, b)| {
            ["0", "9", "99999999999", "-1", "1.5", "1e999"]
                .into_iter()
                .filter(move |r| r.as_bytes() != [b])
                .map(move |r| {
                    let edited = format!("{}{}{}", &doc[..at], r, &doc[at + 1..]);
                    (format!("byte {} set to {}", at, r), edited)
                })
        });
    cuts.chain(digits)
}

/// Every blind edit of a checkpoint taken a few decisions into a faulted
/// run is refused, or resumes and runs without a panic.
#[test]
fn hostile_edits_are_refused_or_resume_without_a_panic() {
    let inst = arrivals(4, 6, 5);
    let plan = FaultPlan::generate(inst.ports(), inst.len(), 60, 0.2, 2015);
    let (mut edits, mut refusals) = (0, 0);
    let mut panics = Vec::new();
    for (name, build) in checkpointing_policies() {
        let mut policy = build(&inst);
        let mut engine = Engine::new(&inst, &plan);
        for _ in 0..3 {
            assert!(engine.step(&mut *policy).expect("step"), "{}", name);
        }
        let doc = engine.checkpoint(&*policy).expect("checkpoint").to_json();
        for (edit, edited) in hostile_edits(&doc) {
            edits += 1;
            match catch_unwind(AssertUnwindSafe(|| refused(&inst, &edited))) {
                Ok(refused) => refusals += usize::from(refused),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    panics.push(format!("{}: {}: {}", name, edit, message));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {} edits panicked, first: {:#?}",
        panics.len(),
        edits,
        &panics[..panics.len().min(8)]
    );
    assert!(
        0 < refusals && refusals < edits,
        "{} of {}",
        refusals,
        edits
    );
}

/// A registry policy's checkpoint on [`instance`] after `steps` decisions,
/// rendered as a `coflow-snapshot/1` document.
fn checkpoint_after(name: &str, steps: usize) -> String {
    let inst = instance();
    let plan = FaultPlan::default();
    let entry = PolicyRegistry::builtin().get(name).expect("registered");
    let mut policy = entry.build(&inst);
    let mut engine = Engine::new(&inst, &plan);
    for _ in 0..steps {
        assert!(engine.step(&mut *policy).expect("step"), "{}", name);
    }
    engine.checkpoint(&*policy).expect("checkpoint").to_json()
}

/// `json` with `entry` (`"key":value`) written right after `anchor`.
fn with_entry(json: &str, anchor: &str, entry: &str) -> String {
    assert!(json.contains(anchor), "{} is not in {}", anchor, json);
    json.replacen(anchor, &format!("{}{},", anchor, entry), 1)
}

/// Where each retired option sits in its policy's document: the registry
/// policy, the text its key follows, and the key.
const RETIRED: [(&str, &str, &str); 3] = [
    ("online", "\"kind\":\"online-rho\",", "resort_on_completion"),
    ("bvn-batch", "\"opts\":{", "maxmin"),
    ("resilient", "\"lp_opts\":{", "partial_pricing"),
];

/// Each option retired with the behaviour it selected, set to a value
/// that selected a behaviour this code no longer has (arrival-only
/// re-sort, the max-min peel, block pricing), is a typed error naming the
/// key: resuming such a checkpoint would silently change its schedule.
/// Checkpoints are taken before the first decision, so no batch is in
/// flight.
#[test]
fn retired_options_set_to_a_lost_behaviour_are_refused() {
    for ((name, anchor, key), value) in RETIRED.into_iter().zip(["false", "true", "64"]) {
        let entry = format!("\"{}\":{}", key, value);
        let doctored = with_entry(&checkpoint_after(name, 0), anchor, &entry);
        match EngineSnapshot::from_json(&doctored) {
            Ok(snapshot) => panic!(
                "{}: {} parsed; restore: {:?}",
                name,
                entry,
                Engine::restore(&instance(), snapshot).map(|_| ())
            ),
            Err(e) => assert!(e.message.contains(key), "{}: {}: {}", name, entry, e),
        }
    }
}

/// The same options holding the one value the code still runs (`true`,
/// `false`, `null`), as every checkpoint written before their retirement
/// does, restore mid-run and resume bit for bit.
#[test]
fn retired_options_at_the_running_value_resume_bit_identically() {
    let inst = instance();
    let plan = FaultPlan::default();
    for ((name, anchor, key), value) in RETIRED.into_iter().zip(["true", "false", "null"]) {
        let entry = format!("\"{}\":{}", key, value);
        let doctored = with_entry(&checkpoint_after(name, 1), anchor, &entry);
        let snapshot = EngineSnapshot::from_json(&doctored)
            .unwrap_or_else(|e| panic!("{}: {}: {}", name, entry, e));
        let (engine, mut policy) = Engine::restore(&inst, snapshot)
            .unwrap_or_else(|e| panic!("{}: {}: {}", name, entry, e));
        let resumed = finish(engine, &mut *policy);
        let registered = PolicyRegistry::builtin().get(name).expect("registered");
        let whole = finish(Engine::new(&inst, &plan), &mut *registered.build(&inst));
        assert_eq!(resumed.completions, whole.completions, "{}", name);
        assert_eq!(
            resumed.objective.to_bits(),
            whole.objective.to_bits(),
            "{}",
            name
        );
        assert_eq!(resumed.executed, whole.executed, "{}", name);
    }
}

/// `watchdog-bvn`'s checkpoint on [`instance`] after `steps` decisions,
/// and its uninterrupted run.
fn watchdog_checkpoint_after(steps: usize) -> (String, FaultyOutcome) {
    let inst = instance();
    let plan = FaultPlan::default();
    let policies = checkpointing_policies();
    let (_, build) = policies
        .iter()
        .find(|(name, _)| *name == "watchdog-bvn")
        .expect("listed");
    let mut policy = build(&inst);
    let mut engine = Engine::new(&inst, &plan);
    for _ in 0..steps {
        assert!(engine.step(&mut *policy).expect("step"));
    }
    let json = engine.checkpoint(&*policy).expect("checkpoint").to_json();
    (json, finish(Engine::new(&inst, &plan), &mut *build(&inst)))
}

/// The watchdog's deadline keys are retired: a checkpoint that holds them
/// at the values every deadline-free run wrote resumes bit for bit, and
/// one that records a deadline or a breach is refused, naming the key.
#[test]
fn watchdog_deadline_keys_are_retired() {
    let inst = instance();
    let (json, whole) = watchdog_checkpoint_after(1);
    let anchor = "\"kind\":\"watchdog\",\"degradations\":0,";
    assert!(json.contains(anchor), "{}", json);
    let written_with = |deadline: &str, attempts: &str, backoff: &str, breaches: &str| {
        json.replacen(
            anchor,
            &format!(
                "\"kind\":\"watchdog\",\"deadline_us\":{},\"attempts\":{},\"backoff\":{},\
                 \"degradations\":0,\"breaches\":{},",
                deadline, attempts, backoff, breaches
            ),
            1,
        )
    };
    for doc in [
        written_with("null", "2", "0.5", "0"),
        written_with("null", "7", "0.125", "0"),
    ] {
        let snapshot = EngineSnapshot::from_json(&doc).expect("parse");
        let (engine, mut policy) = Engine::restore(&inst, snapshot).expect("restore");
        let resumed = finish(engine, &mut *policy);
        assert_eq!(resumed.executed, whole.executed);
        assert_eq!(resumed.objective.to_bits(), whole.objective.to_bits());
    }
    for (doc, key) in [
        (written_with("250000", "2", "0.5", "0"), "deadline_us"),
        (written_with("null", "2", "0.5", "1"), "breaches"),
        (written_with("null", "true", "0.5", "0"), "attempts"),
        (written_with("null", "2", "1e999", "0"), "backoff"),
    ] {
        let err = EngineSnapshot::from_json(&doc).expect_err(key);
        assert!(err.message.contains(key), "{}: {}", key, err);
    }
}

/// The watchdog's inner state must be the one its rescue count names: the
/// batch plan before the rescue, the online policy after it. Anything
/// else is refused before a policy is rebuilt, and so is a count that
/// only a 32-bit cast would have read as 0.
#[test]
fn watchdog_rungs_are_refused_unless_the_rescue_count_names_them() {
    let inst = instance();
    let (json, _) = watchdog_checkpoint_after(1);
    let intact = EngineSnapshot::from_json(&json).expect("parse");
    let PolicyState::Watchdog { inner: bvn, .. } = &intact.policy else {
        panic!("not a watchdog state");
    };
    let online = PolicyState::OnlineRho {
        next_event: 0,
        active: Vec::new(),
    };
    let refused = |degradations: u64, inner: &PolicyState| {
        let mut hostile = intact.clone();
        hostile.policy = PolicyState::Watchdog {
            degradations,
            inner: Box::new(inner.clone()),
        };
        Engine::restore(&inst, hostile).err().map(|e| e.message)
    };
    assert_eq!(refused(0, bvn), None);
    assert_eq!(refused(1, &online), None);
    let nested = PolicyState::Watchdog {
        degradations: 0,
        inner: bvn.clone(),
    };
    for (degradations, inner) in [
        (1, &**bvn),
        (0, &online),
        (4_294_967_296, &**bvn),
        (0, &PolicyState::Greedy { order: vec![0, 1] }),
        (0, &nested),
    ] {
        let message = refused(degradations, inner).expect("refused");
        assert!(message.contains("watchdog"), "{}", message);
    }
    let wide = json.replacen("\"degradations\":0", "\"degradations\":4294967296", 1);
    let err = Engine::restore(&inst, EngineSnapshot::from_json(&wide).expect("parse"));
    assert!(err.is_err(), "a 33-bit rescue count is refused");
    // A repeated order entry: the batch plan is rebuilt through the
    // checks a top-level bvn-batch state gets.
    let at = json.find("\"order\":[").expect("order") + "\"order\":[".len();
    let repeated = format!("{}1,1{}", &json[..at], &json[at + 3..]);
    let err = EngineSnapshot::from_json(&repeated).map(|s| Engine::restore(&inst, s).map(|_| ()));
    assert!(
        matches!(err, Ok(Err(ref e)) if e.message.contains("permutation")),
        "{:?}",
        err.map(|r| r.map_err(|e| e.message))
    );
}
