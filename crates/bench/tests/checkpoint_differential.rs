//! Differential proof of the checkpoint/resume contract: interrupting a
//! run at **every** decision epoch — checkpoint, serialize to the
//! `coflow-snapshot/1` document, re-parse, restore, continue — must land on
//! exactly the schedule an uninterrupted run produces, for every one of the
//! 22 pinned cells (12 grid cells, online, greedy, the successor
//! policies shafiee-ghaderi/im-purohit, the four rate-0.3 fault
//! combinations, and the two rate-0.2 `faults20/*` successor cells).
//!
//! Two granularities:
//!
//! * [`every_epoch_checkpoint_matches_fresh_pins_tiny`] runs in the normal
//!   test tier on a small instance, against freshly computed pins;
//! * [`every_epoch_checkpoint_matches_committed_pins`] (ignored by
//!   default; the `perf-steps` step of `scripts/check-all.sh` runs it in
//!   release) replays the committed `BENCH_pins.json` cells at full pin
//!   scale — the same bit patterns the pin gate enforces must survive
//!   interruption at every single epoch.
//!
//! Both replay the pin table (`coflow_bench::pins::pin_cells`) the pin
//! run measures, each cell under its own fault plan, derived from the
//! pins' clean makespans as the pin run derives it. The clean cells
//! (grid/online/greedy/successors) are driven through the fault engine
//! with an **empty** fault plan; their bit-equality with the committed
//! pins doubles as a proof that the steppable engine and the clean
//! pipeline execute identically.

use coflow::sched::recovery::{verify_faulty_outcome, FaultyOutcome};
use coflow::{run_policy_with_faults, Engine, EngineSnapshot, Instance, Policy};
use coflow_bench::arrivals::arrivals_instance;
use coflow_bench::pins::{collect_pins_on, parse_pins, pin_cells, Pin, PinCell};
use coflow_netsim::FaultPlan;

/// Drives one cell, checkpointing after **every** decision epoch and
/// resuming from the checkpoint; every `json_stride`-th checkpoint (plus
/// the first three) additionally round-trips through the serialized
/// `coflow-snapshot/1` document before the restore. Returns the final
/// outcome and the epoch count.
fn run_with_checkpoint_every_epoch(
    instance: &Instance,
    mut policy: Box<dyn Policy>,
    plan: &FaultPlan,
    json_stride: u64,
) -> (FaultyOutcome, u64) {
    let mut engine = Engine::new(instance, plan);
    let mut epochs = 0u64;
    loop {
        let more = engine.step(policy.as_mut()).expect("engine step");
        epochs += 1;
        if !more {
            break;
        }
        let snapshot = engine.checkpoint(policy.as_ref()).expect("checkpoint");
        let snapshot = if epochs <= 3 || epochs.is_multiple_of(json_stride.max(1)) {
            EngineSnapshot::from_json(&snapshot.to_json()).expect("snapshot round trip")
        } else {
            snapshot
        };
        let (restored_engine, restored_policy) =
            Engine::restore(instance, snapshot).expect("restore");
        engine = restored_engine;
        policy = restored_policy;
    }
    (engine.into_outcome(policy.as_mut()), epochs)
}

/// Checks one pinned cell: the every-epoch-interrupted run must equal the
/// uninterrupted reference bit for bit, and both must equal the pin.
fn check_cell(instance: &Instance, plan: &FaultPlan, cell: &PinCell, pin: &Pin, json_stride: u64) {
    let reference = run_policy_with_faults(instance, &mut *cell.build(instance), plan)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {}", pin.label, e));
    verify_faulty_outcome(instance, plan, &reference)
        .unwrap_or_else(|e| panic!("{}: reference schedule invalid: {}", pin.label, e));

    let (interrupted, epochs) =
        run_with_checkpoint_every_epoch(instance, cell.build(instance), plan, json_stride);
    assert!(epochs >= 1, "{}: no epochs ran", pin.label);

    assert_eq!(
        interrupted.objective.to_bits(),
        reference.objective.to_bits(),
        "{}: interrupted objective {} != reference {}",
        pin.label,
        interrupted.objective,
        reference.objective
    );
    assert_eq!(
        interrupted.replans, reference.replans,
        "{}: replans",
        pin.label
    );
    assert_eq!(interrupted.tiers, reference.tiers, "{}: tiers", pin.label);
    assert_eq!(
        interrupted.executed, reference.executed,
        "{}: executed trace",
        pin.label
    );
    assert_eq!(
        interrupted.completions, reference.completions,
        "{}: completions",
        pin.label
    );

    assert_eq!(
        interrupted.objective.to_bits(),
        pin.objective.to_bits(),
        "{}: objective {} (bits {:#x}) drifted from pin {} (bits {:#x})",
        pin.label,
        interrupted.objective,
        interrupted.objective.to_bits(),
        pin.objective,
        pin.objective.to_bits()
    );
    assert_eq!(
        interrupted.executed.makespan(),
        pin.makespan,
        "{}: makespan",
        pin.label
    );
}

/// Replays the pin table through the fault engine, each cell under its
/// plan (clean cells under the empty plan), against `pins`.
fn check_all_pins(instance: &Instance, seed: u64, pins: &[Pin], json_stride: u64) {
    let cells = pin_cells();
    assert_eq!(pins.len(), cells.len(), "one pin per table cell");
    for cell in &cells {
        let pin = pins
            .iter()
            .find(|p| p.label == cell.label)
            .unwrap_or_else(|| panic!("no pin for cell {}", cell.label));
        let plan = cell.plan.generate(instance, seed, pins);
        check_cell(instance, &plan, cell, pin, json_stride);
    }
}

/// Tier-1 scale: every cell, every epoch interrupted, every checkpoint
/// through the JSON document, against freshly computed pins.
#[test]
fn every_epoch_checkpoint_matches_fresh_pins_tiny() {
    let seed = 3;
    let instance = arrivals_instance(8, 10, seed);
    let report = collect_pins_on(&instance, seed);
    assert_eq!(report.pins.len(), 22);
    check_all_pins(&instance, seed, &report.pins, 1);
}

/// Full pin scale against the committed `BENCH_pins.json` bits. Heavy:
/// run with `cargo test --release -p coflow-bench --test
/// checkpoint_differential -- --ignored` (the `perf-steps` step of
/// scripts/check-all.sh does).
#[test]
#[ignore = "full pin scale; run in release by the perf-steps step of scripts/check-all.sh"]
fn every_epoch_checkpoint_matches_committed_pins() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pins.json"
    ))
    .expect("committed BENCH_pins.json (regenerate: experiments -- pin --out BENCH_pins.json)");
    let report = parse_pins(&text).expect("parse committed pins");
    assert_eq!(report.pins.len(), 22);
    let instance = arrivals_instance(24, 36, report.seed);
    // The serialized round trip is exercised on a stride: the snapshot
    // document grows with the executed trace, so rendering it at all of
    // the several thousand online epochs would dominate the run without
    // adding coverage (restore itself still happens at every epoch).
    check_all_pins(&instance, report.seed, &report.pins, 17);
}
