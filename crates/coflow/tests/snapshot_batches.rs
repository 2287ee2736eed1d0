//! `coflow-snapshot/1` checkpoints of the batch pipeline are external
//! bytes: a doctored batch list must be refused with a typed error, and a
//! checkpoint written before the decomposition-path keys were retired must
//! still resume bit for bit.

use coflow::{BvnBatchPolicy, Coflow, Engine, EngineSnapshot, ExecOptions, Instance, Policy};
use coflow_matching::IntMatrix;
use coflow_netsim::FaultPlan;

/// Runs `policy` to completion from `engine`'s current state.
fn finish(mut engine: Engine<'_>, policy: &mut dyn Policy) -> coflow::FaultyOutcome {
    while engine.step(policy).expect("step") {}
    engine.into_outcome(policy)
}

#[test]
fn restore_rejects_batches_that_are_not_runs_of_the_order() {
    let inst = Instance::new(
        2,
        vec![
            Coflow::new(0, IntMatrix::from_nested(&[[2, 1], [0, 2]])),
            Coflow::new(1, IntMatrix::from_nested(&[[0, 3], [1, 0]])).with_release(1),
            Coflow::new(2, IntMatrix::from_nested(&[[4, 0], [0, 1]])).with_weight(2.0),
        ],
    );
    let plan = FaultPlan::new(vec![]);
    for backfill in [false, true] {
        let opts = ExecOptions {
            backfill,
            ..ExecOptions::default()
        };
        let mut policy = BvnBatchPolicy::new(&inst, vec![0, 1, 2], vec![vec![0, 1], vec![2]], opts);
        let mut engine = Engine::new(&inst, &plan);
        assert!(engine.step(&mut policy).expect("step"));
        let json = engine.checkpoint(&policy).expect("checkpoint").to_json();
        let batches = "\"batches\":[[0,1],[2]]";
        assert!(json.contains(batches), "{}", json);
        let intact = EngineSnapshot::from_json(&json).expect("parse");
        assert!(
            Engine::restore(&inst, intact).is_ok(),
            "backfill {}",
            backfill
        );
        // An out-of-range member, a repeated member, and a reordering: each
        // has as many members as the order, which the old check counted.
        for hostile in ["[[0,7],[2]]", "[[0,0],[2]]", "[[2],[0,1]]"] {
            let doctored = json.replace(batches, &format!("\"batches\":{}", hostile));
            let snapshot = EngineSnapshot::from_json(&doctored).expect("parse");
            match Engine::restore(&inst, snapshot) {
                Ok(_) => panic!("backfill {}: batches {} restored", backfill, hostile),
                Err(e) => assert!(
                    e.to_string().contains("batches"),
                    "backfill {}: batches {}: {}",
                    backfill,
                    hostile,
                    e
                ),
            }
        }
    }
}

/// The instance the legacy checkpoint below was taken on.
fn legacy_instance() -> Instance {
    Instance::new(
        3,
        vec![
            Coflow::new(
                0,
                IntMatrix::from_nested(&[[2, 1, 0], [0, 2, 1], [1, 0, 2]]),
            )
            .with_weight(2.0),
            Coflow::new(
                1,
                IntMatrix::from_nested(&[[0, 3, 1], [1, 0, 0], [2, 1, 0]]),
            )
            .with_release(1),
            Coflow::new(
                2,
                IntMatrix::from_nested(&[[1, 0, 0], [0, 0, 4], [0, 2, 0]]),
            )
            .with_weight(1.5)
            .with_release(2),
            Coflow::new(
                3,
                IntMatrix::from_nested(&[[0, 0, 2], [3, 0, 0], [0, 1, 1]]),
            )
            .with_release(4),
        ],
    )
}

fn legacy_policy(instance: &Instance) -> BvnBatchPolicy {
    BvnBatchPolicy::new(
        instance,
        vec![0, 1, 2, 3],
        vec![vec![0, 1], vec![2, 3]],
        ExecOptions::default(),
    )
}

/// A checkpoint of `legacy_policy` on `legacy_instance`, taken three
/// decisions into a clean run (mid-batch), as written while the options
/// still named the decomposition path: both retired keys are `true`.
const LEGACY_CHECKPOINT: &str = r#"{
  "schema": "coflow-snapshot/1",
  "replans": 1,
  "tiers": [0],
  "last_window": 0,
  "decisions": 3,
  "sim": {"m":3,"now":7,"releases":[0,1,2,4],"remaining":[[0,0,0,0,0,0,0,0,0],[0,0,1,1,0,0,0,1,0],[1,0,0,0,0,4,0,2,0],[0,0,2,3,0,0,0,1,1]],"remaining_total":[0,3,7,7],"completion":[4,null,null,null],"last_activity":[4,7,0,0],"cancelled":[false,false,false,false],"blocked_units":0,"blocked_log_dropped":0,"blocked_log":[],"executed":{"m":3,"runs":[[2,1,[[0,0,0,1],[1,1,0,1],[2,2,0,1]]],[3,1,[[0,0,0,1],[1,1,0,1],[2,2,0,1]]],[4,1,[[0,1,0,1],[1,2,0,1],[2,0,0,1]]],[5,1,[[0,1,1,1],[2,0,1,1]]],[6,1,[[0,1,1,1],[2,0,1,1]]],[7,1,[[0,1,1,1]]]]},"plan":[]},
  "policy": {"kind":"bvn-batch","order":[0,1,2,3],"batches":[[0,1],[2,3]],"opts":{"backfill":false,"rematch":false,"maxmin":false,"sequential":true,"sharded":true},"b_idx":1,"current":{"augmented":[2,4,1,1,2,4,4,1,2],"slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],1]],"load":7,"chunks":[[2,1]],"batch_end_pos":1}}
}
"#;

#[test]
fn legacy_decomposition_keys_resume_bit_identically() {
    let inst = legacy_instance();
    let plan = FaultPlan::new(vec![]);
    let mut reference_policy = legacy_policy(&inst);
    let reference = finish(Engine::new(&inst, &plan), &mut reference_policy);
    // The uninterrupted run the checkpoint was cut from.
    assert_eq!(
        reference.completions,
        vec![Some(4), Some(8), Some(13), Some(15)]
    );
    assert_eq!(reference.objective.to_bits(), 4632304060471443456);

    let snapshot = EngineSnapshot::from_json(LEGACY_CHECKPOINT).expect("legacy checkpoint parses");
    let (engine, mut policy) =
        Engine::restore(&inst, snapshot).expect("legacy checkpoint restores");
    let resumed = finish(engine, policy.as_mut());
    assert_eq!(resumed.completions, reference.completions);
    assert_eq!(resumed.objective.to_bits(), reference.objective.to_bits());
    assert_eq!(resumed.executed, reference.executed);
    assert_eq!(resumed.replans, reference.replans);
    assert_eq!(resumed.tiers, reference.tiers);

    // New checkpoints no longer write the retired keys.
    let fresh = Engine::new(&inst, &plan)
        .checkpoint(&legacy_policy(&inst))
        .expect("checkpoint")
        .to_json();
    assert!(
        !fresh.contains("\"sequential\"") && !fresh.contains("\"sharded\""),
        "{}",
        fresh
    );
}

/// Restores `LEGACY_CHECKPOINT` with `intact` replaced by `doctored` and
/// expects a typed refusal whose message names `what`.
fn assert_refused(intact: &str, doctored: &str, what: &str) {
    let json = LEGACY_CHECKPOINT.replace(intact, doctored);
    assert_ne!(
        json, LEGACY_CHECKPOINT,
        "{} is not in the checkpoint",
        intact
    );
    let snapshot = EngineSnapshot::from_json(&json).expect("doctored checkpoint parses");
    match Engine::restore(&legacy_instance(), snapshot) {
        Ok(_) => panic!("{} restored", doctored),
        Err(e) => assert!(e.to_string().contains(what), "{}: {}", doctored, e),
    }
}

#[test]
fn restore_rejects_an_augmented_matrix_that_is_not_the_slot_sum() {
    // Σ q·Π of the three slots is [2,4,1, 1,2,4, 4,1,2].
    let intact = "\"augmented\":[2,4,1,1,2,4,4,1,2]";
    assert_refused(intact, "\"augmented\":[2,4,1,1,2,4,4,1,3]", "augmented");
    assert_refused(intact, "\"augmented\":[2,4,1,1,2,4,4,1,1]", "augmented");
}

#[test]
fn restore_rejects_a_load_that_is_not_the_count_sum() {
    // The counts are 2 + 4 + 1.
    for load in ["6", "8", "0"] {
        assert_refused("\"load\":7", &format!("\"load\":{}", load), "load");
    }
}

#[test]
fn restore_rejects_pending_chunks_that_overrun_their_slot() {
    // Slot 2 has count 1. Stretched to 5, its chunk used to resume into a
    // different schedule (completions [4, 8, 17, 19] for [4, 8, 13, 15]).
    let intact = "\"chunks\":[[2,1]]";
    for chunks in ["[[2,5]]", "[[2,0]]", "[[2,1],[2,1]]"] {
        assert_refused(intact, &format!("\"chunks\":{}", chunks), "chunks");
    }
    // Chunks that fit their slots still restore.
    let json = LEGACY_CHECKPOINT.replace(intact, "\"chunks\":[[0,2],[1,3],[2,1]]");
    let snapshot = EngineSnapshot::from_json(&json).expect("parse");
    assert!(Engine::restore(&legacy_instance(), snapshot).is_ok());
}

#[test]
fn legacy_decomposition_keys_must_be_bools() {
    for (key, value) in [
        ("sequential", "1"),
        ("sharded", "\"yes\""),
        ("sequential", "null"),
    ] {
        let doctored = LEGACY_CHECKPOINT.replace(
            &format!("\"{}\":true", key),
            &format!("\"{}\":{}", key, value),
        );
        assert_ne!(doctored, LEGACY_CHECKPOINT);
        match EngineSnapshot::from_json(&doctored) {
            Ok(_) => panic!("{} = {} parsed", key, value),
            Err(e) => assert!(e.to_string().contains(key), "{} = {}: {}", key, value, e),
        }
    }
}

#[test]
fn restore_rejects_a_slot_off_the_augmented_support() {
    // Slot 2 cut to count 0 and its pairs taken out of the augmented
    // matrix: Σ q·Π still equals the matrix, the load is the count sum and
    // the chunk fits, but the slot pairs ports the matrix has no units on.
    let intact = r#""augmented":[2,4,1,1,2,4,4,1,2],"slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],1]],"load":7,"chunks":[[2,1]]"#;
    let doctored = r#""augmented":[2,4,0,0,2,4,4,0,2],"slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],0]],"load":6,"chunks":[[1,1]]"#;
    assert_refused(intact, doctored, "off the augmented support");
    // With its count kept, the slot's units fall outside the matrix.
    let doctored = r#""augmented":[2,4,0,0,2,4,4,0,2],"slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],1]],"load":7,"chunks":[[2,1]]"#;
    assert_refused(intact, doctored, "augmented");
}

/// The batch in flight of `LEGACY_CHECKPOINT`: its augmented matrix and
/// the peel of it, with every edge kept.
const LEGACY_BATCH: &str =
    r#""augmented":[2,4,1,1,2,4,4,1,2],"slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],1]],"load":7"#;

#[test]
fn a_checkpoint_of_the_legacy_batch_renders_it_exactly() {
    let inst = legacy_instance();
    assert!(LEGACY_CHECKPOINT.contains(LEGACY_BATCH));
    // Restored and checkpointed again before any decision.
    let snapshot = EngineSnapshot::from_json(LEGACY_CHECKPOINT).expect("parse");
    let (engine, policy) = Engine::restore(&inst, snapshot).expect("restore");
    let again = engine
        .checkpoint(policy.as_ref())
        .expect("checkpoint")
        .to_json();
    assert!(again.contains(LEGACY_BATCH), "{}", again);
    // Taken afresh three decisions into the run it was cut from.
    let plan = FaultPlan::new(vec![]);
    let mut policy = legacy_policy(&inst);
    let mut engine = Engine::new(&inst, &plan);
    for _ in 0..3 {
        assert!(engine.step(&mut policy).expect("step"));
    }
    let fresh = engine.checkpoint(&policy).expect("checkpoint").to_json();
    assert!(fresh.contains(LEGACY_BATCH), "{}", fresh);
    assert!(fresh.contains("\"chunks\":[[2,1]]"), "{}", fresh);
}

#[test]
fn restore_rejects_slots_that_are_not_the_peel_of_the_augmented_matrix() {
    let intact = r#""slots":[[[0,1,2],2],[[1,2,0],4],[[2,0,1],1]],"load":7,"chunks":[[2,1]]"#;
    // Each is a decomposition of the same augmented matrix that passes
    // every other check: the slots reordered, with the chunk following its
    // slot, and a slot split in two.
    for doctored in [
        r#""slots":[[[2,0,1],1],[[0,1,2],2],[[1,2,0],4]],"load":7,"chunks":[[0,1]]"#,
        r#""slots":[[[0,1,2],2],[[1,2,0],3],[[1,2,0],1],[[2,0,1],1]],"load":7,"chunks":[[3,1]]"#,
    ] {
        assert_refused(intact, doctored, "not the peel of the augmented matrix");
    }
}
