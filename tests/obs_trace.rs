//! End-to-end observability test: runs the real pipeline with recording
//! enabled and validates the chrome-trace JSON against the trace-event
//! schema using the workspace's own parser.
//!
//! This lives in its own integration-test binary (its own process), so
//! enabling the global registry cannot interfere with other tests.

use coflow::ordering::OrderRule;
use coflow::sched::{run, AlgorithmSpec};
use coflow_workloads::json::{parse, JsonValue};
use coflow_workloads::{generate_trace, TraceConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The registry is process-global and libtest runs tests in parallel;
/// serialize the two tests that touch it.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn num_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn str_of(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

#[test]
fn pipeline_chrome_trace_is_schema_valid() {
    let _guard = registry_lock();
    obs::reset();
    obs::set_enabled(true);
    let inst = generate_trace(&TraceConfig::small(11));
    let spec = AlgorithmSpec {
        order: OrderRule::LpBased,
        grouping: true,
        backfill: true,
    };
    let outcome = run(&inst, &spec);
    assert!(outcome.makespan() > 0);
    obs::set_enabled(false);

    let trace = obs::chrome_trace();
    let doc = parse(&trace).expect("chrome trace must be valid JSON");

    // Object form with the traceEvents array.
    let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert_eq!(
        doc.get("displayTimeUnit").and_then(str_of),
        Some("ms"),
        "displayTimeUnit must be declared"
    );
    assert!(events.len() > 1, "pipeline must emit span events");

    let mut saw_metadata = false;
    let mut span_names = Vec::new();
    let mut counter_names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(str_of).expect("every event has ph");
        let name = e
            .get("name")
            .and_then(str_of)
            .expect("every event has name");
        assert!(
            e.get("pid").and_then(num_u64).is_some(),
            "every event has an integer pid"
        );
        match ph {
            "M" => saw_metadata = true,
            "X" => {
                // Complete events: ts/dur in microseconds, a tid, and the
                // full span path in args.
                assert!(e.get("ts").and_then(num_u64).is_some());
                assert!(e.get("dur").and_then(num_u64).is_some());
                assert!(e.get("tid").and_then(num_u64).is_some());
                let path = e
                    .get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(str_of)
                    .expect("span events carry args.path");
                assert!(
                    path.ends_with(name),
                    "leaf name {} must terminate path {}",
                    name,
                    path
                );
                span_names.push(name.to_string());
            }
            "C" => {
                assert!(
                    e.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(num_u64)
                        .is_some(),
                    "counter events carry an integer args.value"
                );
                counter_names.push(name.to_string());
            }
            other => panic!("unexpected event phase {:?}", other),
        }
    }
    assert!(saw_metadata, "process_name metadata event missing");

    // The instrumented pipeline stages must all appear.
    for expected in [
        "lp.build_model",
        "lp.solve",
        "sched.order",
        "matching.bvn_decompose",
        "sched.execute",
        "sched.simulate",
    ] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "span {} missing from trace (got {:?})",
            expected,
            span_names
        );
    }
    for expected in [
        "lp.simplex.pivots",
        "matching.bvn.permutations",
        "netsim.fabric.slots",
    ] {
        assert!(
            counter_names.iter().any(|n| n == expected),
            "counter {} missing from trace (got {:?})",
            expected,
            counter_names
        );
    }
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _guard = registry_lock();
    obs::set_enabled(false);
    obs::reset();
    let inst = generate_trace(&TraceConfig::small(3));
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: false,
        backfill: false,
    };
    let _ = run(&inst, &spec);
    let snap = obs::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.spans.is_empty());
}
