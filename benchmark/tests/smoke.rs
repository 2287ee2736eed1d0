//! Every workload at two instances: the metric tables match
//! `BENCHMARK.json`, and the ratio and every exact count repeat bit for bit
//! across two runs in one process.

use coflow_benchmark::metrics::{MetricSpec, Rule};
use coflow_benchmark::{run, Report, RunConfig, Workload, END_TO_END, PER_LAYER};
use obs::json::JsonValue;

/// `--seconds` small enough that every workload runs its minimum of two
/// instances.
const TINY: f64 = 0.01;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    obs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => items,
        _ => panic!("BENCHMARK.json lacks the {key} list"),
    }
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a JsonValue {
    entry
        .get(key)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

fn assert_table_matches(doc: &JsonValue, key: &str, table: &[MetricSpec]) {
    let listed = entries(doc, key);
    assert_eq!(listed.len(), table.len(), "{key}: metric count");
    for (entry, spec) in listed.iter().zip(table) {
        assert_eq!(
            field(entry, "name"),
            &JsonValue::Str(spec.name.into()),
            "{key}"
        );
        assert_eq!(
            field(entry, "unit"),
            &JsonValue::Str(spec.unit.into()),
            "{}",
            spec.name
        );
        assert_eq!(
            field(entry, "better"),
            &JsonValue::Str(spec.better.as_str().into()),
            "{}",
            spec.name
        );
        match (entry.get("bound"), spec.rule) {
            (Some(JsonValue::Num(b)), Rule::Bound(bound)) => {
                assert_eq!(b.parse::<f64>().unwrap(), bound, "{} bound", spec.name)
            }
            (None, Rule::Exact | Rule::Info) => {}
            (listed, rule) => panic!("{}: bound {listed:?} vs rule {rule:?}", spec.name),
        }
    }
}

#[test]
fn metric_tables_and_workloads_match_benchmark_json() {
    let doc = benchmark_json();
    assert_table_matches(&doc, "end_to_end", &END_TO_END);
    assert_table_matches(&doc, "per_layer", &PER_LAYER);
    let names: Vec<&JsonValue> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<JsonValue> = Workload::ALL
        .iter()
        .map(|w| JsonValue::Str(w.name().into()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
}

fn run_twice(workload: Workload, trace: bool) -> (Report, Report) {
    let cfg = RunConfig {
        workload,
        seed: 2015,
        seconds: TINY,
        trace,
    };
    (run(&cfg), run(&cfg))
}

fn assert_reports(report: &Report, table: &[MetricSpec]) {
    let name = report.workload.name();
    assert!(report.correct(), "{name}: {:?}", report.failures);
    assert_eq!(report.attempted, 2, "{name}: instance count");
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = table.iter().map(|s| (s.name, s.unit)).collect();
    assert_eq!(got, want, "{name}: metric names and units");
}

#[test]
fn every_workload_runs_and_repeats_bit_for_bit() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (a, b) = run_twice(workload, false);
        assert_reports(&a, &END_TO_END);
        let ratio = |r: &Report| r.value("twct_ratio").map(f64::to_bits);
        assert_eq!(
            ratio(&a),
            ratio(&b),
            "{name}: twct_ratio must repeat exactly"
        );

        let (a, b) = run_twice(workload, true);
        assert_reports(&a, &PER_LAYER);
        for spec in PER_LAYER.iter().filter(|s| s.rule == Rule::Exact) {
            let bits = |r: &Report| r.value(spec.name).map(f64::to_bits);
            assert_eq!(
                bits(&a),
                bits(&b),
                "{name}: {} must repeat exactly",
                spec.name
            );
        }
    }
}
