//! Hostile bytes in a committed report are errors, never passes: the gate
//! readers over the five committed goldens, fed truncations at random
//! offsets, single-byte flips, and one number replaced by `1e999`, `-1`
//! or `1.5`. Every input must give a typed error (or, for a flip that
//! leaves a valid report, the same number of finite rows) — never a
//! panic and never a defaulted row.

use coflow_bench::gate::{flatten, Metric};
use coflow_workloads::json::{self, quote, JsonValue};
use proptest::prelude::*;
use std::sync::OnceLock;

const GOLDENS: [&str; 5] = [
    include_str!("../../../BENCH_baseline.json"),
    include_str!("../../../BENCH_mem.json"),
    include_str!("../../../BENCH_pins.json"),
    include_str!("../../../BENCH_scale.json"),
    include_str!("../../../BENCH_tournament.json"),
];

/// Fields holding counts: a fractional value there is an error.
const COUNT_KEYS: [&str; 14] = [
    "seed",
    "ports",
    "coflows",
    "makespan",
    "objective_bits",
    "window",
    "windows",
    "cancelled",
    "events",
    "replans",
    "peak_live_bytes",
    "peak_rss_kb",
    "alloc_calls",
    "alloc_bytes",
];

/// Objects whose every member is a count.
const COUNT_OBJECTS: [&str; 3] = ["stage_allocs", "stage_alloc_bytes", "counters"];

#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// One number of a golden: where it is, and whether it is a count.
#[derive(Clone, Debug)]
struct Leaf {
    path: Vec<Step>,
    count: bool,
}

fn collect(v: &JsonValue, path: &mut Vec<Step>, out: &mut Vec<Leaf>) {
    match v {
        JsonValue::Num(_) => {
            let key = |back: usize| match path.len().checked_sub(back).map(|i| &path[i]) {
                Some(Step::Key(k)) => k.as_str(),
                _ => "",
            };
            let count = COUNT_KEYS.contains(&key(1)) || COUNT_OBJECTS.contains(&key(2));
            out.push(Leaf {
                path: path.clone(),
                count,
            });
        }
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                collect(item, path, out);
                path.pop();
            }
        }
        JsonValue::Obj(pairs) => {
            for (k, item) in pairs {
                // Provenance is metadata: the readers never look at it.
                if k == "provenance" {
                    continue;
                }
                path.push(Step::Key(k.clone()));
                collect(item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(s) => s.clone(),
        JsonValue::Str(s) => quote(s),
        JsonValue::Arr(items) => {
            format!(
                "[{}]",
                items.iter().map(render).collect::<Vec<_>>().join(", ")
            )
        }
        JsonValue::Obj(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn replace(v: &mut JsonValue, path: &[Step], lexeme: &str) {
    match (path.first(), v) {
        (None, v) => *v = JsonValue::Num(lexeme.to_string()),
        (Some(Step::Key(k)), JsonValue::Obj(pairs)) => {
            let (_, item) = pairs
                .iter_mut()
                .find(|(key, _)| key == k)
                .expect("path key");
            replace(item, &path[1..], lexeme);
        }
        (Some(Step::Index(i)), JsonValue::Arr(items)) => {
            replace(&mut items[*i], &path[1..], lexeme)
        }
        _ => panic!("path does not match the document"),
    }
}

/// A golden parsed, its number leaves, and its rows.
type Parsed = (JsonValue, Vec<Leaf>, Vec<Metric>);

fn goldens() -> &'static [Parsed] {
    static PARSED: OnceLock<Vec<Parsed>> = OnceLock::new();
    PARSED.get_or_init(|| {
        GOLDENS
            .iter()
            .map(|text| {
                let doc = json::parse(text).expect("committed golden parses");
                let mut leaves = Vec::new();
                collect(&doc, &mut Vec::new(), &mut leaves);
                let rows = flatten(text).expect("committed golden flattens").metrics;
                (doc, leaves, rows)
            })
            .collect()
    })
}

#[test]
fn every_golden_flattens_with_counts_and_floats() {
    for (doc, leaves, rows) in goldens() {
        assert!(!rows.is_empty());
        assert!(leaves.iter().any(|l| l.count), "{:?}", doc.get("schema"));
        assert!(rows.iter().all(|m| m.value.is_finite()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A report cut anywhere before its closing brace is an error.
    #[test]
    fn truncated_goldens_are_errors(g in 0usize..5, frac in 0.0f64..1.0) {
        let text = GOLDENS[g];
        let end = text.rfind('}').expect("closing brace");
        let mut cut = (frac * end as f64) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(flatten(&text[..cut]).is_err(), "golden {} cut at {}", g, cut);
    }

    /// A flipped byte gives an error, or a report with as many rows as the
    /// golden, all finite — never a panic, never a dropped or defaulted row.
    #[test]
    fn flipped_bytes_are_errors_or_whole_reports(
        g in 0usize..5,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let mut bytes = GOLDENS[g].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let Ok(text) = String::from_utf8(bytes) else { return };
        if let Ok(flat) = flatten(&text) {
            prop_assert_eq!(flat.metrics.len(), goldens()[g].2.len(), "byte {} ^ {}", at, mask);
            prop_assert!(flat.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    /// One number replaced by `1e999` or `-1` anywhere, or by `1.5` in a
    /// count, is an error naming the field and the lexeme.
    #[test]
    fn hostile_numbers_are_errors(g in 0usize..5, pick in any::<u64>(), which in 0usize..3) {
        let (doc, leaves, _) = &goldens()[g];
        let lexeme = ["1e999", "-1", "1.5"][which];
        let eligible: Vec<&Leaf> =
            leaves.iter().filter(|l| lexeme != "1.5" || l.count).collect();
        let leaf = eligible[(pick % eligible.len() as u64) as usize];
        let mut doc = doc.clone();
        replace(&mut doc, &leaf.path, lexeme);
        let err = match flatten(&render(&doc)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("golden {}: {} at {:?} was accepted", g, lexeme, leaf.path),
        };
        let field = leaf
            .path
            .iter()
            .rev()
            .find_map(|s| match s {
                Step::Key(k) => Some(k.as_str()),
                Step::Index(_) => None,
            })
            .expect("a keyed field");
        prop_assert!(err.contains(lexeme) && err.contains(field), "{}", err);
    }
}
