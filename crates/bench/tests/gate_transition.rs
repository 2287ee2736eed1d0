//! The transition from the five per-report comparators and `diff`'s
//! per-schema lifting to the one regression model.
//!
//! Before the old comparators were deleted, they ran on each committed
//! golden against itself and against doctored copies (one objective's
//! last bit flipped; one wall row just above and just below its bound;
//! one alloc row just across and just short of its floor; a row, cell or
//! policy removed; a fault round dropped; the seed changed; a foreign
//! schema; a truncated file). Their verdicts are the [`OLD`] table: the
//! gate comparator at its gate's defaults, and `diff` at its default
//! tolerance (`n/a`: `diff` did not read tournament reports).
//!
//! [`judge`](coflow_bench::gate::judge) must reproduce every verdict. The
//! only differences allowed are the tightenings in [`TIGHTENED`] (old
//! pass, new fail), each with its reason; no verdict may go from fail to
//! pass.

use coflow_bench::diff::{default_tolerance, diff_metrics};
use coflow_bench::gate::{check, flatten, gate, passed};
use coflow_workloads::json::{self, fmt_f64, quote, JsonValue};

/// `(golden, case, gate verdict, diff verdict)` of the deleted
/// comparators on the doctored goldens.
const OLD: [(&str, &str, &str, &str); 45] = [
    ("Grid", "self", "pass", "pass"),
    ("Grid", "objective_bit", "pass", "fail"),
    ("Grid", "wall_above", "fail", "pass"),
    ("Grid", "wall_below", "pass", "pass"),
    ("Grid", "alloc_above_floor", "pass", "fail"),
    ("Grid", "alloc_below_floor", "pass", "pass"),
    ("Grid", "row_removed", "pass", "pass"),
    ("Grid", "seed_changed", "pass", "pass"),
    ("Grid", "foreign_schema", "fail", "fail"),
    ("Grid", "truncated", "fail", "fail"),
    ("Mem", "self", "pass", "pass"),
    ("Mem", "alloc_above_floor", "fail", "fail"),
    ("Mem", "alloc_below_floor", "pass", "pass"),
    ("Mem", "row_removed", "pass", "pass"),
    ("Mem", "seed_changed", "pass", "pass"),
    ("Mem", "foreign_schema", "fail", "fail"),
    ("Mem", "truncated", "fail", "fail"),
    ("Pins", "self", "pass", "pass"),
    ("Pins", "objective_bit", "fail", "fail"),
    ("Pins", "wall_above", "fail", "pass"),
    ("Pins", "wall_below", "pass", "pass"),
    ("Pins", "row_removed", "fail", "pass"),
    ("Pins", "fault_dropped", "fail", "pass"),
    ("Pins", "seed_changed", "fail", "pass"),
    ("Pins", "foreign_schema", "fail", "fail"),
    ("Pins", "truncated", "fail", "fail"),
    ("Scale", "self", "pass", "pass"),
    ("Scale", "objective_bit", "fail", "fail"),
    ("Scale", "wall_above", "fail", "pass"),
    ("Scale", "wall_below", "pass", "pass"),
    ("Scale", "alloc_above_floor", "fail", "pass"),
    ("Scale", "alloc_below_floor", "pass", "pass"),
    ("Scale", "row_removed", "pass", "pass"),
    ("Scale", "seed_changed", "pass", "pass"),
    ("Scale", "foreign_schema", "fail", "fail"),
    ("Scale", "truncated", "fail", "fail"),
    ("Tournament", "self", "pass", "n/a"),
    ("Tournament", "objective_bit", "fail", "n/a"),
    ("Tournament", "wall_above", "fail", "n/a"),
    ("Tournament", "wall_below", "pass", "n/a"),
    ("Tournament", "row_removed", "fail", "n/a"),
    ("Tournament", "fault_dropped", "fail", "n/a"),
    ("Tournament", "seed_changed", "pass", "n/a"),
    ("Tournament", "foreign_schema", "fail", "n/a"),
    ("Tournament", "truncated", "fail", "n/a"),
];

/// Verdicts the one model tightens — old pass, new fail — as `(golden,
/// case, gate|diff, reason)`. Scale `wall_above` is not one for `diff`:
/// on the committed curve the gate's +20% stays inside diff's tolerance,
/// and `scale::tests::diff_judges_each_cells_total` holds diff's per-cell
/// wall row.
const TIGHTENED: [(&str, &str, &str, &str); 16] = [
    (
        "Grid",
        "objective_bit",
        "gate",
        "perf judges the 12 grid objectives bit for bit",
    ),
    (
        "Grid",
        "row_removed",
        "gate",
        "perf judges the cell count and every cell's objective",
    ),
    (
        "Grid",
        "row_removed",
        "diff",
        "the grid's cell count is an exact row",
    ),
    ("Grid", "seed_changed", "gate", "the seed is an exact row"),
    ("Grid", "seed_changed", "diff", "the seed is an exact row"),
    (
        "Mem",
        "row_removed",
        "gate",
        "the mem report's cell count is an exact row",
    ),
    (
        "Mem",
        "row_removed",
        "diff",
        "the mem report's cell count is an exact row",
    ),
    ("Mem", "seed_changed", "gate", "the seed is an exact row"),
    ("Mem", "seed_changed", "diff", "the seed is an exact row"),
    (
        "Pins",
        "wall_above",
        "diff",
        "diff judges the engine section as a wall row, not info",
    ),
    (
        "Pins",
        "wall_below",
        "gate",
        "the engine row moved from base*(1+t)+50 ms to the two-sided rule: its fail point \
         drops from 2*base + 50 ms to max(2*base, base + 50 ms)",
    ),
    (
        "Pins",
        "wall_below",
        "diff",
        "diff judges the engine section as a wall row, not info",
    ),
    ("Pins", "seed_changed", "diff", "the seed is an exact row"),
    ("Scale", "seed_changed", "gate", "the seed is an exact row"),
    ("Scale", "seed_changed", "diff", "the seed is an exact row"),
    (
        "Tournament",
        "seed_changed",
        "gate",
        "the seed is an exact row",
    ),
];

/// The gate each golden is judged by.
fn gate_name(golden: Golden) -> &'static str {
    match golden {
        Golden::Grid => "perf",
        Golden::Mem => "mem",
        Golden::Pins => "pins",
        Golden::Scale => "scale",
        Golden::Tournament => "tournament",
    }
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "pass"
    } else {
        "fail"
    }
}

fn new_gate(golden: Golden, base: &str, cur: &str) -> &'static str {
    let gate = gate(gate_name(golden)).expect("gate");
    verdict(check(gate, base, cur).is_ok_and(|rows| passed(&rows)))
}

fn new_diff(base: &str, cur: &str) -> &'static str {
    verdict(match (flatten(base), flatten(cur)) {
        (Ok(a), Ok(b)) => diff_metrics(&a.metrics, &b.metrics, "a", "b", default_tolerance())
            .regressions()
            .is_empty(),
        _ => false,
    })
}

#[test]
fn judge_reproduces_every_old_verdict_or_tightens_it() {
    let mut seen = 0;
    let mut tightened = Vec::new();
    for (golden, file) in GOLDENS {
        let text = golden_text(file);
        for case in CASES {
            let Some(cur) = doctor(golden, case, &text) else {
                continue;
            };
            let name = format!("{:?}", golden);
            let &(_, _, old_gate, old_diff) = OLD
                .iter()
                .find(|o| o.0 == name && o.1 == case)
                .unwrap_or_else(|| panic!("no recorded verdict for {} {}", name, case));
            seen += 1;
            let verdicts = [
                ("gate", old_gate, new_gate(golden, &text, &cur)),
                ("diff", old_diff, new_diff(&text, &cur)),
            ];
            for (which, old, new) in verdicts {
                if old == "n/a" {
                    continue;
                }
                let listed = TIGHTENED
                    .iter()
                    .any(|t| t.0 == name && t.1 == case && t.2 == which);
                let expected = if listed { ("pass", "fail") } else { (old, old) };
                assert_eq!(
                    (old, new),
                    expected,
                    "{} {} {}: old {}, new {}",
                    name,
                    case,
                    which,
                    old,
                    new
                );
                if listed {
                    tightened.push((name.clone(), case, which));
                }
            }
        }
    }
    assert_eq!(seen, OLD.len(), "every recorded case is replayed");
    assert_eq!(
        tightened.len(),
        TIGHTENED.len(),
        "every listed tightening happens"
    );
}

/// The five committed goldens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Golden {
    Grid,
    Mem,
    Pins,
    Scale,
    Tournament,
}

const GOLDENS: [(Golden, &str); 5] = [
    (Golden::Grid, "BENCH_baseline.json"),
    (Golden::Mem, "BENCH_mem.json"),
    (Golden::Pins, "BENCH_pins.json"),
    (Golden::Scale, "BENCH_scale.json"),
    (Golden::Tournament, "BENCH_tournament.json"),
];

/// The doctored variants, in table order.
const CASES: [&str; 11] = [
    "self",
    "objective_bit",
    "wall_above",
    "wall_below",
    "alloc_above_floor",
    "alloc_below_floor",
    "row_removed",
    "fault_dropped",
    "seed_changed",
    "foreign_schema",
    "truncated",
];

fn golden_text(file: &str) -> String {
    let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {}", path, e))
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

fn at<'a>(v: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    let mut cur = v;
    for step in path {
        cur = match cur {
            JsonValue::Obj(pairs) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .unwrap_or_else(|| panic!("{}", step))
                    .1
            }
            JsonValue::Arr(items) => &mut items[step.parse::<usize>().expect("index")],
            _ => panic!("cannot step into {}", step),
        };
    }
    cur
}

fn items(v: &mut JsonValue) -> &mut Vec<JsonValue> {
    match v {
        JsonValue::Arr(items) => items,
        _ => panic!("not an array"),
    }
}

fn num(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(s) => s.parse().expect("number"),
        _ => panic!("not a number"),
    }
}

fn int(v: &JsonValue) -> u64 {
    match v {
        JsonValue::Num(s) => s.parse().expect("integer"),
        _ => panic!("not an integer"),
    }
}

/// Growth that just clears (`factor` > 1) or just misses (`factor` < 1)
/// a `tolerance`-over-`floor` bound on a row whose baseline is `base`.
fn growth(base: f64, tolerance: f64, floor: f64, factor: f64) -> f64 {
    (base * tolerance).max(floor) * factor
}

/// Sum of `cells[*].<path>` over a cells array.
fn cell_sum(doc: &mut JsonValue, path: &[&str]) -> f64 {
    let cells = items(at(doc, &["cells"]));
    cells.iter_mut().map(|c| num(at(c, path))).sum()
}

fn add_f64(v: &mut JsonValue, delta: f64) {
    let x = num(v) + delta;
    *v = JsonValue::Num(fmt_f64(x));
}

fn add_int(v: &mut JsonValue, delta: u64) {
    let x = int(v) + delta;
    *v = JsonValue::Num(x.to_string());
}

fn flip_last_bit(v: &mut JsonValue) {
    let x = num(v);
    *v = JsonValue::Num(fmt_f64(f64::from_bits(x.to_bits() ^ 1)));
}

/// The doctored copy of `golden` for `case`, or `None` where the case
/// does not apply to that report (no such row).
fn doctor(golden: Golden, case: &str, text: &str) -> Option<String> {
    use Golden::*;
    let mut doc = json::parse(text).expect("committed golden parses");
    let d = &mut doc;
    match (case, golden) {
        ("self", _) => {}
        ("objective_bit", Grid) | ("objective_bit", Scale) => {
            flip_last_bit(at(d, &["cells", "1", "objective"]))
        }
        ("objective_bit", Pins) => {
            let bits = int(at(d, &["pins", "0", "objective_bits"])) ^ 1;
            *at(d, &["pins", "0", "objective_bits"]) = JsonValue::Num(bits.to_string());
            *at(d, &["pins", "0", "objective"]) = JsonValue::Num(fmt_f64(f64::from_bits(bits)));
        }
        ("objective_bit", Tournament) => flip_last_bit(at(d, &["rows", "1", "objective"])),
        ("wall_above", Grid) | ("wall_below", Grid) => {
            let factor = if case == "wall_above" { 1.01 } else { 0.99 };
            let sum = cell_sum(d, &["stages_ms", "decompose"]);
            add_f64(
                at(d, &["cells", "0", "stages_ms", "decompose"]),
                growth(sum, 0.2, 10.0, factor),
            );
        }
        ("wall_above", Pins) | ("wall_below", Pins) => {
            // The pin gate's budget was `base·(1 + 1.0) + 50 ms`.
            let base = num(at(d, &["engine_ms"]));
            let budget = base * 2.0 + 50.0;
            let x = if case == "wall_above" {
                budget + 1.0
            } else {
                budget - 1.0
            };
            *at(d, &["engine_ms"]) = JsonValue::Num(fmt_f64(x));
        }
        ("wall_above", Scale) | ("wall_below", Scale) => {
            let factor = if case == "wall_above" { 1.01 } else { 0.99 };
            let v = at(d, &["cells", "1", "stages_ms", "total"]);
            let base = num(v);
            add_f64(v, growth(base, 0.2, 10.0, factor));
        }
        ("wall_above", Tournament) | ("wall_below", Tournament) => {
            let factor = if case == "wall_above" { 1.01 } else { 0.99 };
            let v = at(d, &["rows", "0", "wall_ms"]);
            let base = num(v);
            add_f64(v, growth(base, 0.35, 10.0, factor));
        }
        ("alloc_above_floor", Grid | Mem) | ("alloc_below_floor", Grid | Mem) => {
            let factor = if case == "alloc_above_floor" {
                1.01
            } else {
                0.99
            };
            let sum = cell_sum(d, &["mem", "stage_allocs", "order"]);
            let g = growth(sum, 0.25, 10_000.0, factor).round() as u64;
            add_int(at(d, &["cells", "0", "mem", "stage_allocs", "order"]), g);
        }
        ("alloc_above_floor", Scale) | ("alloc_below_floor", Scale) => {
            let factor = if case == "alloc_above_floor" {
                1.01
            } else {
                0.99
            };
            let v = at(d, &["cells", "1", "mem", "alloc_calls"]);
            let base = int(v) as f64;
            add_int(v, growth(base, 0.25, 10_000.0, factor).round() as u64);
        }
        ("row_removed", Grid | Mem | Scale) => {
            items(at(d, &["cells"])).pop();
        }
        ("row_removed", Pins) => {
            items(at(d, &["pins"])).pop();
        }
        ("row_removed", Tournament) => {
            items(at(d, &["rows"])).pop();
            items(at(d, &["scale", "rows"])).pop();
        }
        ("fault_dropped", Pins) => {
            items(at(d, &["pins"])).retain(|p| match p.get("label") {
                Some(JsonValue::Str(l)) => !l.starts_with("faults"),
                _ => true,
            });
        }
        ("fault_dropped", Tournament) => *at(d, &["rows", "1", "fault"]) = JsonValue::Null,
        ("seed_changed", _) => add_int(at(d, &["seed"]), 1),
        ("foreign_schema", _) => *at(d, &["schema"]) = JsonValue::Str("other/9".to_string()),
        ("truncated", _) => return Some(text[..text.len() / 2].to_string()),
        _ => return None,
    }
    Some(render(&doc))
}
