//! The one regression model: every committed report flattens to metric
//! rows, one rule table bounds them, and [`judge`] compares two sets.
//!
//! A [`Metric`] is a key, a [`Kind`] and a value. `Exact` rows
//! (objectives, makespans, ratios, counts, seeds) must keep their f64 bit
//! pattern, in either direction. `Wall` (ms) and `Alloc` (calls, bytes)
//! rows regress only when the current value exceeds the baseline by more
//! than the tolerance **and** the growth clears the floor of the matching
//! [`RULES`] row. `Info` rows are reported, never judged.
//!
//! Each committed schema has one flattening function ([`SCHEMAS`]) and a
//! ledger record flattens through [`flatten_record`]. The readers are
//! strict: a missing field, a non-finite or negative number, or a
//! fractional count is a [`GateError`] naming the key and the lexeme,
//! never a defaulted row.
//!
//! [`check`] is what `experiments -- gate NAME` runs after the workload;
//! `diff` and the dashboard's regression markers call [`judge`] under
//! their own scopes. Adding a gated report costs one flattening function
//! with its [`SCHEMAS`] entry, one [`GATES`] entry, and a [`RULES`] row
//! for each bound it needs.

use crate::pins::{self, Pin, PinReport};
use crate::tournament::{self, ScaleRow, TournamentFault, TournamentReport, TournamentRow};
use crate::{profile, scale};
use coflow_workloads::json::{self, JsonValue};
use obs::ledger::LedgerRecord;
use std::fmt::{self, Write as _};
use Kind::{Alloc, Exact, Info, Wall};

/// How a metric row is compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Bit-exact.
    Exact,
    /// Wall-clock ms, bounded by a [`Rule`].
    Wall,
    /// Allocation calls or bytes, bounded by a [`Rule`].
    Alloc,
    /// Never judged.
    Info,
}

impl Kind {
    /// Row order of every judgement: the `coflow-diff/1` section order.
    pub const ORDER: [Kind; 4] = [Wall, Exact, Alloc, Info];

    /// Name in verdict tables and ledger verdicts.
    pub fn name(self) -> &'static str {
        match self {
            Exact => "exact",
            Wall => "wall",
            Alloc => "alloc",
            Info => "info",
        }
    }

    /// Section name of the `coflow-diff/1` format.
    pub fn section(self) -> &'static str {
        match self {
            Exact => "objective",
            Wall => "stage",
            Alloc => "mem",
            Info => "info",
        }
    }
}

/// One flattened row of a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Unique within one report, e.g. `H_LP/d`, `makespan:greedy`.
    pub key: String,
    /// Comparison rule.
    pub kind: Kind,
    /// The value; finite by construction.
    pub value: f64,
}

/// One bound: `kind` rows whose key contains `key` (the empty pattern
/// matches every key), in each `|`-separated scope.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Gate names, `diff` or `dash`.
    pub scope: &'static str,
    /// `Wall` or `Alloc`.
    pub kind: Kind,
    /// Key substring; the first matching row wins.
    pub key: &'static str,
    /// Fractional growth allowed (0.2 = +20%).
    pub tolerance: f64,
    /// Absolute growth a regression must also clear, in the row's unit.
    pub floor: f64,
    /// Why this bound.
    pub reason: &'static str,
}

const fn row(
    scope: &'static str,
    kind: Kind,
    key: &'static str,
    (tolerance, floor): (f64, f64),
    reason: &'static str,
) -> Rule {
    Rule {
        scope,
        kind,
        key,
        tolerance,
        floor,
        reason,
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Every tolerance and floor of the gates, `diff` and the dashboard. A
/// `Wall` or `Alloc` row that no entry covers is judged bit-exactly.
pub const RULES: [Rule; 11] = [
    row(
        "perf|scale",
        Wall,
        "",
        (0.20, 10.0),
        "the perf budget; below 10 ms a shared host's scheduling noise dominates",
    ),
    row(
        "mem|scale",
        Alloc,
        "bytes",
        (0.25, MIB),
        "bytes move with buffer growth policy; under 1 MiB is no leak signal",
    ),
    row(
        "mem|scale",
        Alloc,
        "",
        (0.25, 10_000.0),
        "calls are deterministic, but a few extra boxes (under 10k) are no leak signal",
    ),
    row(
        "pins",
        Wall,
        "",
        (1.0, 50.0),
        "one shot of a few ms of the engine section; the pinned objectives are the guard",
    ),
    row(
        "tournament",
        Wall,
        "",
        (0.35, 10.0),
        "each policy runs once for a few ms, so single shots spread wider",
    ),
    row(
        "diff",
        Wall,
        "",
        (0.5, 10.0),
        "back-to-back runs differ by host noise; `--tolerance` replaces the 0.5",
    ),
    row(
        "diff",
        Alloc,
        "bytes",
        (0.5, MIB),
        "the mem gate's floor at the diff tolerance",
    ),
    row(
        "diff",
        Alloc,
        "",
        (0.5, 10_000.0),
        "the mem gate's floor at the diff tolerance",
    ),
    row(
        "dash",
        Wall,
        "ratio/",
        (0.5, 0.0),
        "ratio sparklines mark a jump alone; the objective table marks bit changes",
    ),
    row(
        "dash",
        Wall,
        "",
        (0.5, 10.0),
        "a marked stage jump is one `diff` would flag",
    ),
    row(
        "dash",
        Alloc,
        "",
        (0.5, 0.0),
        "memory trajectories drop zero samples, so a ratio alone marks a jump",
    ),
];

/// Where a judgement runs: a [`RULES`] scope, and an optional tolerance
/// replacing the table's for `Wall` and `Alloc` rows (`diff --tolerance`).
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    /// Scope name.
    pub name: &'static str,
    /// Replacement tolerance.
    pub tolerance: Option<f64>,
}

impl Scope {
    /// The scope with the table's own tolerances.
    pub const fn of(name: &'static str) -> Self {
        Scope {
            name,
            tolerance: None,
        }
    }
}

/// The table row bounding a `kind` row named `key` within `scope`.
pub fn rule(scope: &str, kind: Kind, key: &str) -> Option<&'static Rule> {
    RULES
        .iter()
        .find(|r| r.scope.split('|').any(|s| s == scope) && r.kind == kind && key.contains(r.key))
}

/// One judged row.
#[derive(Clone, Debug, PartialEq)]
pub struct Judged {
    /// Metric key.
    pub key: String,
    /// Comparison rule.
    pub kind: Kind,
    /// Baseline value (`None`: the key is new).
    pub baseline: Option<f64>,
    /// Current value (`None`: the key vanished).
    pub current: Option<f64>,
    /// True when both values exist and the current one breaks the rule.
    pub regressed: bool,
}

impl Judged {
    /// True when only one side has the key.
    pub fn one_sided(&self) -> bool {
        self.baseline.is_none() || self.current.is_none()
    }
}

fn breaks(scope: Scope, kind: Kind, key: &str, base: f64, cur: f64) -> bool {
    match (kind, rule(scope.name, kind, key)) {
        (Info, _) => false,
        (Wall | Alloc, Some(r)) => {
            cur > base * (1.0 + scope.tolerance.unwrap_or(r.tolerance)) && cur - base > r.floor
        }
        _ => base.to_bits() != cur.to_bits(),
    }
}

/// Judges `current` against `baseline` under `scope`. Rows come out in
/// [`Kind::ORDER`]; within a kind, in baseline order, then the keys only
/// the current side has.
pub fn judge(baseline: &[Metric], current: &[Metric], scope: Scope) -> Vec<Judged> {
    let mut rows = Vec::new();
    for kind in Kind::ORDER {
        let find = |side: &[Metric], key: &str| {
            side.iter()
                .find(|m| m.kind == kind && m.key == key)
                .map(|m| m.value)
        };
        for b in baseline.iter().filter(|m| m.kind == kind) {
            let cur = find(current, &b.key);
            let regressed = cur.is_some_and(|c| breaks(scope, kind, &b.key, b.value, c));
            let (key, baseline) = (b.key.clone(), Some(b.value));
            rows.push(Judged {
                key,
                kind,
                baseline,
                current: cur,
                regressed,
            });
        }
        for c in current
            .iter()
            .filter(|m| m.kind == kind && find(baseline, &m.key).is_none())
        {
            let (key, current) = (c.key.clone(), Some(c.value));
            rows.push(Judged {
                key,
                kind,
                baseline: None,
                current,
                regressed: false,
            });
        }
    }
    rows
}

/// The gate verdict: no row regressed and every row has both sides.
pub fn passed(rows: &[Judged]) -> bool {
    rows.iter().all(|r| !r.regressed && !r.one_sided())
}

/// Why a report could not be flattened or judged.
#[derive(Clone, Debug, PartialEq)]
pub enum GateError {
    /// Not a complete JSON document.
    Syntax(String),
    /// A schema tag other than the expected one(s).
    Schema {
        /// The tag found (`""` when absent).
        found: String,
        /// What the reader accepts.
        expected: String,
    },
    /// A required field is absent or of the wrong JSON type.
    Missing(String),
    /// A number the field cannot hold: non-finite anywhere, negative in a
    /// measurement, fractional or negative in a count.
    Number {
        /// Field path.
        key: String,
        /// The number as written.
        lexeme: String,
        /// What the field holds.
        expected: &'static str,
    },
    /// Two rows of one report share a key (a pin label, a policy, a
    /// flattened metric key).
    Duplicate(String),
    /// Two fields that must agree do not.
    Mismatch(String),
    /// A gated cell the committed curve does not have.
    CellMissing(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Syntax(e) => write!(f, "not a JSON document: {}", e),
            GateError::Schema { found, expected } => {
                write!(f, "schema {:?}, expected {}", found, expected)
            }
            GateError::Missing(key) => write!(f, "field '{}' missing or of the wrong type", key),
            GateError::Number {
                key,
                lexeme,
                expected,
            } => {
                write!(f, "field '{}': {} is not {}", key, lexeme, expected)
            }
            GateError::Duplicate(key) => write!(f, "two rows share the key '{}'", key),
            GateError::Mismatch(what) => write!(f, "{}", what),
            GateError::CellMissing(cell) => write!(f, "cell {} is not on the curve", cell),
        }
    }
}

impl std::error::Error for GateError {}

/// A JSON node and the path it was reached by, for error messages.
struct Node<'a> {
    value: &'a JsonValue,
    path: String,
}

impl<'a> Node<'a> {
    fn root(value: &'a JsonValue) -> Self {
        Node {
            value,
            path: String::new(),
        }
    }

    /// The member `key`, whatever its type.
    fn get(&self, key: &str) -> Result<Node<'a>, GateError> {
        let path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{}", self.path, key)
        };
        match self.value.get(key) {
            Some(value) => Ok(Node { value, path }),
            None => Err(GateError::Missing(path)),
        }
    }

    /// The lexeme of the number `key`, and the error naming it should it
    /// not be `expected`.
    fn number(&self, key: &str, expected: &'static str) -> Result<(&'a str, GateError), GateError> {
        let node = self.get(key)?;
        let JsonValue::Num(lexeme) = node.value else {
            return Err(GateError::Missing(node.path));
        };
        Ok((
            lexeme,
            GateError::Number {
                key: node.path,
                lexeme: lexeme.clone(),
                expected,
            },
        ))
    }

    /// A finite, non-negative number — every float these reports hold.
    fn measure(&self, key: &str) -> Result<f64, GateError> {
        let (lexeme, err) = self.number(key, "a finite non-negative number")?;
        match lexeme.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(err),
        }
    }

    /// A non-negative integer written as one.
    fn int(&self, key: &str) -> Result<u64, GateError> {
        let (lexeme, err) = self.number(key, "a non-negative integer")?;
        lexeme.parse().map_err(|_| err)
    }

    /// [`Node::int`] as a row value.
    fn count(&self, key: &str) -> Result<f64, GateError> {
        Ok(self.int(key)? as f64)
    }

    fn text(&self, key: &str) -> Result<&'a str, GateError> {
        match self.get(key)? {
            Node {
                value: JsonValue::Str(s),
                ..
            } => Ok(s),
            node => Err(GateError::Missing(node.path)),
        }
    }

    fn is_null(&self) -> bool {
        matches!(self.value, JsonValue::Null)
    }

    /// The items of the non-empty array `key`.
    fn items(&self, key: &str) -> Result<Vec<Node<'a>>, GateError> {
        let node = self.get(key)?;
        match node.value {
            JsonValue::Arr(items) if !items.is_empty() => Ok(items
                .iter()
                .enumerate()
                .map(|(i, value)| Node {
                    value,
                    path: format!("{}[{}]", node.path, i),
                })
                .collect()),
            _ => Err(GateError::Missing(node.path)),
        }
    }

    /// Checks that every member of the object `key` is a count.
    fn counts(&self, key: &str) -> Result<(), GateError> {
        let node = self.get(key)?;
        let JsonValue::Obj(pairs) = node.value else {
            return Err(GateError::Missing(node.path));
        };
        pairs
            .iter()
            .try_for_each(|(name, _)| node.int(name).map(drop))
    }
}

/// Rows under construction, refusing duplicate keys.
#[derive(Default)]
struct Rows(Vec<Metric>);

impl Rows {
    fn push(&mut self, kind: Kind, key: impl Into<String>, value: f64) -> Result<(), GateError> {
        let key = key.into();
        if self.0.iter().any(|m| m.key == key) {
            return Err(GateError::Duplicate(key));
        }
        self.0.push(Metric { key, kind, value });
        Ok(())
    }

    /// Folds `value` into the row `key` (a sum or a max over cells).
    fn fold(&mut self, kind: Kind, key: &str, value: f64, fold: fn(f64, f64) -> f64) {
        match self.0.iter_mut().find(|m| m.key == key) {
            Some(m) => m.value = fold(m.value, value),
            None => self.0.push(Metric {
                key: key.to_string(),
                kind,
                value,
            }),
        }
    }
}

fn sum(a: f64, b: f64) -> f64 {
    a + b
}

/// A flattening function: the parsed report to its rows.
pub type Flattener = fn(&JsonValue) -> Result<Vec<Metric>, GateError>;

/// Every committed report schema and its flattener.
pub const SCHEMAS: [(&str, Flattener); 5] = [
    (profile::SCHEMA, flatten_grid),
    (profile::MEM_SCHEMA, flatten_mem),
    (pins::SCHEMA, flatten_pins),
    (scale::SCHEMA, flatten_scale),
    (tournament::SCHEMA, flatten_tournament),
];

/// A flattened report: its schema tag and rows.
#[derive(Clone, Debug)]
pub struct Flat {
    /// The report's schema tag.
    pub schema: &'static str,
    /// Its rows.
    pub metrics: Vec<Metric>,
}

fn schema_of(doc: &JsonValue) -> &str {
    match doc.get("schema") {
        Some(JsonValue::Str(s)) => s,
        _ => "",
    }
}

/// Flattens a parsed report of any schema in [`SCHEMAS`].
fn flatten_doc(doc: &JsonValue) -> Result<Flat, GateError> {
    let found = schema_of(doc);
    match SCHEMAS.iter().find(|(schema, _)| *schema == found) {
        Some(&(schema, flatten)) => Ok(Flat {
            schema,
            metrics: flatten(doc)?,
        }),
        None => {
            let expected = SCHEMAS.map(|(s, _)| s).join(", ");
            Err(GateError::Schema {
                found: found.to_string(),
                expected,
            })
        }
    }
}

fn parse(text: &str) -> Result<JsonValue, GateError> {
    json::parse(text).map_err(|e| GateError::Syntax(e.to_string()))
}

/// Parses and flattens a report of any schema in [`SCHEMAS`].
pub fn flatten(text: &str) -> Result<Flat, GateError> {
    flatten_doc(&parse(text)?)
}

/// Parses a report that must carry `schema` and reads it with that
/// schema's typed reader ([`read_pins`], [`read_tournament`]).
pub fn read_report<T>(
    text: &str,
    schema: &str,
    read: fn(&JsonValue) -> Result<T, GateError>,
) -> Result<T, GateError> {
    let doc = parse(text)?;
    expect_schema(&doc, schema)?;
    read(&doc)
}

fn expect_schema(doc: &JsonValue, schema: &str) -> Result<(), GateError> {
    match schema_of(doc) {
        found if found == schema => Ok(()),
        found => Err(GateError::Schema {
            found: found.into(),
            expected: schema.into(),
        }),
    }
}

/// `seed`, `ports` and `coflows` as `Exact` rows.
fn instance_rows(rows: &mut Rows, doc: &Node<'_>) -> Result<(), GateError> {
    ["seed", "ports", "coflows"]
        .iter()
        .try_for_each(|k| rows.push(Exact, *k, doc.count(k)?))
}

/// Folds one grid cell's `mem` object into the allocator rows: per-stage
/// calls and bytes and whole-cell totals summed, the largest peak live
/// heap, the cell's own peak live heap (keyed `RULE/case`, so a cell whose
/// peak is not the largest still shows its growth), and the largest peak
/// RSS as `Info`.
fn mem_rows(rows: &mut Rows, cell: &Node<'_>) -> Result<(), GateError> {
    let label = format!("{}/{}", cell.text("order")?, cell.text("case")?);
    let mem = cell.get("mem")?;
    for (field, prefix) in [
        ("stage_allocs", "allocs"),
        ("stage_alloc_bytes", "alloc_bytes"),
    ] {
        let per_stage = mem.get(field)?;
        for stage in profile::MEM_STAGES {
            rows.fold(
                Alloc,
                &format!("{}:{}", prefix, stage),
                per_stage.count(stage)?,
                sum,
            );
        }
    }
    rows.fold(Alloc, "alloc_calls(total)", mem.count("alloc_calls")?, sum);
    rows.fold(Alloc, "alloc_bytes(total)", mem.count("alloc_bytes")?, sum);
    let peak = mem.count("peak_live_bytes")?;
    rows.fold(Alloc, "peak_live_bytes", peak, f64::max);
    rows.push(Alloc, format!("peak_live_bytes:{}", label), peak)?;
    rows.fold(Info, "peak_rss_kb", mem.count("peak_rss_kb")?, f64::max);
    Ok(())
}

/// `coflow-bench-grid/3` (`BENCH_baseline.json`): the instance, the cell
/// count, per-cell objective and makespan (`Exact`, keyed `RULE/case` as
/// in the ledger), per-stage wall-clock summed over the cells (`Wall`),
/// the allocator rows of [`flatten_mem`]. Counters are checked, not gated.
pub fn flatten_grid(doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    let doc = Node::root(doc);
    let (mut rows, mut sums) = (Rows::default(), Rows::default());
    instance_rows(&mut rows, &doc)?;
    let cells = doc.items("cells")?;
    rows.push(Exact, "cells", cells.len() as f64)?;
    for cell in &cells {
        let label = format!("{}/{}", cell.text("order")?, cell.text("case")?);
        rows.push(Exact, label.as_str(), cell.measure("objective")?)?;
        rows.push(
            Exact,
            format!("makespan:{}", label),
            cell.count("makespan")?,
        )?;
        let stage_ms = cell.get("stages_ms")?;
        for stage in profile::STAGES {
            sums.fold(Wall, stage, stage_ms.measure(stage)?, sum);
        }
        mem_rows(&mut sums, cell)?;
        cell.counts("counters")?;
    }
    rows.0.extend(sums.0);
    Ok(rows.0)
}

/// `coflow-bench-mem/1` (`BENCH_mem.json`): the instance, the cell count
/// and the allocator rows.
pub fn flatten_mem(doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    let doc = Node::root(doc);
    let (mut rows, mut sums) = (Rows::default(), Rows::default());
    instance_rows(&mut rows, &doc)?;
    let cells = doc.items("cells")?;
    rows.push(Exact, "cells", cells.len() as f64)?;
    for cell in &cells {
        mem_rows(&mut sums, cell)?;
    }
    rows.0.extend(sums.0);
    Ok(rows.0)
}

/// Reads a `coflow-pins/1` report (`BENCH_pins.json`) strictly: every
/// pin's objective comes from its bit pattern, which must agree with the
/// decimal.
pub fn read_pins(doc: &JsonValue) -> Result<PinReport, GateError> {
    let doc = Node::root(doc);
    let (seed, engine_ms) = (doc.int("seed")?, doc.measure("engine_ms")?);
    let mut pins = Vec::new();
    for pin in doc.items("pins")? {
        let objective = f64::from_bits(pin.int("objective_bits")?);
        if pin.measure("objective")?.to_bits() != objective.to_bits() {
            let what = format!("{}: objective disagrees with objective_bits", pin.path);
            return Err(GateError::Mismatch(what));
        }
        let (label, makespan) = (pin.text("label")?.to_string(), pin.int("makespan")?);
        if pins.iter().any(|p: &Pin| p.label == label) {
            return Err(GateError::Duplicate(label));
        }
        pins.push(Pin {
            label,
            objective,
            makespan,
        });
    }
    Ok(PinReport {
        seed,
        engine_ms,
        pins,
    })
}

/// `coflow-pins/1` rows: the seed, every pin's objective and makespan
/// (`Exact`), and the engine section's wall-clock (`Wall`, key `engine`
/// as in the pin run's ledger record).
pub fn flatten_pins(doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    let report = read_pins(doc)?;
    let mut rows = Rows::default();
    rows.push(Exact, "seed", report.seed as f64)?;
    rows.push(Wall, "engine", report.engine_ms)?;
    for pin in &report.pins {
        rows.push(Exact, pin.label.as_str(), pin.objective)?;
        rows.push(
            Exact,
            format!("makespan:{}", pin.label),
            pin.makespan as f64,
        )?;
    }
    Ok(rows.0)
}

fn scale_label(cell: &Node<'_>) -> Result<String, GateError> {
    Ok(scale::cell_label(
        cell.int("ports")? as usize,
        cell.int("coflows")? as usize,
    ))
}

/// `coflow-bench-scale/2` (`BENCH_scale.json`): the seed and window; per
/// cell (keyed `m=…/n=…`) the objective and makespan (`Exact`), total
/// wall-clock (`Wall`), allocation calls and bytes (`Alloc`); across the
/// cells the `gen`/`sched`/`verify` sums (`Wall`), total calls and the
/// largest peak live heap (`Alloc`) and peak RSS (`Info`). The policy,
/// window and window count are checked, not gated.
pub fn flatten_scale(doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    let doc = Node::root(doc);
    let (mut rows, mut sums) = (Rows::default(), Rows::default());
    rows.push(Exact, "seed", doc.count("seed")?)?;
    rows.push(Exact, "window", doc.count("window")?)?;
    for cell in doc.items("cells")? {
        let label = scale_label(&cell)?;
        cell.text("policy")?;
        for key in ["window", "windows"] {
            cell.int(key)?;
        }
        rows.push(Exact, label.as_str(), cell.measure("objective")?)?;
        rows.push(
            Exact,
            format!("makespan:{}", label),
            cell.count("makespan")?,
        )?;
        let stage_ms = cell.get("stages_ms")?;
        for stage in ["gen", "sched", "verify"] {
            sums.fold(Wall, stage, stage_ms.measure(stage)?, sum);
        }
        rows.push(Wall, format!("total:{}", label), stage_ms.measure("total")?)?;
        let mem = cell.get("mem")?;
        rows.push(
            Alloc,
            format!("alloc_calls:{}", label),
            mem.count("alloc_calls")?,
        )?;
        rows.push(
            Alloc,
            format!("alloc_bytes:{}", label),
            mem.count("alloc_bytes")?,
        )?;
        sums.fold(Alloc, "alloc_calls(total)", mem.count("alloc_calls")?, sum);
        sums.fold(
            Alloc,
            "peak_live_bytes",
            mem.count("peak_live_bytes")?,
            f64::max,
        );
        sums.fold(Info, "peak_rss_kb", mem.count("peak_rss_kb")?, f64::max);
    }
    rows.0.extend(sums.0);
    Ok(rows.0)
}

/// Reads a `coflow-tournament/2` report (`BENCH_tournament.json`)
/// strictly: a row's `bound` and `fault` are `null` or complete, and no
/// policy has two rows in a round.
pub fn read_tournament(doc: &JsonValue) -> Result<TournamentReport, GateError> {
    let doc = Node::root(doc);
    let policy = |row: &Node<'_>, seen: &mut Vec<String>| -> Result<String, GateError> {
        let name = row.text("policy")?.to_string();
        if seen.contains(&name) {
            return Err(GateError::Duplicate(name));
        }
        seen.push(name.clone());
        Ok(name)
    };
    let mut rows = Vec::new();
    let mut seen = Vec::new();
    for row in doc.items("rows")? {
        let bound = row.get("bound")?;
        let fault = row.get("fault")?;
        rows.push(TournamentRow {
            policy: policy(&row, &mut seen)?,
            bound: if bound.is_null() {
                None
            } else {
                Some(row.measure("bound")?)
            },
            objective: row.measure("objective")?,
            makespan: row.int("makespan")?,
            ratio: row.measure("ratio")?,
            wall_ms: row.measure("wall_ms")?,
            fault: if fault.is_null() {
                None
            } else {
                Some(TournamentFault {
                    objective: fault.measure("objective")?,
                    inflation: fault.measure("inflation")?,
                    cancelled: fault.int("cancelled")? as usize,
                    events: fault.int("events")? as usize,
                    replans: fault.int("replans")? as usize,
                })
            },
        });
    }
    let round = doc.get("scale")?;
    let mut scale = Vec::new();
    seen.clear();
    for row in round.items("rows")? {
        scale.push(ScaleRow {
            policy: policy(&row, &mut seen)?,
            objective: row.measure("objective")?,
            makespan: row.int("makespan")?,
            wall_ms: row.measure("wall_ms")?,
        });
    }
    Ok(TournamentReport {
        seed: doc.int("seed")?,
        ports: doc.int("ports")? as usize,
        coflows: doc.int("coflows")? as usize,
        lp_bound: doc.measure("lp_bound")?,
        fault_rate: doc.measure("fault_rate")?,
        rows,
        scale_cell: [
            round.int("ports")?,
            round.int("coflows")?,
            round.int("window")?,
        ]
        .map(|v| v as usize),
        scale,
    })
}

/// `coflow-tournament/2` rows: the instance, LP bound and fault rate; per
/// policy its TWCT and ratio (keyed `twct/NAME`, `ratio/NAME` as in the
/// ledger), makespan, proven bound and fault round (`Exact`) and
/// wall-clock (`Wall`, keyed `NAME` as in the ledger); the scale round's
/// cell, and per scale-round row its objective and makespan (`Exact`) and
/// wall-clock (`Wall`).
pub fn flatten_tournament(doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    let report = read_tournament(doc)?;
    let mut rows = Rows::default();
    rows.push(Exact, "seed", report.seed as f64)?;
    rows.push(Exact, "ports", report.ports as f64)?;
    rows.push(Exact, "coflows", report.coflows as f64)?;
    rows.push(Exact, "lp_bound", report.lp_bound)?;
    rows.push(Exact, "fault_rate", report.fault_rate)?;
    for row in &report.rows {
        let p = &row.policy;
        rows.push(Exact, format!("twct/{}", p), row.objective)?;
        rows.push(Exact, format!("ratio/{}", p), row.ratio)?;
        rows.push(Exact, format!("makespan:{}", p), row.makespan as f64)?;
        if let Some(bound) = row.bound {
            rows.push(Exact, format!("bound:{}", p), bound)?;
        }
        rows.push(Wall, p.as_str(), row.wall_ms)?;
        if let Some(f) = &row.fault {
            rows.push(Exact, format!("fault.twct:{}", p), f.objective)?;
            rows.push(Exact, format!("fault.inflation:{}", p), f.inflation)?;
            for (key, v) in [
                ("cancelled", f.cancelled),
                ("events", f.events),
                ("replans", f.replans),
            ] {
                rows.push(Exact, format!("fault.{}:{}", key, p), v as f64)?;
            }
        }
    }
    for (key, v) in ["ports", "coflows", "window"].iter().zip(report.scale_cell) {
        rows.push(Exact, format!("scale.{}", key), v as f64)?;
    }
    for row in &report.scale {
        let p = &row.policy;
        rows.push(Exact, format!("scale.twct:{}", p), row.objective)?;
        rows.push(Exact, format!("scale.makespan:{}", p), row.makespan as f64)?;
        rows.push(Wall, format!("scale.wall:{}", p), row.wall_ms)?;
    }
    Ok(rows.0)
}

/// Flattens a `coflow-ledger/1` record: stages (`Wall`), objectives
/// (`Exact`), per-stage allocation calls and bytes, total calls and peak
/// live heap (`Alloc`), peak RSS and elapsed time (`Info`).
pub fn flatten_record(rec: &LedgerRecord) -> Vec<Metric> {
    let metric = |kind, key: String, value| Metric { key, kind, value };
    let per_stage = |prefix: &str, list: &[(String, u64)]| -> Vec<Metric> {
        list.iter()
            .map(|(k, v)| metric(Alloc, format!("{}:{}", prefix, k), *v as f64))
            .collect()
    };
    let marks = [
        (Alloc, "alloc_calls(total)", rec.alloc_calls as f64),
        (Alloc, "peak_live_bytes", rec.peak_live_bytes as f64),
        (Info, "peak_rss_kb", rec.peak_rss_kb as f64),
        (Info, "elapsed_ms", rec.elapsed_ms),
    ];
    (rec.stages_ms
        .iter()
        .map(|(k, v)| metric(Wall, k.clone(), *v)))
    .chain(
        rec.objectives
            .iter()
            .map(|(k, v)| metric(Exact, k.clone(), *v)),
    )
    .chain(per_stage("allocs", &rec.stage_allocs))
    .chain(per_stage("alloc_bytes", &rec.stage_alloc_bytes))
    .chain(
        marks
            .into_iter()
            .map(|(kind, key, v)| metric(kind, key.to_string(), v)),
    )
    .collect()
}

/// One gate of `experiments -- gate NAME`.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// The gate's name, also its [`RULES`] scope.
    pub name: &'static str,
    /// The committed golden it is judged against.
    pub golden: &'static str,
    /// The schema of the golden and the fresh report.
    pub schema: &'static str,
    /// The row kinds it judges; the report's other rows belong to
    /// another gate's golden.
    pub kinds: &'static [Kind],
    /// The `experiments` arguments that regenerate the golden.
    pub regen: &'static str,
}

/// The gates, in `check-all.sh` order. The grid report also carries the
/// allocator rows, which `mem` judges against `BENCH_mem.json`, so `perf`
/// leaves them out. The tournament races the pinned policies on the
/// pinned instance, so the two regenerate together.
pub const GATES: [Gate; 5] = [
    Gate {
        name: "perf",
        golden: "BENCH_baseline.json",
        schema: profile::SCHEMA,
        kinds: &[Exact, Wall],
        regen: "profile --out BENCH_baseline.json",
    },
    Gate {
        name: "mem",
        golden: "BENCH_mem.json",
        schema: profile::MEM_SCHEMA,
        kinds: &[Exact, Alloc, Info],
        regen: "profile --mem-out BENCH_mem.json",
    },
    Gate {
        name: "pins",
        golden: "BENCH_pins.json",
        schema: pins::SCHEMA,
        kinds: &[Exact, Wall],
        regen: "pin --out BENCH_pins.json (then tournament --out BENCH_tournament.json)",
    },
    Gate {
        name: "scale",
        golden: "BENCH_scale.json",
        schema: scale::SCHEMA,
        kinds: &[Exact, Wall, Alloc, Info],
        regen: "scale --out BENCH_scale.json",
    },
    Gate {
        name: "tournament",
        golden: "BENCH_tournament.json",
        schema: tournament::SCHEMA,
        kinds: &[Exact, Wall],
        regen: "tournament --out BENCH_tournament.json",
    },
];

/// The gate named `name`.
pub fn gate(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// Flattens a report that must carry `gate`'s schema.
fn flatten_for(gate: &Gate, doc: &JsonValue) -> Result<Vec<Metric>, GateError> {
    expect_schema(doc, gate.schema)?;
    Ok(flatten_doc(doc)?.metrics)
}

/// Reads the golden of `gate` — parsed and flattened, so a malformed
/// file fails before any workload runs.
pub fn read_golden(gate: &Gate, text: &str) -> Result<Vec<Metric>, GateError> {
    flatten_for(gate, &parse(text)?)
}

/// Keeps the cells of a scale curve that `run` measured, in `run`'s
/// order; a measured cell the curve lacks is an error.
fn select_cells(curve: &JsonValue, run: &JsonValue) -> Result<JsonValue, GateError> {
    let have = Node::root(curve).items("cells")?;
    let mut kept = Vec::new();
    for cell in Node::root(run).items("cells")? {
        let label = scale_label(&cell)?;
        let found = have
            .iter()
            .find(|c| scale_label(c).is_ok_and(|l| l == label));
        kept.push(found.ok_or(GateError::CellMissing(label))?.value.clone());
    }
    let JsonValue::Obj(pairs) = curve else {
        return Err(GateError::Missing("cells".to_string()));
    };
    let keep = |(k, v): &(String, JsonValue)| {
        (
            k.clone(),
            if k == "cells" {
                JsonValue::Arr(kept.clone())
            } else {
                v.clone()
            },
        )
    };
    Ok(JsonValue::Obj(pairs.iter().map(keep).collect()))
}

/// Judges a fresh report against the golden under `gate`'s table rows,
/// on the row kinds the gate judges. A scale run is judged against the
/// curve's matching cells.
pub fn check(gate: &Gate, golden: &str, current: &str) -> Result<Vec<Judged>, GateError> {
    let (mut golden, current) = (parse(golden)?, parse(current)?);
    if gate.schema == scale::SCHEMA {
        flatten_for(gate, &golden)?;
        golden = select_cells(&golden, &current)?;
    }
    let judged = |doc| -> Result<Vec<Metric>, GateError> {
        let mut rows = flatten_for(gate, doc)?;
        rows.retain(|m| gate.kinds.contains(&m.kind));
        Ok(rows)
    };
    Ok(judge(
        &judged(&golden)?,
        &judged(&current)?,
        Scope::of(gate.name),
    ))
}

/// A gate's ledger verdicts: pass or fail per judged kind (`exact`,
/// `wall`, `alloc`) and `coverage` for one-sided rows.
pub fn statuses(rows: &[Judged]) -> Vec<(String, String)> {
    let status = |failed: bool| (if failed { "fail" } else { "pass" }).to_string();
    let kinds = [Exact, Wall, Alloc]
        .into_iter()
        .filter(|k| rows.iter().any(|r| r.kind == *k));
    kinds
        .map(|k| {
            (
                k.name().to_string(),
                status(rows.iter().any(|r| r.kind == k && r.regressed)),
            )
        })
        .chain([(
            "coverage".to_string(),
            status(rows.iter().any(Judged::one_sided)),
        )])
        .collect()
}

/// The verdict table of a judgement: each row with its bound and status,
/// then the verdict line.
pub fn render_verdict(title: &str, rows: &[Judged], scope: Scope) -> String {
    let value = |kind, v: Option<f64>| match v {
        None => "-".to_string(),
        Some(v) if kind == Exact => json::fmt_f64(v),
        Some(v) => format!("{:.2}", v),
    };
    let mut out = format!("{}\n", title);
    let _ = writeln!(
        out,
        "{:<5} {:<32} {:>20} {:>20} {:>14}  status",
        "kind", "key", "baseline", "current", "bound"
    );
    for r in rows {
        let bound = match (r.kind, rule(scope.name, r.kind, &r.key)) {
            (Info, _) => "-".to_string(),
            (Wall | Alloc, Some(b)) => {
                format!(
                    "+{:.0}%/{}",
                    scope.tolerance.unwrap_or(b.tolerance) * 100.0,
                    b.floor
                )
            }
            _ => "bit-exact".to_string(),
        };
        let status = match (r.one_sided(), r.regressed) {
            (true, _) => "ONE-SIDED",
            (_, true) => "REGRESSED",
            _ => "ok",
        };
        let (base, cur) = (value(r.kind, r.baseline), value(r.kind, r.current));
        let name = r.kind.name();
        let _ = writeln!(
            out,
            "{:<5} {:<32} {:>20} {:>20} {:>14}  {}",
            name, r.key, base, cur, bound, status
        );
    }
    let bad: Vec<&str> = rows
        .iter()
        .filter(|r| r.regressed || r.one_sided())
        .map(|r| r.key.as_str())
        .collect();
    match bad.len() {
        0 => out + &format!("verdict: pass ({} rows)\n", rows.len()),
        n => {
            out + &format!(
                "verdict: fail ({} of {} rows): {}\n",
                n,
                rows.len(),
                bad.join(", ")
            )
        }
    }
}
