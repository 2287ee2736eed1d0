//! Plain-data snapshot of a [`FaultSim`](crate::FaultSim) mid-run, with a
//! hand-rolled JSON codec (via the shared [`obs::json`] parser).
//!
//! A [`FaultSimState`] captures *everything* the simulator needs to resume
//! bit-identically after a process kill: residual demand, completion and
//! cancellation state, the executed trace so far, the stranded-unit
//! accounting, and the full fault plan (plans are static, so "plan
//! position" is just `now` plus the cancellation flags). The engine-level
//! snapshot in `coflow::sched` embeds this object verbatim.
//!
//! Versioning: this codec has no schema string of its own — it is embedded
//! inside the engine snapshot's `coflow-snapshot/1` document, and fields
//! here are only ever *added* (readers must reject unknown schemas at the
//! top level, not here).

use crate::fault::{BlockedRun, BlockedUnits, FaultEvent, FaultPlan};
use crate::trace::{Run, ScheduleTrace, Transfer};
use coflow_matching::IntMatrix;
use obs::json::JsonValue;
use std::fmt;
use std::fmt::Write as _;

/// A malformed or internally inconsistent snapshot document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// Human-readable description, with the offending field when known.
    pub message: String,
}

impl SnapshotError {
    /// Builds an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        SnapshotError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Everything a [`FaultSim`](crate::FaultSim) holds, as plain data.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSimState {
    /// Fabric width.
    pub m: usize,
    /// Residual demand per coflow (row-major `m×m`).
    pub remaining: Vec<IntMatrix>,
    /// Cached totals of `remaining`.
    pub remaining_total: Vec<u64>,
    /// Release slots.
    pub releases: Vec<u64>,
    /// Completion slot per coflow (`None` = in flight or cancelled).
    pub completion: Vec<Option<u64>>,
    /// Last slot each coflow received service.
    pub last_activity: Vec<u64>,
    /// Cancellation flags (applied, not just planned).
    pub cancelled: Vec<bool>,
    /// Current time (end of last processed slot).
    pub now: u64,
    /// The static fault plan being applied.
    pub plan: FaultPlan,
    /// Delivered units so far, each run a maximal stretch of slots that
    /// deliver the same units (checkpoints written before the executor
    /// merged slots hold one run per slot; both restore alike).
    pub executed: ScheduleTrace,
    /// Planned units stranded by faults so far.
    pub blocked_units: u64,
    /// The blocked log: runs of denied units, in order of their first
    /// slot (capped upstream on units). The document lists one
    /// `[slot,src,dst,coflow]` entry per unit, which
    /// [`FaultSimState::from_json`] reads back as a run of one slot;
    /// [`FaultSim::from_state`](crate::FaultSim::from_state) merges them.
    pub blocked_log: Vec<BlockedRun>,
    /// Log entries dropped past the cap.
    pub blocked_log_dropped: u64,
}

fn push_u64_array(out: &mut String, xs: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", x);
    }
    out.push(']');
}

/// Renders one [`FaultEvent`] as a compact JSON array.
fn push_event(out: &mut String, e: &FaultEvent) {
    match e {
        FaultEvent::IngressOutage { port, start, end } => {
            let _ = write!(out, "[\"ingress\",{},{},{}]", port, start, end);
        }
        FaultEvent::EgressOutage { port, start, end } => {
            let _ = write!(out, "[\"egress\",{},{},{}]", port, start, end);
        }
        FaultEvent::LinkDegraded {
            src,
            dst,
            start,
            end,
            stride,
        } => {
            let _ = write!(
                out,
                "[\"link\",{},{},{},{},{}]",
                src, dst, start, end, stride
            );
        }
        FaultEvent::CoflowCancelled { coflow, at } => {
            let _ = write!(out, "[\"cancel\",{},{}]", coflow, at);
        }
    }
}

/// Renders a [`FaultPlan`] as a JSON array of event arrays.
pub fn render_plan(out: &mut String, plan: &FaultPlan) {
    out.push('[');
    for (i, e) in plan.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event(out, e);
    }
    out.push(']');
}

/// Renders a [`ScheduleTrace`] as `{"m": .., "runs": [[start,duration,
/// [[src,dst,coflow,units],..]], ..]}`. A transfer moves one unit in each
/// slot of its run, so its `units` is the run's duration.
pub fn render_trace(out: &mut String, trace: &ScheduleTrace) {
    let _ = write!(out, "{{\"m\":{},\"runs\":[", trace.m);
    for (i, run) in trace.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},[", run.start, run.duration);
        for (j, t) in run.transfers.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{}]",
                t.src(),
                t.dst(),
                t.coflow(),
                run.duration
            );
        }
        out.push_str("]]");
    }
    out.push_str("]}");
}

impl FaultSimState {
    /// Renders the state as one JSON object (no trailing newline).
    pub fn render(&self, out: &mut String) {
        let _ = write!(out, "{{\"m\":{},\"now\":{},", self.m, self.now);
        out.push_str("\"releases\":");
        push_u64_array(out, self.releases.iter().copied());
        out.push_str(",\"remaining\":[");
        for (i, mat) in self.remaining.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64_array(out, mat.as_slice().iter().copied());
        }
        out.push_str("],\"remaining_total\":");
        push_u64_array(out, self.remaining_total.iter().copied());
        out.push_str(",\"completion\":[");
        for (i, c) in self.completion.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match c {
                Some(t) => {
                    let _ = write!(out, "{}", t);
                }
                None => out.push_str("null"),
            }
        }
        out.push_str("],\"last_activity\":");
        push_u64_array(out, self.last_activity.iter().copied());
        out.push_str(",\"cancelled\":[");
        for (i, &c) in self.cancelled.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(if c { "true" } else { "false" });
        }
        let _ = write!(
            out,
            "],\"blocked_units\":{},\"blocked_log_dropped\":{},\"blocked_log\":[",
            self.blocked_units, self.blocked_log_dropped
        );
        for (i, (slot, b)) in BlockedUnits::new(&self.blocked_log).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{},{}]", slot, b.src(), b.dst(), b.coflow());
        }
        out.push_str("],\"executed\":");
        render_trace(out, &self.executed);
        out.push_str(",\"plan\":");
        render_plan(out, &self.plan);
        out.push('}');
    }

    /// Parses a state object rendered by [`FaultSimState::render`] and
    /// validates internal consistency (dimensions, cached totals).
    pub fn from_json(v: &JsonValue) -> Result<FaultSimState, SnapshotError> {
        let m = get_usize(v, "m")?;
        let now = get_u64(v, "now")?;
        let releases = get_u64_array(v, "releases")?;
        let n = releases.len();
        let remaining = as_arr(field(v, "remaining")?, "remaining")?
            .iter()
            .enumerate()
            .map(|(k, row)| {
                let data = u64_array(row, "remaining[k]")?;
                // `m` is read from the document: `m * m` may overflow.
                if m.checked_mul(m) != Some(data.len()) {
                    return Err(SnapshotError::new(format!(
                        "remaining[{}] has {} entries, expected {}x{}",
                        k,
                        data.len(),
                        m,
                        m
                    )));
                }
                Ok(IntMatrix::from_rows(m, data))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let remaining_total = get_u64_array(v, "remaining_total")?;
        let completion = as_arr(field(v, "completion")?, "completion")?
            .iter()
            .map(|c| match c {
                JsonValue::Null => Ok(None),
                _ => num_u64(c, "completion[k]").map(Some),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let last_activity = get_u64_array(v, "last_activity")?;
        let cancelled = as_arr(field(v, "cancelled")?, "cancelled")?
            .iter()
            .map(|c| match c {
                JsonValue::Bool(b) => Ok(*b),
                other => Err(SnapshotError::new(format!(
                    "cancelled[k]: expected bool, found {}",
                    other.kind()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let blocked_units = get_u64(v, "blocked_units")?;
        let blocked_log_dropped = get_u64(v, "blocked_log_dropped")?;
        let blocked_log = as_arr(field(v, "blocked_log")?, "blocked_log")?
            .iter()
            .map(|b| {
                let xs = u64_array(b, "blocked_log[i]")?;
                let &[slot, src, dst, coflow] = xs.as_slice() else {
                    return Err(SnapshotError::new(
                        "blocked_log entry is not [slot,src,dst,coflow]",
                    ));
                };
                blocked_unit_of(slot, src, dst, coflow).ok_or_else(|| {
                    SnapshotError::new(format!(
                        "blocked unit ({}, {}, coflow {}) has an id past u32",
                        src, dst, coflow
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let executed = parse_trace(field(v, "executed")?)?;
        let plan = parse_plan(field(v, "plan")?)?;

        for (name, len) in [
            ("remaining", remaining.len()),
            ("remaining_total", remaining_total.len()),
            ("completion", completion.len()),
            ("last_activity", last_activity.len()),
            ("cancelled", cancelled.len()),
        ] {
            if len != n {
                return Err(SnapshotError::new(format!(
                    "'{}' has {} entries but 'releases' has {}",
                    name, len, n
                )));
            }
        }
        for (k, (mat, &tot)) in remaining.iter().zip(&remaining_total).enumerate() {
            if mat.total() != tot {
                return Err(SnapshotError::new(format!(
                    "remaining_total[{}] = {} disagrees with matrix sum {}",
                    k,
                    tot,
                    mat.total()
                )));
            }
        }
        if executed.m != m {
            return Err(SnapshotError::new("executed trace fabric width mismatch"));
        }
        Ok(FaultSimState {
            m,
            remaining,
            remaining_total,
            releases,
            completion,
            last_activity,
            cancelled,
            now,
            plan,
            executed,
            blocked_units,
            blocked_log,
            blocked_log_dropped,
        })
    }
}

/// Parses a plan rendered by [`render_plan`].
pub fn parse_plan(v: &JsonValue) -> Result<FaultPlan, SnapshotError> {
    let events = as_arr(v, "plan")?
        .iter()
        .map(|e| {
            let arr = as_arr(e, "plan[i]")?;
            let tag = match arr.first() {
                Some(JsonValue::Str(s)) => s.as_str(),
                _ => return Err(SnapshotError::new("plan event missing tag")),
            };
            let nums: Vec<u64> = arr[1..]
                .iter()
                .map(|x| num_u64(x, "plan event field"))
                .collect::<Result<_, _>>()?;
            match (tag, nums.as_slice()) {
                ("ingress", &[port, start, end]) => Ok(FaultEvent::IngressOutage {
                    port: port as usize,
                    start,
                    end,
                }),
                ("egress", &[port, start, end]) => Ok(FaultEvent::EgressOutage {
                    port: port as usize,
                    start,
                    end,
                }),
                ("link", &[src, dst, start, end, stride]) => Ok(FaultEvent::LinkDegraded {
                    src: src as usize,
                    dst: dst as usize,
                    start,
                    end,
                    stride,
                }),
                ("cancel", &[coflow, at]) => Ok(FaultEvent::CoflowCancelled {
                    coflow: coflow as usize,
                    at,
                }),
                _ => Err(SnapshotError::new(format!(
                    "malformed plan event '{}'",
                    tag
                ))),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultPlan::new(events))
}

/// Parses a trace rendered by [`render_trace`]. Every run must last at
/// least one slot, end within `u64`, and start after the previous run
/// ends; every transfer id must fit in `u32`, and every transfer's units
/// must equal its run's duration.
pub fn parse_trace(v: &JsonValue) -> Result<ScheduleTrace, SnapshotError> {
    let m = get_usize(v, "m")?;
    let mut trace = ScheduleTrace::new(m);
    // First slot after the previous run.
    let mut free_from = 0u64;
    for (r, run) in as_arr(field(v, "runs")?, "runs")?.iter().enumerate() {
        let arr = as_arr(run, "runs[i]")?;
        if arr.len() != 3 {
            return Err(SnapshotError::new("run is not [start,duration,transfers]"));
        }
        let start = num_u64(&arr[0], "run start")?;
        let duration = num_u64(&arr[1], "run duration")?;
        if duration == 0 {
            return Err(SnapshotError::new(format!("run {} lasts zero slots", r)));
        }
        let Some(end) = start.checked_add(duration) else {
            return Err(SnapshotError::new(format!(
                "run {} ({} + {} slots) ends past u64",
                r, start, duration
            )));
        };
        if start < free_from {
            return Err(SnapshotError::new(format!(
                "run {} starts at {} before the previous run ends",
                r, start
            )));
        }
        free_from = end;
        let transfers = as_arr(&arr[2], "run transfers")?
            .iter()
            .map(|t| {
                let xs = u64_array(t, "transfer")?;
                let &[src, dst, coflow, units] = xs.as_slice() else {
                    return Err(SnapshotError::new("transfer is not [src,dst,coflow,units]"));
                };
                if units != duration {
                    return Err(SnapshotError::new(format!(
                        "run {} moves {} units of coflow {} on ({}, {}) in {} slots",
                        r, units, coflow, src, dst, duration
                    )));
                }
                transfer_of(src, dst, coflow).ok_or_else(|| {
                    SnapshotError::new(format!(
                        "transfer ({}, {}, coflow {}) has an id past u32",
                        src, dst, coflow
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        trace.push_run(Run {
            start,
            duration,
            transfers: transfers.into(),
        });
    }
    Ok(trace)
}

/// A parsed transfer's ids; `None` when one does not fit in `u32`.
fn transfer_of(src: u64, dst: u64, coflow: u64) -> Option<Transfer> {
    Transfer::new(
        src.try_into().ok()?,
        dst.try_into().ok()?,
        coflow.try_into().ok()?,
    )
}

/// A parsed `[slot, src, dst, coflow]` blocked-log entry, as a run of one
/// slot; `None` when an id does not fit in `u32`.
fn blocked_unit_of(slot: u64, src: u64, dst: u64, coflow: u64) -> Option<BlockedRun> {
    BlockedRun::new(
        slot,
        1,
        src.try_into().ok()?,
        dst.try_into().ok()?,
        coflow.try_into().ok()?,
    )
}

// ---------------------------------------------------------------------------
// Field-access helpers shared with the engine snapshot in `coflow`.

/// Looks up a required object field.
pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::new(format!("missing field '{}'", key)))
}

/// Interprets a value as an array.
pub fn as_arr<'a>(v: &'a JsonValue, what: &str) -> Result<&'a Vec<JsonValue>, SnapshotError> {
    match v {
        JsonValue::Arr(items) => Ok(items),
        other => Err(SnapshotError::new(format!(
            "{}: expected array, found {}",
            what,
            other.kind()
        ))),
    }
}

/// Interprets a value as a `u64`.
pub fn num_u64(v: &JsonValue, what: &str) -> Result<u64, SnapshotError> {
    match v {
        JsonValue::Num(s) => s
            .parse::<u64>()
            .map_err(|_| SnapshotError::new(format!("{}: '{}' is not a u64", what, s))),
        other => Err(SnapshotError::new(format!(
            "{}: expected number, found {}",
            what,
            other.kind()
        ))),
    }
}

/// Interprets a value as a finite `f64` (any numeric lexeme whose value
/// fits: `1e999` would read as infinity and is refused).
pub fn num_f64(v: &JsonValue, what: &str) -> Result<f64, SnapshotError> {
    match v {
        JsonValue::Num(s) => s
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| SnapshotError::new(format!("{}: '{}' is not a finite f64", what, s))),
        other => Err(SnapshotError::new(format!(
            "{}: expected number, found {}",
            what,
            other.kind()
        ))),
    }
}

/// Required `u64` object field.
pub fn get_u64(v: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    num_u64(field(v, key)?, key)
}

/// Required `usize` object field.
pub fn get_usize(v: &JsonValue, key: &str) -> Result<usize, SnapshotError> {
    Ok(get_u64(v, key)? as usize)
}

fn u64_array(v: &JsonValue, what: &str) -> Result<Vec<u64>, SnapshotError> {
    as_arr(v, what)?.iter().map(|x| num_u64(x, what)).collect()
}

/// Required array-of-`u64` object field.
pub fn get_u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, SnapshotError> {
    u64_array(field(v, key)?, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use crate::fault::FaultSim;

    fn demand(units: u64) -> Demand {
        Demand::from_flows(2, [(0, 1, units)]).expect("a 2-port flow")
    }

    #[test]
    fn state_round_trips_through_json() {
        let plan = FaultPlan::new(vec![
            FaultEvent::IngressOutage {
                port: 0,
                start: 2,
                end: 3,
            },
            FaultEvent::CoflowCancelled { coflow: 1, at: 4 },
        ]);
        let mut sim = FaultSim::new(2, &[demand(3), demand(5)], &[0, 0], plan);
        for _ in 0..3 {
            sim.step(&[(0, 1, 0), (1, 0, 1)]).unwrap();
        }
        let state = sim.capture();
        assert_eq!(
            state.blocked_log,
            [BlockedRun::new(2, 2, 0, 1, 0).unwrap()],
            "slots 2 and 3 are one run"
        );
        let mut text = String::new();
        state.render(&mut text);
        assert!(
            text.contains("\"blocked_log\":[[2,0,1,0],[3,0,1,0]]"),
            "{}",
            text
        );
        let parsed = FaultSimState::from_json(&obs::json::parse(&text).unwrap()).unwrap();
        let mut again = String::new();
        parsed.render(&mut again);
        assert_eq!(again, text, "the document re-renders byte for byte");
        // The per-unit entries merge back into the captured runs, and the
        // restored simulator continues identically to the original.
        let mut restored = FaultSim::from_state(parsed).unwrap();
        assert_eq!(restored.capture(), state);
        for _ in 0..4 {
            let a = sim.step(&[(0, 1, 0), (1, 0, 1)]).unwrap();
            let b = restored.step(&[(0, 1, 0), (1, 0, 1)]).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(sim.capture(), restored.capture());
    }

    #[test]
    fn inconsistent_totals_rejected() {
        let sim = FaultSim::new(2, &[demand(3)], &[0], FaultPlan::default());
        let mut state = sim.capture();
        state.remaining_total[0] = 99;
        let mut text = String::new();
        state.render(&mut text);
        let err = FaultSimState::from_json(&obs::json::parse(&text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("remaining_total"), "{}", err);
    }

    fn parsed(runs: &str) -> Result<ScheduleTrace, SnapshotError> {
        let text = format!("{{\"m\":2,\"runs\":{}}}", runs);
        parse_trace(&obs::json::parse(&text).unwrap())
    }

    fn refusal(runs: &str) -> String {
        parsed(runs).unwrap_err().to_string()
    }

    #[test]
    fn overlapping_runs_are_refused() {
        let err = refusal("[[1,3,[]],[2,1,[]]]");
        assert!(
            err.contains("run 1 starts at 2 before the previous run ends"),
            "{}",
            err
        );
        assert!(parsed("[[1,3,[]],[4,1,[]]]").is_ok());
    }

    #[test]
    fn a_run_ending_past_u64_is_refused() {
        let err = refusal("[[18446744073709551615,5,[]],[1,1,[]]]");
        assert!(
            err.contains("run 0 (18446744073709551615 + 5 slots) ends past u64"),
            "{}",
            err
        );
        assert!(parsed("[[18446744073709551610,5,[]]]").is_ok());
    }

    #[test]
    fn a_zero_length_run_is_refused() {
        let err = refusal("[[0,0,[]]]");
        assert!(err.contains("run 0 lasts zero slots"), "{}", err);
    }

    #[test]
    fn units_other_than_the_duration_are_refused() {
        for units in [0, 1, 3, u64::MAX] {
            let err = refusal(&format!("[[1,1,[]],[2,2,[[0,1,0,2],[1,0,1,{}]]]]", units));
            let want = format!(
                "run 1 moves {} units of coflow 1 on (1, 0) in 2 slots",
                units
            );
            assert!(err.contains(&want), "{}", err);
        }
        let trace = parsed("[[2,2,[[0,1,0,2],[1,0,1,2]]]]").unwrap();
        let mut text = String::new();
        render_trace(&mut text, &trace);
        assert_eq!(text, "{\"m\":2,\"runs\":[[2,2,[[0,1,0,2],[1,0,1,2]]]]}");
    }

    #[test]
    fn transfer_ids_past_u32_are_refused_not_truncated() {
        let err = refusal("[[1,1,[[4294967296,0,0,1]]]]");
        assert!(err.contains("has an id past u32"), "{}", err);
        for t in ["[0,4294967296,0,1]", "[0,0,4294967296,1]"] {
            assert!(parsed(&format!("[[1,1,[{}]]]", t)).is_err(), "{}", t);
        }
        let trace = parsed("[[1,1,[[4294967295,0,0,1]]]]").unwrap();
        assert_eq!(trace.runs[0].transfers[0].src(), 4294967295);
    }

    #[test]
    fn non_finite_numbers_are_refused() {
        let num = |s: &str| num_f64(&JsonValue::Num(s.to_string()), "backoff");
        assert_eq!(num("0.5").unwrap(), 0.5);
        assert_eq!(num("1e-300").unwrap(), 1e-300);
        for s in ["1e999", "-1e999"] {
            let err = num(s).unwrap_err().to_string();
            assert!(err.contains("backoff") && err.contains("finite"), "{}", err);
        }
    }
}
