//! Streaming NDJSON telemetry sink (`coflow-telemetry/1`).
//!
//! A long run is a black box until it finishes; this sink makes it
//! observable while it runs. Once installed with [`install`], harnesses
//! emit [`Heartbeat`]s — one self-contained JSON object per line, appended
//! and flushed individually — so:
//!
//! * `tail -f` (or `scripts/watch-telemetry.sh`) shows live progress;
//! * a SIGINT (or a crash) between lines leaves a valid NDJSON prefix —
//!   there is no trailing close bracket to lose;
//! * every line parses standalone with the in-repo parser
//!   ([`validate_line`]), so shard aggregators can stream-consume without
//!   buffering the file.
//!
//! The sink is process-global (like the registry) and **off by default**:
//! [`active`] is one relaxed atomic load, so uninstrumented runs pay
//! nothing. [`render_line`] is a pure function of its [`Heartbeat`] — no
//! clocks, no globals — which is what the golden NDJSON test pins.
//!
//! Heartbeat schema (`coflow-telemetry/1`), field order fixed:
//!
//! ```json
//! {"schema":"coflow-telemetry/1","seq":0,"elapsed_ms":12,"source":"engine",
//!  "label":"H_LP","epoch":42,"residual_units":1000,"active_coflows":5,
//!  "completed_coflows":7,"replans":2,"decisions":9,"epoch_ms":1.25,
//!  "live_bytes":4096,"peak_live_bytes":8192,"alloc_calls":100,
//!  "peak_rss_kb":2048}
//! ```

use crate::json::{self, JsonValue};
use crate::ObsError;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Schema tag carried by every heartbeat line.
pub const TELEMETRY_SCHEMA: &str = "coflow-telemetry/1";

/// One telemetry heartbeat — a self-contained progress sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Heartbeat {
    /// Line number within this sink's stream, 0-based.
    pub seq: u64,
    /// Milliseconds since the sink was installed.
    pub elapsed_ms: u64,
    /// Emitting site: `engine`, `engine.faults`, `profile`, `chaos`,
    /// `report`, …
    pub source: String,
    /// Free-form context (policy name, grid cell, report path).
    pub label: String,
    /// Scheduling slot the sample describes.
    pub epoch: u64,
    /// Total demand units not yet transferred.
    pub residual_units: u64,
    /// Released, unfinished, uncancelled coflows.
    pub active_coflows: u64,
    /// Coflows that have completed.
    pub completed_coflows: u64,
    /// Planning epochs consumed so far.
    pub replans: u64,
    /// Policy decisions taken so far.
    pub decisions: u64,
    /// Wall-clock milliseconds since this source's previous heartbeat.
    pub epoch_ms: f64,
    /// Allocator live bytes at sample time.
    pub live_bytes: u64,
    /// Allocator live-byte high-water mark.
    pub peak_live_bytes: u64,
    /// Allocation calls since process start.
    pub alloc_calls: u64,
    /// Kernel peak RSS (`VmHWM`) in kB; 0 when unavailable.
    pub peak_rss_kb: u64,
}

/// Renders one heartbeat as a single NDJSON line (trailing `\n` included).
/// Pure function — the golden telemetry test pins its exact output.
pub fn render_line(hb: &Heartbeat) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"schema\":{},\"seq\":{},\"elapsed_ms\":{},\"source\":{},\"label\":{},\
         \"epoch\":{},\"residual_units\":{},\"active_coflows\":{},\
         \"completed_coflows\":{},\"replans\":{},\"decisions\":{},\"epoch_ms\":{},\
         \"live_bytes\":{},\"peak_live_bytes\":{},\"alloc_calls\":{},\
         \"peak_rss_kb\":{}}}",
        json::quote(TELEMETRY_SCHEMA),
        hb.seq,
        hb.elapsed_ms,
        json::quote(&hb.source),
        json::quote(&hb.label),
        hb.epoch,
        hb.residual_units,
        hb.active_coflows,
        hb.completed_coflows,
        hb.replans,
        hb.decisions,
        json::fmt_f64(hb.epoch_ms),
        hb.live_bytes,
        hb.peak_live_bytes,
        hb.alloc_calls,
        hb.peak_rss_kb,
    );
    out.push('\n');
    out
}

/// Numeric fields every `coflow-telemetry/1` line must carry.
const REQUIRED_NUMERIC: &[&str] = &[
    "seq",
    "elapsed_ms",
    "epoch",
    "residual_units",
    "active_coflows",
    "completed_coflows",
    "replans",
    "decisions",
    "epoch_ms",
    "live_bytes",
    "peak_live_bytes",
    "alloc_calls",
    "peak_rss_kb",
];

/// Validates one NDJSON line against the `coflow-telemetry/1` schema using
/// the in-repo parser. Returns the parsed object on success.
pub fn validate_line(line: &str) -> Result<JsonValue, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable heartbeat: {}", e))?;
    match v.get("schema") {
        Some(JsonValue::Str(s)) if s == TELEMETRY_SCHEMA => {}
        Some(JsonValue::Str(s)) => {
            return Err(format!("schema {:?}, expected {:?}", s, TELEMETRY_SCHEMA))
        }
        _ => return Err("missing schema field".to_string()),
    }
    for key in ["source", "label"] {
        match v.get(key) {
            Some(JsonValue::Str(_)) => {}
            _ => return Err(format!("missing string field {:?}", key)),
        }
    }
    for key in REQUIRED_NUMERIC {
        match v.get(key) {
            Some(JsonValue::Num(_)) => {}
            _ => return Err(format!("missing numeric field {:?}", key)),
        }
    }
    Ok(v)
}

/// Validates a whole NDJSON stream line by line; returns the number of
/// heartbeats. Empty trailing lines are tolerated (a clean `tail` artifact),
/// anything else must parse.
pub fn validate_stream(text: &str) -> Result<u64, String> {
    let mut count = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {}", i + 1, e))?;
        count += 1;
    }
    Ok(count)
}

struct SinkState {
    file: File,
    path: String,
    seq: u64,
    started: Instant,
    /// Last-emit instants per source, for `epoch_ms` deltas.
    last_emit: Vec<(String, Instant)>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<SinkState>> {
    static SINK: OnceLock<Mutex<Option<SinkState>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn sink_locked() -> MutexGuard<'static, Option<SinkState>> {
    match sink().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True when a sink is installed; one relaxed load, safe on any hot path.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Opens (creating or appending to) the NDJSON stream at `path` and
/// activates telemetry. Appending keeps restarted runs in one stream;
/// every line is self-contained so mixed runs still validate.
pub fn install(path: &str) -> Result<(), ObsError> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| ObsError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
    let mut guard = sink_locked();
    *guard = Some(SinkState {
        file,
        path: path.to_string(),
        seq: 0,
        started: Instant::now(),
        last_emit: Vec::new(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Path of the installed sink, if any.
pub fn path() -> Option<String> {
    sink_locked().as_ref().map(|s| s.path.clone())
}

/// Closes the sink and deactivates telemetry. Lines already written stay
/// on disk (each was flushed individually).
pub fn shutdown() {
    ACTIVE.store(false, Ordering::Relaxed);
    *sink_locked() = None;
}

/// The caller-supplied part of a heartbeat; the sink fills in sequence
/// number, clocks, and memory fields at emit time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample<'a> {
    /// Emitting site (`engine`, `profile`, `chaos`, `report`, …).
    pub source: &'a str,
    /// Free-form context (policy, cell, path).
    pub label: &'a str,
    /// Scheduling slot the sample describes.
    pub epoch: u64,
    /// Demand units not yet transferred.
    pub residual_units: u64,
    /// Released, unfinished, uncancelled coflows.
    pub active_coflows: u64,
    /// Completed coflows.
    pub completed_coflows: u64,
    /// Planning epochs consumed.
    pub replans: u64,
    /// Policy decisions taken.
    pub decisions: u64,
}

/// Emits one heartbeat line (no-op when no sink is installed). The line is
/// appended and flushed atomically enough for NDJSON: a signal between
/// emits leaves a valid stream. Write errors deactivate the sink rather
/// than failing the run — telemetry must never take the schedule down.
pub fn emit(sample: &Sample<'_>) {
    if !active() {
        return;
    }
    let now = Instant::now();
    let mem = crate::alloc::stats();
    let rss = crate::alloc::peak_rss_kb().unwrap_or(0);
    let mut guard = sink_locked();
    let Some(state) = guard.as_mut() else {
        return;
    };
    let epoch_ms = match state.last_emit.iter_mut().find(|(s, _)| s == sample.source) {
        Some((_, at)) => {
            let delta = now.saturating_duration_since(*at);
            *at = now;
            delta.as_secs_f64() * 1e3
        }
        None => {
            state.last_emit.push((sample.source.to_string(), now));
            0.0
        }
    };
    let hb = Heartbeat {
        seq: state.seq,
        elapsed_ms: now.saturating_duration_since(state.started).as_millis() as u64,
        source: sample.source.to_string(),
        label: sample.label.to_string(),
        epoch: sample.epoch,
        residual_units: sample.residual_units,
        active_coflows: sample.active_coflows,
        completed_coflows: sample.completed_coflows,
        replans: sample.replans,
        decisions: sample.decisions,
        epoch_ms,
        live_bytes: mem.live_bytes,
        peak_live_bytes: mem.peak_live_bytes,
        alloc_calls: mem.alloc_calls,
        peak_rss_kb: rss,
    };
    state.seq += 1;
    let line = render_line(&hb);
    let ok = state
        .file
        .write_all(line.as_bytes())
        .and_then(|()| state.file.flush());
    if ok.is_err() {
        // Disk gone or fd closed: stop trying, keep scheduling.
        drop(guard);
        shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_heartbeat() -> Heartbeat {
        Heartbeat {
            seq: 3,
            elapsed_ms: 120,
            source: "engine".to_string(),
            label: "H_LP".to_string(),
            epoch: 42,
            residual_units: 1000,
            active_coflows: 5,
            completed_coflows: 7,
            replans: 2,
            decisions: 9,
            epoch_ms: 1.25,
            live_bytes: 4096,
            peak_live_bytes: 8192,
            alloc_calls: 100,
            peak_rss_kb: 2048,
        }
    }

    #[test]
    fn rendered_line_validates_and_round_trips() {
        let line = render_line(&fixed_heartbeat());
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let v = validate_line(&line).expect("valid");
        assert_eq!(v.get("seq"), Some(&JsonValue::Num("3".to_string())));
        assert_eq!(v.get("epoch_ms"), Some(&JsonValue::Num("1.25".to_string())));
        assert_eq!(v.get("source"), Some(&JsonValue::Str("engine".to_string())));
    }

    #[test]
    fn validate_line_rejects_wrong_schema_and_missing_fields() {
        assert!(validate_line("{}").is_err());
        assert!(validate_line("{\"schema\":\"coflow-telemetry/0\"}").is_err());
        assert!(validate_line("not json").is_err());
        let mut line = render_line(&fixed_heartbeat());
        line = line.replace("\"replans\":2,", "");
        assert!(validate_line(&line).is_err());
    }

    #[test]
    fn validate_stream_counts_lines_and_pinpoints_errors() {
        let good = render_line(&fixed_heartbeat());
        let stream = format!("{}{}", good, good);
        assert_eq!(validate_stream(&stream), Ok(2));
        let broken = format!("{}{{\"schema\":1}}\n", good);
        let err = validate_stream(&broken).unwrap_err();
        assert!(err.starts_with("line 2:"), "{}", err);
        assert_eq!(validate_stream(""), Ok(0));
    }
}
