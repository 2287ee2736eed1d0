//! Append-only NDJSON run ledger (`coflow-ledger/1`).
//!
//! Every report the workspace emits today is a point-in-time snapshot; the
//! ledger is the *cross-run* record that makes trajectories comparable. One
//! self-contained JSON line is appended per run (or per gate verdict), so:
//!
//! * `experiments -- diff` can attribute regressions between any two runs
//!   without re-running anything;
//! * `experiments -- report` can render trend sparklines over the whole
//!   history;
//! * a SIGINT or crash between appends leaves a valid NDJSON prefix — the
//!   same flushed-line discipline as [`crate::telemetry`], there is no
//!   trailing close bracket to lose. A crash *during* an append leaves a
//!   torn last line: the next [`append`] starts a new line after it, and
//!   [`load`] skips it and names it.
//!
//! Records carry provenance (git revision + dirty flag, wall-clock
//! timestamp), the run's configuration fingerprint, per-stage wall-clock
//! and allocation attribution pulled from the live registry, whole-process
//! memory marks, per-cell objectives, and gate verdicts. Sequence numbers
//! are monotone per file: [`append`] re-reads the existing tail and
//! continues from the highest seq it finds, so interleaved runs still
//! produce a strictly increasing sequence.
//!
//! Record schema (`coflow-ledger/1`), field order fixed; maps render as
//! nested objects with caller-supplied keys:
//!
//! ```json
//! {"schema":"coflow-ledger/1","seq":3,"ts":1754650000,"kind":"run",
//!  "command":"profile","label":"12-cell grid","seed":2015,
//!  "fingerprint":"ports=60 coflows=150","git_rev":"abc…","git_dirty":false,
//!  "elapsed_ms":1234.5,"peak_rss_kb":45000,"peak_live_bytes":9000000,
//!  "alloc_calls":1200000,"stages_ms":{"lp_solve":105.5},
//!  "stage_allocs":{"lp_solve":4000},"stage_alloc_bytes":{"lp_solve":65536},
//!  "objectives":{"H_LP/d":6950481},"verdicts":{"perf":"pass"}}
//! ```
//!
//! Versioning rules mirror the other report schemas (DESIGN.md §4f): adding
//! a field is a `/1`-compatible change only for *readers* that use `get`;
//! removing or re-typing one bumps the tag. Readers reject foreign tags.

use crate::json::{self, fmt_f64, JsonValue};
use crate::{ObsError, Snapshot};
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Schema tag carried by every ledger line.
pub const LEDGER_SCHEMA: &str = "coflow-ledger/1";

/// One ledger record — a self-contained, single-line summary of a run or a
/// gate verdict. Maps are ordered `(key, value)` vectors so rendering is
/// deterministic in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerRecord {
    /// Line sequence within the ledger file, 1-based; assigned by
    /// [`append`].
    pub seq: u64,
    /// Unix timestamp (seconds) at append time; 0 in deterministic mode.
    pub ts: u64,
    /// `run` for executed workloads, `verdict` for gate outcomes.
    pub kind: String,
    /// Emitting command (`profile`, `pin`, `chaos`, `cli`, a gate name…).
    pub command: String,
    /// Free-form context (grid label, trace path, gate notes).
    pub label: String,
    /// Workload seed (0 when not seeded).
    pub seed: u64,
    /// Configuration fingerprint (`ports=60 coflows=150 …`).
    pub fingerprint: String,
    /// Git revision of the working tree, `unknown` outside a repo.
    pub git_rev: String,
    /// True when the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// Wall-clock of the run, milliseconds.
    pub elapsed_ms: f64,
    /// Kernel peak RSS (`VmHWM`, kB); 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Allocator live-byte high-water mark.
    pub peak_live_bytes: u64,
    /// Allocation calls during the run.
    pub alloc_calls: u64,
    /// Per-stage exclusive wall-clock, milliseconds.
    pub stages_ms: Vec<(String, f64)>,
    /// Per-stage exclusive allocation calls.
    pub stage_allocs: Vec<(String, u64)>,
    /// Per-stage exclusive allocated bytes.
    pub stage_alloc_bytes: Vec<(String, u64)>,
    /// Objective per cell/policy label; `fmt_f64` round-trips exactly, so
    /// bit-level comparisons survive the file.
    pub objectives: Vec<(String, f64)>,
    /// Gate verdicts, `pass`/`fail` per gate name.
    pub verdicts: Vec<(String, String)>,
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// Git provenance of the working tree at process start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown`.
    pub git_rev: String,
    /// True when `git status --porcelain` reported changes.
    pub git_dirty: bool,
}

static ZERO_PROVENANCE: AtomicBool = AtomicBool::new(false);

/// Forces zeroed provenance (rev `0000000000`, clean, ts 0) for the rest of
/// the process — golden tests and fixtures call this so rendered documents
/// are byte-stable. The `COFLOW_PROVENANCE=zero` environment variable has
/// the same effect.
pub fn set_zero_provenance(on: bool) {
    ZERO_PROVENANCE.store(on, Ordering::Relaxed);
}

/// True when provenance is zeroed (deterministic mode).
pub fn provenance_zeroed() -> bool {
    ZERO_PROVENANCE.load(Ordering::Relaxed)
        || std::env::var("COFLOW_PROVENANCE")
            .map(|v| v == "zero")
            .unwrap_or(false)
}

fn git_capture(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Git revision + dirty flag, computed once per process (zeroed mode wins
/// at every call). Outside a repo — or without a `git` binary — the
/// revision is `unknown` and the tree counts as clean.
pub fn git_provenance() -> Provenance {
    if provenance_zeroed() {
        return Provenance {
            git_rev: "0000000000".to_string(),
            git_dirty: false,
        };
    }
    static CACHE: OnceLock<Provenance> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let git_rev =
                git_capture(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
            let git_dirty = git_capture(&["status", "--porcelain"])
                .map(|s| !s.is_empty())
                .unwrap_or(false);
            Provenance { git_rev, git_dirty }
        })
        .clone()
}

/// Current unix timestamp in seconds; 0 in deterministic mode.
pub fn unix_ts() -> u64 {
    if provenance_zeroed() {
        return 0;
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Registry digest
// ---------------------------------------------------------------------------

/// The pipeline stages a ledger record attributes, each with the span
/// leaf that feeds it — the same leaves the profile report uses.
pub const STAGE_LEAVES: [(&str, &str); 5] = [
    ("lp_build", "lp.build_model"),
    ("lp_solve", "lp.solve"),
    ("order", "sched.order"),
    ("decompose", "matching.bvn_decompose"),
    ("simulate", "sched.simulate"),
];

/// Per-stage maps digested from a registry snapshot: exclusive
/// wall-clock (ms), allocation calls, and allocated bytes — the shapes
/// of [`LedgerRecord::stages_ms`], `stage_allocs`, `stage_alloc_bytes`.
pub type StageDigest = (Vec<(String, f64)>, Vec<(String, u64)>, Vec<(String, u64)>);

/// Digests a registry snapshot into the ledger's per-stage maps:
/// exclusive wall-clock, allocation calls, and allocated bytes per
/// pipeline stage (see [`STAGE_LEAVES`]). Stages the run never entered
/// come back zero so record shapes stay uniform.
pub fn stage_digest(snap: &Snapshot) -> StageDigest {
    let leaves: Vec<&str> = STAGE_LEAVES.iter().map(|&(_, leaf)| leaf).collect();
    let mut ms: Vec<(String, f64)> = Vec::new();
    let mut allocs: Vec<(String, u64)> = Vec::new();
    let mut bytes: Vec<(String, u64)> = Vec::new();
    for &(stage, leaf) in &STAGE_LEAVES {
        let (a, b) = snap.span_mem_self(leaf, &leaves);
        ms.push((stage.to_string(), snap.span_self_ms(leaf, &leaves)));
        allocs.push((stage.to_string(), a.max(0) as u64));
        bytes.push((stage.to_string(), b.max(0) as u64));
    }
    (ms, allocs, bytes)
}

// ---------------------------------------------------------------------------
// Rendering / validation
// ---------------------------------------------------------------------------

fn render_map_f64(out: &mut String, entries: &[(String, f64)]) {
    out.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::quote(k), fmt_f64(*v));
    }
    out.push('}');
}

fn render_map_u64(out: &mut String, entries: &[(String, u64)]) {
    out.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::quote(k), v);
    }
    out.push('}');
}

fn render_map_str(out: &mut String, entries: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::quote(k), json::quote(v));
    }
    out.push('}');
}

/// Renders one record as a single NDJSON line (trailing `\n` included).
/// Pure function of the record — what the golden and property tests pin.
pub fn render_record(rec: &LedgerRecord) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"schema\":{},\"seq\":{},\"ts\":{},\"kind\":{},\"command\":{},\
         \"label\":{},\"seed\":{},\"fingerprint\":{},\"git_rev\":{},\
         \"git_dirty\":{},\"elapsed_ms\":{},\"peak_rss_kb\":{},\
         \"peak_live_bytes\":{},\"alloc_calls\":{},",
        json::quote(LEDGER_SCHEMA),
        rec.seq,
        rec.ts,
        json::quote(&rec.kind),
        json::quote(&rec.command),
        json::quote(&rec.label),
        rec.seed,
        json::quote(&rec.fingerprint),
        json::quote(&rec.git_rev),
        rec.git_dirty,
        fmt_f64(rec.elapsed_ms),
        rec.peak_rss_kb,
        rec.peak_live_bytes,
        rec.alloc_calls,
    );
    out.push_str("\"stages_ms\":");
    render_map_f64(&mut out, &rec.stages_ms);
    out.push_str(",\"stage_allocs\":");
    render_map_u64(&mut out, &rec.stage_allocs);
    out.push_str(",\"stage_alloc_bytes\":");
    render_map_u64(&mut out, &rec.stage_alloc_bytes);
    out.push_str(",\"objectives\":");
    render_map_f64(&mut out, &rec.objectives);
    out.push_str(",\"verdicts\":");
    render_map_str(&mut out, &rec.verdicts);
    out.push_str("}\n");
    out
}

/// A JSON number lexeme as a finite `f64`: `1e999` parses to infinity,
/// which the ledger could not write back.
fn finite_f64(s: &str) -> Result<f64, &'static str> {
    match s.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        Ok(_) => Err("non-finite number"),
        Err(_) => Err("bad number"),
    }
}

fn parse_map_f64(v: &JsonValue, key: &str) -> Result<Vec<(String, f64)>, String> {
    match v.get(key) {
        Some(JsonValue::Obj(pairs)) => pairs
            .iter()
            .map(|(k, val)| match val {
                JsonValue::Num(s) => finite_f64(s)
                    .map(|n| (k.clone(), n))
                    .map_err(|e| format!("{}.{}: {}", key, k, e)),
                other => Err(format!(
                    "{}.{}: expected number, got {}",
                    key,
                    k,
                    other.kind()
                )),
            })
            .collect(),
        _ => Err(format!("missing object field {:?}", key)),
    }
}

fn parse_map_u64(v: &JsonValue, key: &str) -> Result<Vec<(String, u64)>, String> {
    match v.get(key) {
        Some(JsonValue::Obj(pairs)) => pairs
            .iter()
            .map(|(k, val)| match val {
                JsonValue::Num(s) => s
                    .parse::<u64>()
                    .map(|n| (k.clone(), n))
                    .map_err(|_| format!("{}.{}: bad integer", key, k)),
                other => Err(format!(
                    "{}.{}: expected number, got {}",
                    key,
                    k,
                    other.kind()
                )),
            })
            .collect(),
        _ => Err(format!("missing object field {:?}", key)),
    }
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {:?}", key)),
    }
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(JsonValue::Num(s)) => s
            .parse()
            .map_err(|_| format!("field {:?}: bad integer", key)),
        _ => Err(format!("missing numeric field {:?}", key)),
    }
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Num(s)) => finite_f64(s).map_err(|e| format!("field {:?}: {}", key, e)),
        _ => Err(format!("missing numeric field {:?}", key)),
    }
}

/// Parses and validates one ledger line back into a [`LedgerRecord`].
/// Rejects foreign schema tags and missing fields — a reader must never
/// silently default a record it does not understand.
pub fn parse_record(line: &str) -> Result<LedgerRecord, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable ledger line: {}", e))?;
    match v.get("schema") {
        Some(JsonValue::Str(s)) if s == LEDGER_SCHEMA => {}
        Some(JsonValue::Str(s)) => {
            return Err(format!("schema {:?}, expected {:?}", s, LEDGER_SCHEMA))
        }
        _ => return Err("missing schema field".to_string()),
    }
    let git_dirty = match v.get("git_dirty") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("missing bool field \"git_dirty\"".to_string()),
    };
    Ok(LedgerRecord {
        seq: req_u64(&v, "seq")?,
        ts: req_u64(&v, "ts")?,
        kind: req_str(&v, "kind")?,
        command: req_str(&v, "command")?,
        label: req_str(&v, "label")?,
        seed: req_u64(&v, "seed")?,
        fingerprint: req_str(&v, "fingerprint")?,
        git_rev: req_str(&v, "git_rev")?,
        git_dirty,
        elapsed_ms: req_f64(&v, "elapsed_ms")?,
        peak_rss_kb: req_u64(&v, "peak_rss_kb")?,
        peak_live_bytes: req_u64(&v, "peak_live_bytes")?,
        alloc_calls: req_u64(&v, "alloc_calls")?,
        stages_ms: parse_map_f64(&v, "stages_ms")?,
        stage_allocs: parse_map_u64(&v, "stage_allocs")?,
        stage_alloc_bytes: parse_map_u64(&v, "stage_alloc_bytes")?,
        objectives: parse_map_f64(&v, "objectives")?,
        verdicts: match v.get("verdicts") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| match val {
                    JsonValue::Str(s) => Ok((k.clone(), s.clone())),
                    other => Err(format!(
                        "verdicts.{}: expected string, got {}",
                        k,
                        other.kind()
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing object field \"verdicts\"".to_string()),
        },
    })
}

/// Validates a whole ledger stream: every non-empty line must parse as a
/// `coflow-ledger/1` record and sequence numbers must be strictly
/// increasing. Returns the record count.
pub fn validate_stream(text: &str) -> Result<u64, String> {
    let mut count = 0u64;
    let mut last_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse_record(line).map_err(|e| format!("line {}: {}", i + 1, e))?;
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                return Err(format!(
                    "line {}: seq {} not greater than previous {}",
                    i + 1,
                    rec.seq,
                    prev
                ));
            }
        }
        last_seq = Some(rec.seq);
        count += 1;
    }
    Ok(count)
}

/// A ledger file as [`load`] reads it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// The parseable records, oldest first.
    pub records: Vec<LedgerRecord>,
    /// 1-based numbers of the non-empty lines that do not parse: what a
    /// crash during an append leaves.
    pub skipped: Vec<usize>,
}

impl Ledger {
    /// One warning naming the skipped lines of the ledger at `path`, or
    /// `None` when every line parsed.
    pub fn skipped_warning(&self, path: &str) -> Option<String> {
        if self.skipped.is_empty() {
            return None;
        }
        let lines: Vec<String> = self.skipped.iter().map(|l| l.to_string()).collect();
        Some(format!(
            "warning: {}: skipped unparseable line{} {}",
            path,
            if lines.len() == 1 { "" } else { "s" },
            lines.join(", ")
        ))
    }
}

/// Loads a ledger file: every record, oldest first, skipping lines that
/// do not parse, as [`append`] does, and naming them. A missing file is an
/// error — callers that tolerate an absent ledger check existence first.
/// [`validate_stream`] is the strict reader.
pub fn load(path: &str) -> Result<Ledger, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read ledger {}: {}", path, e))?;
    let mut ledger = Ledger::default();
    for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(rec) => ledger.records.push(rec),
            Err(_) => ledger.skipped.push(i + 1),
        }
    }
    Ok(ledger)
}

/// Highest seq present in `path`, 0 when the file is missing or holds no
/// parseable record (a torn line is skipped, not fatal — the next append
/// must still succeed after a crash), and whether the file is non-empty
/// and lacks a final newline, as a torn last line does.
fn tail(path: &str) -> (u64, bool) {
    let Ok(bytes) = std::fs::read(path) else {
        return (0, false);
    };
    let seq = String::from_utf8_lossy(&bytes)
        .lines()
        .filter_map(|line| parse_record(line).ok())
        .map(|r| r.seq)
        .max()
        .unwrap_or(0);
    (seq, bytes.last().is_some_and(|&b| b != b'\n'))
}

/// The first field of `rec` holding a non-finite number, named as the
/// reader names it.
fn non_finite_field(rec: &LedgerRecord) -> Option<String> {
    if !rec.elapsed_ms.is_finite() {
        return Some("elapsed_ms".to_string());
    }
    [
        ("stages_ms", &rec.stages_ms),
        ("objectives", &rec.objectives),
    ]
    .into_iter()
    .find_map(|(map, entries)| {
        let (k, _) = entries.iter().find(|(_, v)| !v.is_finite())?;
        Some(format!("{}.{}", map, k))
    })
}

/// Appends `record` to the ledger at `path`: assigns the next sequence
/// number and (unless already set) the current timestamp and git
/// provenance, then writes one flushed NDJSON line. Returns the assigned
/// seq. The line is written with a single `write_all` + flush, so an
/// interrupt between appends leaves every line valid. When the file does
/// not end in a newline (a crash tore its last line), the write starts
/// with one, so the record gets a line of its own. A record holding a
/// NaN or an infinity is refused ([`ObsError::NonFinite`]) and the file is
/// left as it was.
pub fn append(path: &str, record: &mut LedgerRecord) -> Result<u64, ObsError> {
    if let Some(field) = non_finite_field(record) {
        return Err(ObsError::NonFinite {
            path: path.to_string(),
            field,
        });
    }
    let (last_seq, torn) = tail(path);
    record.seq = last_seq + 1;
    record.ts = unix_ts();
    if record.git_rev.is_empty() {
        let prov = git_provenance();
        record.git_rev = prov.git_rev;
        record.git_dirty = prov.git_dirty;
    }
    let io_err = |e: std::io::Error| ObsError::Io {
        path: path.to_string(),
        message: e.to_string(),
    };
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io_err)?;
    let mut line = if torn {
        "\n".to_string()
    } else {
        String::new()
    };
    line.push_str(&render_record(record));
    file.write_all(line.as_bytes()).map_err(io_err)?;
    file.flush().map_err(io_err)?;
    Ok(record.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_record() -> LedgerRecord {
        LedgerRecord {
            seq: 2,
            ts: 1754650000,
            kind: "run".to_string(),
            command: "profile".to_string(),
            label: "12-cell grid".to_string(),
            seed: 2015,
            fingerprint: "ports=60 coflows=150".to_string(),
            git_rev: "abc123".to_string(),
            git_dirty: true,
            elapsed_ms: 1234.5,
            peak_rss_kb: 45000,
            peak_live_bytes: 9_000_000,
            alloc_calls: 1_200_000,
            stages_ms: vec![
                ("lp_solve".to_string(), 105.5),
                ("simulate".to_string(), 65.25),
            ],
            stage_allocs: vec![("lp_solve".to_string(), 4000)],
            stage_alloc_bytes: vec![("lp_solve".to_string(), 65536)],
            objectives: vec![("H_LP/d".to_string(), 6950481.0)],
            verdicts: vec![("perf".to_string(), "pass".to_string())],
        }
    }

    #[test]
    fn record_renders_one_line_and_round_trips() {
        let rec = fixed_record();
        let line = render_record(&rec);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let back = parse_record(&line).expect("valid record");
        assert_eq!(back, rec);
    }

    #[test]
    fn parse_rejects_foreign_schema_and_missing_fields() {
        assert!(parse_record("{}").is_err());
        assert!(parse_record("{\"schema\":\"coflow-ledger/0\"}").is_err());
        let line = render_record(&fixed_record());
        let broken = line.replace("\"git_dirty\":true,", "");
        assert!(parse_record(&broken).is_err());
        let broken = line.replace("\"kind\":\"run\",", "");
        assert!(parse_record(&broken).is_err());
    }

    #[test]
    fn objectives_round_trip_bit_exactly() {
        let mut rec = fixed_record();
        rec.objectives = vec![("x".to_string(), 0.1 + 0.2), ("y".to_string(), 1.0 / 3.0)];
        let back = parse_record(&render_record(&rec)).expect("valid");
        for ((_, a), (_, b)) in rec.objectives.iter().zip(&back.objectives) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn validate_stream_requires_increasing_seq() {
        let mut a = fixed_record();
        a.seq = 1;
        let mut b = fixed_record();
        b.seq = 2;
        let good = format!("{}{}", render_record(&a), render_record(&b));
        assert_eq!(validate_stream(&good), Ok(2));
        let bad = format!("{}{}", render_record(&b), render_record(&a));
        let err = validate_stream(&bad).unwrap_err();
        assert!(err.contains("seq"), "{}", err);
        assert_eq!(validate_stream(""), Ok(0));
    }

    #[test]
    fn append_assigns_monotone_seqs_and_survives_torn_tail() {
        let dir = std::env::temp_dir().join(format!("obs-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.ndjson");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        set_zero_provenance(true);
        let mut rec = fixed_record();
        rec.git_rev = String::new();
        assert_eq!(append(path, &mut rec.clone()).unwrap(), 1);
        assert_eq!(append(path, &mut rec.clone()).unwrap(), 2);
        let tear = |bytes: &[u8]| {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(bytes).unwrap();
        };
        // A crash mid-write leaves a fragment with no newline: the next
        // record must still get a line, and a seq, of its own.
        tear(b"{\"schema\":\"coflow-led");
        let mut third = rec.clone();
        assert_eq!(append(path, &mut third).unwrap(), 3);
        let ledger = load(path).expect("a torn line does not break the reader");
        let seqs: Vec<u64> = ledger.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(ledger.records[2], third);
        assert_eq!(ledger.skipped, [3]);
        // A torn line that did end in a newline.
        tear(b"{\"schema\":\"coflow-led\n");
        assert_eq!(append(path, &mut rec.clone()).unwrap(), 4);
        let ledger = load(path).unwrap();
        assert_eq!(ledger.records.len(), 4);
        assert_eq!(ledger.skipped, [3, 5]);
        let warning = ledger.skipped_warning(path).unwrap();
        assert!(
            warning.ends_with("skipped unparseable lines 3, 5"),
            "{}",
            warning
        );
        // The strict reader still refuses the file.
        let text = std::fs::read_to_string(path).unwrap();
        assert!(validate_stream(&text).unwrap_err().starts_with("line 3:"));
        // stay zeroed: tests run in parallel and none asserts live provenance
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Doctors one number of a rendered record and returns the reader's
    /// error.
    fn refusal(from: &str, to: &str) -> String {
        let line = render_record(&fixed_record());
        assert!(line.contains(from), "{}", from);
        parse_record(&line.replace(from, to)).unwrap_err()
    }

    #[test]
    fn a_non_finite_field_is_refused() {
        let err = refusal("\"elapsed_ms\":1234.5", "\"elapsed_ms\":1e999");
        assert!(err.contains("\"elapsed_ms\": non-finite"), "{}", err);
    }

    #[test]
    fn a_non_finite_map_entry_is_refused() {
        let err = refusal("\"simulate\":65.25", "\"simulate\":-1e999");
        assert!(err.contains("stages_ms.simulate: non-finite"), "{}", err);
        let err = refusal("\"H_LP/d\":6950481.0", "\"H_LP/d\":1e999");
        assert!(err.contains("objectives.H_LP/d: non-finite"), "{}", err);
    }

    #[test]
    fn append_refuses_non_finite_numbers_and_keeps_the_file_readable() {
        let dir = std::env::temp_dir().join(format!("obs-ledger-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.ndjson");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        set_zero_provenance(true);
        assert_eq!(append(path, &mut fixed_record()).unwrap(), 1);
        let mut stage = fixed_record();
        stage.stages_ms[1].1 = f64::INFINITY;
        let mut objective = fixed_record();
        objective.objectives[0].1 = f64::NAN;
        let mut elapsed = fixed_record();
        elapsed.elapsed_ms = f64::NEG_INFINITY;
        for (mut rec, field) in [
            (stage, "stages_ms.simulate"),
            (objective, "objectives.H_LP/d"),
            (elapsed, "elapsed_ms"),
        ] {
            let err = append(path, &mut rec).unwrap_err();
            assert!(err.to_string().contains(field), "{}", err);
        }
        let ledger = load(path).expect("the refused records left the file readable");
        assert_eq!((ledger.records.len(), ledger.skipped.len()), (1, 0));
        // stay zeroed: tests run in parallel and none asserts live provenance
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zeroed_provenance_is_deterministic() {
        set_zero_provenance(true);
        assert_eq!(unix_ts(), 0);
        let p = git_provenance();
        assert_eq!(p.git_rev, "0000000000");
        assert!(!p.git_dirty);
        // stay zeroed: tests run in parallel and none asserts live provenance
    }
}
