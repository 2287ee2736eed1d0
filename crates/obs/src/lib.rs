//! Structured observability for the coflow-scheduling workspace:
//! hierarchical wall-clock spans, monotonic counters, and log-scale
//! histograms, collected into one thread-safe global [`Registry`].
//!
//! Design constraints (in the style of `crates/shims/`):
//!
//! * **Dependency-free.** The build environment has no registry access, so
//!   everything here is `std`-only.
//! * **Near-zero cost when disabled.** Every recording entry point first
//!   reads one relaxed [`AtomicBool`]; the global default is *disabled*, so
//!   uninstrumented workloads pay a single predictable branch per call
//!   site. Harnesses opt in with [`set_enabled`].
//! * **Coarse-grained spans.** Spans are meant for pipeline *stages*
//!   (an LP solve, a BvN decomposition, a batch execution), not inner
//!   loops; hot-loop statistics are accumulated locally by the
//!   instrumented code and published as one [`counter_add`] per stage.
//!
//! Naming conventions (enforced socially, documented in DESIGN.md):
//! counters and histograms are `crate.component.metric`
//! (e.g. `lp.simplex.pivots`); span names are `crate.stage`
//! (e.g. `lp.solve`), and nested spans form `/`-separated paths
//! (e.g. `sched.order/lp.solve`).
//!
//! Two sinks render the collected data: [`summary`] (human-readable tree)
//! and [`chrome_trace`] (`chrome://tracing` / Perfetto-compatible JSON).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
mod atomic;
mod error;
mod hist;
pub mod interrupt;
pub mod json;
pub mod ledger;
pub mod series;
mod sink;
pub mod telemetry;

pub use atomic::atomic_write;
pub use error::ObsError;
pub use hist::{bucket_bounds, bucket_index, Histogram, NUM_BUCKETS};
pub use interrupt::{install_sigint_handler, interrupted, SIGINT_EXIT_CODE};
pub use series::Series;
pub use sink::{render_chrome_trace, render_chrome_trace_full};

/// Workspace-wide counting allocator: every crate linking `obs` (directly
/// or transitively) gets live/peak byte accounting for free. See
/// [`alloc::stats`] and [`alloc::peak_rss_kb`].
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Cap on buffered span events (the chrome-trace sink's raw material).
/// Aggregates ([`SpanStat`]) keep counting past the cap, so summaries stay
/// exact; only the flame view loses the overflow.
const MAX_EVENTS: usize = 1 << 18;

/// Cap on buffered instant events (anomaly markers and the like). Instants
/// are expected to be rare — a firing detector, not a hot loop.
const MAX_INSTANTS: usize = 1 << 14;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of active span names on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for this thread, assigned on first span.
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One finished span occurrence, positioned on the global timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// `/`-joined span path, innermost last (e.g. `sched.order/lp.solve`).
    pub path: String,
    /// Dense thread id (1-based, assigned per thread on first span).
    pub tid: u64,
    /// Start offset from the registry epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

impl SpanEvent {
    /// Innermost span name (the last path segment).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// One point-in-time marker on the global timeline — a detector firing, a
/// replan boundary, anything with a *when* but no duration. Rendered as a
/// `ph:"i"` instant event by the chrome-trace sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    /// Marker name (e.g. `diag.anomaly.starvation`).
    pub name: &'static str,
    /// Dense thread id (1-based, assigned per thread on first use).
    pub tid: u64,
    /// Offset from the registry epoch, microseconds.
    pub ts_us: u64,
}

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed occurrences.
    pub count: u64,
    /// Total wall-clock time across occurrences, nanoseconds.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total wall-clock time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Aggregate allocation statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStat {
    /// Allocation calls made on the span's thread during occurrences.
    pub allocs: u64,
    /// Bytes allocated on the span's thread during occurrences.
    pub bytes: u64,
    /// Max of process live bytes observed during any occurrence.
    pub peak_live_bytes: u64,
}

struct Inner {
    epoch: Instant,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    span_agg: BTreeMap<String, SpanStat>,
    span_mem: BTreeMap<String, MemStat>,
    series: BTreeMap<&'static str, Series>,
    events: Vec<SpanEvent>,
    events_dropped: u64,
    instants: Vec<InstantEvent>,
    instants_dropped: u64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_agg: BTreeMap::new(),
            span_mem: BTreeMap::new(),
            series: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            instants: Vec::new(),
            instants_dropped: 0,
        }
    }
}

/// The global collector behind the free-function API.
pub struct Registry {
    inner: Mutex<Inner>,
}

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry {
        inner: Mutex::new(Inner::new()),
    })
}

/// Locks the registry, recovering from a poisoned lock (a panicking
/// instrumented thread must not take observability down with it).
fn locked() -> MutexGuard<'static, Inner> {
    match global().inner.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True when recording is globally enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables recording. Disabled is the default; every
/// recording entry point reduces to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all recorded data and restarts the timeline epoch. Intended for
/// test isolation and per-cell profiling; spans alive across a reset are
/// recorded with a clamped (zero) start offset.
pub fn reset() {
    let mut inner = locked();
    *inner = Inner::new();
}

/// Adds `delta` to the monotonic counter `name` (created on first use).
/// No-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let mut inner = locked();
    *inner.counters.entry(name).or_insert(0) += delta;
}

/// Records `value` into the log-scale histogram `name` (created on first
/// use). No-op while disabled.
#[inline]
pub fn record_value(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut inner = locked();
    inner.histograms.entry(name).or_default().record(value);
}

/// Appends `(epoch, value)` to the bounded time series `name` (created on
/// first use with [`series::DEFAULT_CAPACITY`]). Decimation keeps memory
/// O(capacity) on arbitrarily long runs; see [`Series`]. No-op while
/// disabled.
#[inline]
pub fn series_record(name: &'static str, epoch: u64, value: f64) {
    if !enabled() {
        return;
    }
    let mut inner = locked();
    inner.series.entry(name).or_default().push(epoch, value);
}

/// Dense 1-based id for the current thread, assigned on first use.
fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// Records a point-in-time marker named `name` at the current timestamp
/// (e.g. an anomaly-detector firing). No-op while disabled.
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let tid = thread_id();
    let now = Instant::now();
    let mut inner = locked();
    let ts = now
        .checked_duration_since(inner.epoch)
        .unwrap_or(Duration::ZERO);
    if inner.instants.len() < MAX_INSTANTS {
        inner.instants.push(InstantEvent {
            name,
            tid,
            ts_us: ts.as_micros() as u64,
        });
    } else {
        inner.instants_dropped += 1;
        *inner
            .counters
            .entry("obs.trace.instants_dropped")
            .or_insert(0) += 1;
    }
}

/// RAII guard for one span occurrence: created by [`span`], records timing
/// on drop. Guards must drop in LIFO order per thread (the natural scoping
/// of `let _g = obs::span(...)`); a mismatched drop is repaired by removing
/// the matching stack entry instead of corrupting sibling paths.
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
    mem: Option<alloc::MemSpanStart>,
}

/// Opens a span named `name` on the current thread, nested under any spans
/// already open on this thread. While disabled this is a single atomic
/// load — no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start: None,
            name,
            mem: None,
        };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
        name,
        mem: Some(alloc::span_enter()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dur = start.elapsed();
        let mem = self.mem.take().map(alloc::span_exit);
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // LIFO in the common case; otherwise drop the most recent
            // matching entry so siblings keep correct paths.
            match stack.iter().rposition(|&n| n == self.name) {
                Some(pos) => {
                    let path = stack[..=pos].join("/");
                    stack.remove(pos);
                    path
                }
                None => self.name.to_string(),
            }
        });
        let tid = thread_id();
        let mut inner = locked();
        let ts = start
            .checked_duration_since(inner.epoch)
            .unwrap_or(Duration::ZERO);
        let agg = inner.span_agg.entry(path.clone()).or_default();
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(dur.as_nanos() as u64);
        if let Some(delta) = mem {
            let m = inner.span_mem.entry(path.clone()).or_default();
            m.allocs += delta.allocs;
            m.bytes += delta.bytes;
            m.peak_live_bytes = m.peak_live_bytes.max(delta.peak_live_bytes);
        }
        if inner.events.len() < MAX_EVENTS {
            inner.events.push(SpanEvent {
                path,
                tid,
                ts_us: ts.as_micros() as u64,
                dur_us: dur.as_micros() as u64,
            });
        } else {
            // Surface the overflow as a counter so reports (not just the
            // summary footer) record that the flame view is truncated.
            inner.events_dropped += 1;
            *inner
                .counters
                .entry("obs.trace.events_dropped")
                .or_insert(0) += 1;
        }
    }
}

/// A point-in-time copy of everything the registry has collected.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span aggregates by `/`-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Per-span allocation aggregates by `/`-joined path.
    pub span_mem: BTreeMap<String, MemStat>,
    /// Bounded time series by name.
    pub series: BTreeMap<String, Series>,
    /// Process-wide allocator counters at snapshot time.
    pub alloc: alloc::AllocStats,
    /// Kernel peak RSS (`VmHWM`, kB) at snapshot time; `None` off-Linux.
    pub peak_rss_kb: Option<u64>,
    /// Raw span events (capped; see `events_dropped`).
    pub events: Vec<SpanEvent>,
    /// Events discarded after the buffer cap was reached.
    pub events_dropped: u64,
    /// Instant markers (capped; see `instants_dropped`).
    pub instants: Vec<InstantEvent>,
    /// Instant markers discarded after the buffer cap was reached.
    pub instants_dropped: u64,
}

impl Snapshot {
    /// Counter total, 0 when never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of span time (milliseconds) over every path whose innermost
    /// name equals `name`, regardless of nesting.
    pub fn span_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            // fold from +0.0: f64's empty Sum identity is -0.0, which would
            // leak a minus sign into reports.
            .fold(0.0, |acc, (_, stat)| acc + stat.total_ms())
    }

    /// Exclusive ("self") time in milliseconds for spans whose leaf is
    /// `name`, relative to a set of `reported` leaves: the total of
    /// `name`-leaf paths minus the totals of nested paths whose leaf is
    /// also reported and whose *nearest* reported ancestor is `name`.
    ///
    /// This is what makes a stage table sum to the whole: each reported
    /// leaf's time is attributed exactly once, to the innermost reported
    /// stage containing it. `name` must itself be in `reported` for the
    /// subtraction to be meaningful (nested occurrences of `name` then
    /// cancel instead of double-counting).
    pub fn span_self_ms(&self, name: &str, reported: &[&str]) -> f64 {
        let mut total = 0.0;
        for (path, stat) in &self.spans {
            let mut segs = path.split('/').rev();
            let Some(leaf) = segs.next() else {
                continue;
            };
            if !reported.contains(&leaf) {
                continue;
            }
            if leaf == name {
                total += stat.total_ms();
            }
            // Nearest reported ancestor, if any, loses this nested time.
            if let Some(ancestor) = segs.find(|s| reported.contains(s)) {
                if ancestor == name {
                    total -= stat.total_ms();
                }
            }
        }
        total
    }

    /// Exclusive allocation calls and bytes for spans whose leaf is
    /// `name`, relative to `reported` leaves — the memory analogue of
    /// [`span_self_ms`](Snapshot::span_self_ms): each reported leaf's
    /// allocations are attributed to the innermost reported stage.
    pub fn span_mem_self(&self, name: &str, reported: &[&str]) -> (i64, i64) {
        let mut allocs = 0i64;
        let mut bytes = 0i64;
        for (path, stat) in &self.span_mem {
            let mut segs = path.split('/').rev();
            let Some(leaf) = segs.next() else {
                continue;
            };
            if !reported.contains(&leaf) {
                continue;
            }
            if leaf == name {
                allocs += stat.allocs as i64;
                bytes += stat.bytes as i64;
            }
            if let Some(ancestor) = segs.find(|s| reported.contains(s)) {
                if ancestor == name {
                    allocs -= stat.allocs as i64;
                    bytes -= stat.bytes as i64;
                }
            }
        }
        (allocs, bytes)
    }

    /// Occurrence count over every path whose innermost name equals
    /// `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, stat)| stat.count)
            .sum()
    }
}

/// Copies out everything collected so far.
pub fn snapshot() -> Snapshot {
    let inner = locked();
    Snapshot {
        counters: inner
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        histograms: inner
            .histograms
            .iter()
            .map(|(&k, v)| (k.to_string(), v.clone()))
            .collect(),
        spans: inner.span_agg.clone(),
        span_mem: inner.span_mem.clone(),
        series: inner
            .series
            .iter()
            .map(|(&k, v)| (k.to_string(), v.clone()))
            .collect(),
        alloc: alloc::stats(),
        peak_rss_kb: alloc::peak_rss_kb(),
        events: inner.events.clone(),
        events_dropped: inner.events_dropped,
        instants: inner.instants.clone(),
        instants_dropped: inner.instants_dropped,
    }
}

/// Renders the human-readable summary tree of the current registry
/// contents (see `sink::render_summary` for the format).
pub fn summary() -> String {
    sink::render_summary(&snapshot())
}

/// Renders the current registry contents as `chrome://tracing`-compatible
/// trace-event JSON.
pub fn chrome_trace() -> String {
    let snap = snapshot();
    let counters: Vec<(String, u64)> = snap.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
    sink::render_chrome_trace_full(&snap.events, &snap.instants, &counters)
}

/// Writes [`chrome_trace`] output to `path`.
pub fn write_chrome_trace(path: &str) -> Result<(), ObsError> {
    atomic_write(path, &chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global; unit tests here stay on pure helpers. The
    // integration suite (tests/obs.rs) serializes global-state tests
    // behind one mutex.

    #[test]
    fn span_event_leaf_is_last_segment() {
        let e = SpanEvent {
            path: "sched.order/lp.solve".into(),
            tid: 1,
            ts_us: 0,
            dur_us: 1,
        };
        assert_eq!(e.leaf(), "lp.solve");
    }

    #[test]
    fn snapshot_accessors_default_to_zero() {
        let s = Snapshot::default();
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.span_total_ms("missing"), 0.0);
        assert_eq!(s.span_count("missing"), 0);
    }

    #[test]
    fn span_stat_total_ms_converts() {
        let s = SpanStat {
            count: 2,
            total_ns: 3_500_000,
        };
        assert!((s.total_ms() - 3.5).abs() < 1e-12);
    }
}
