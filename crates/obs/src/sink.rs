//! Sinks: render collected data as a human-readable summary tree or as
//! `chrome://tracing` / Perfetto-compatible trace-event JSON.

use crate::{InstantEvent, Snapshot, SpanEvent};
use std::fmt::Write as _;

/// JSON string escape (control characters, quotes, backslashes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders trace-event-format JSON from explicit events and counter
/// totals. Pure function of its inputs (no clocks, no globals), so golden
/// tests can pin the exact output. The result is the JSON *object* form
/// (`{"traceEvents": [...]}`), which both `chrome://tracing` and Perfetto
/// accept.
///
/// * each span event becomes a `ph:"X"` complete event (`ts`/`dur` in
///   microseconds, the format's native unit);
/// * each counter becomes one `ph:"C"` counter sample at `ts: 0`;
/// * one `ph:"M"` metadata event names the process.
pub fn render_chrome_trace(events: &[SpanEvent], counters: &[(String, u64)]) -> String {
    render_chrome_trace_full(events, &[], counters)
}

/// [`render_chrome_trace`] plus instant markers: each [`InstantEvent`]
/// becomes a thread-scoped `ph:"i"` event, rendered between the spans and
/// the counters. With no instants the output is byte-identical to
/// [`render_chrome_trace`], so existing golden files remain valid.
pub fn render_chrome_trace_full(
    events: &[SpanEvent],
    instants: &[InstantEvent],
    counters: &[(String, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"coflow-repro\"}}",
    );
    for e in events {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"cat\":\"span\",\"args\":{{\"path\":\"{}\"}}}}",
            e.tid,
            e.ts_us,
            e.dur_us,
            json_escape(e.leaf()),
            json_escape(&e.path),
        );
    }
    for i in instants {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
             \"cat\":\"instant\",\"s\":\"t\"}}",
            i.tid,
            i.ts_us,
            json_escape(i.name),
        );
    }
    for (name, value) in counters {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"{}\",\
             \"args\":{{\"value\":{}}}}}",
            json_escape(name),
            value,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders the summary tree: spans indented by nesting depth with
/// occurrence counts and total wall-clock, then counters, then histogram
/// digests.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        out.push_str("spans (count, total wall-clock):\n");
        // BTreeMap order puts every parent path directly before its
        // children, so indentation by depth renders a tree.
        for (path, stat) in &snap.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "  {:indent$}{:<width$} {:>8}x {:>12.3} ms",
                "",
                name,
                stat.count,
                stat.total_ms(),
                indent = 2 * depth,
                width = 44usize.saturating_sub(2 * depth),
            );
        }
        if snap.events_dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} span events dropped past the buffer cap; totals above remain exact)",
                snap.events_dropped
            );
        }
    }
    if snap.instants_dropped > 0 {
        let _ = writeln!(
            out,
            "  ({} instant markers dropped past the buffer cap)",
            snap.instants_dropped
        );
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {:<46} {:>12}", name, value);
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms (log2 buckets):\n");
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<46} n={} min={} p50<={} max={} mean={:.1}",
                name,
                h.count(),
                h.min().unwrap_or(0),
                h.quantile_upper_bound(0.5).unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean().unwrap_or(0.0),
            );
        }
    }
    if !snap.series.is_empty() {
        out.push_str("series (len/cap, 2x decimations, first -> last):\n");
        for (name, s) in &snap.series {
            let fmt = |p: Option<(u64, f64)>| match p {
                Some((e, v)) => format!("({}, {:.1})", e, v),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<38} {:>4}/{:<4} {:>3}x {} -> {}",
                name,
                s.len(),
                s.capacity(),
                s.decimations(),
                fmt(s.first()),
                fmt(s.last()),
            );
        }
    }
    if snap.alloc.alloc_calls > 0 {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        let _ = writeln!(
            out,
            "memory: live {:.1} MiB, peak live {:.1} MiB, {} allocs{}",
            mb(snap.alloc.live_bytes),
            mb(snap.alloc.peak_live_bytes),
            snap.alloc.alloc_calls,
            snap.peak_rss_kb
                .map(|kb| format!(", peak RSS {:.1} MiB", kb as f64 / 1024.0))
                .unwrap_or_default(),
        );
    }
    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanStat;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_is_deterministic_for_fixed_input() {
        let events = vec![SpanEvent {
            path: "a/b".into(),
            tid: 2,
            ts_us: 10,
            dur_us: 5,
        }];
        let counters = vec![("c.x.y".to_string(), 7u64)];
        let one = render_chrome_trace(&events, &counters);
        let two = render_chrome_trace(&events, &counters);
        assert_eq!(one, two);
        assert!(one.contains("\"ph\":\"X\""));
        assert!(one.contains("\"name\":\"b\""));
        assert!(one.contains("\"path\":\"a/b\""));
        assert!(one.contains("\"ph\":\"C\""));
    }

    #[test]
    fn full_trace_renders_instants_and_degenerates_without_them() {
        let events = vec![SpanEvent {
            path: "a".into(),
            tid: 1,
            ts_us: 0,
            dur_us: 2,
        }];
        let counters = vec![("c".to_string(), 1u64)];
        let instants = vec![InstantEvent {
            name: "diag.anomaly.starvation",
            tid: 3,
            ts_us: 42,
        }];
        let with = render_chrome_trace_full(&events, &instants, &counters);
        assert!(with.contains("\"ph\":\"i\""));
        assert!(with.contains("\"name\":\"diag.anomaly.starvation\""));
        assert!(with.contains("\"ts\":42"));
        // Empty instants must reproduce the legacy renderer byte-for-byte
        // (the chrome-trace golden file depends on this).
        assert_eq!(
            render_chrome_trace_full(&events, &[], &counters),
            render_chrome_trace(&events, &counters),
        );
    }

    #[test]
    fn summary_indents_nested_spans() {
        let mut snap = Snapshot::default();
        snap.spans.insert(
            "outer".into(),
            SpanStat {
                count: 1,
                total_ns: 2_000_000,
            },
        );
        snap.spans.insert(
            "outer/inner".into(),
            SpanStat {
                count: 3,
                total_ns: 1_000_000,
            },
        );
        let s = render_summary(&snap);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].trim_start().starts_with("outer"));
        assert!(lines[2].starts_with("    inner") || lines[2].trim_start().starts_with("inner"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert!(render_summary(&Snapshot::default()).contains("no observability data"));
    }
}
