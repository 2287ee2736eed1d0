//! Integration tests for the global observability registry.
//!
//! The registry is process-global and the libtest harness runs tests on
//! parallel threads, so every test touching global state serializes behind
//! `lock()` and starts from `obs::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Serialized test prologue: exclusive registry access, clean slate,
/// recording on.
fn isolated() -> MutexGuard<'static, ()> {
    let guard = lock();
    obs::reset();
    obs::set_enabled(true);
    guard
}

#[test]
fn disabled_recording_is_a_no_op() {
    let _g = isolated();
    obs::set_enabled(false);
    obs::counter_add("test.disabled.counter", 5);
    obs::record_value("test.disabled.hist", 5);
    {
        let _s = obs::span("test.disabled.span");
    }
    let snap = obs::snapshot();
    assert_eq!(snap.counter("test.disabled.counter"), 0);
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
}

#[test]
fn counters_accumulate_and_reset_clears() {
    let _g = isolated();
    obs::counter_add("test.c", 3);
    obs::counter_add("test.c", 4);
    obs::record_value("test.h", 9);
    assert_eq!(obs::snapshot().counter("test.c"), 7);

    // Registry reset between tests: everything is dropped, including the
    // timeline epoch (fresh spans start near ts 0 again).
    obs::reset();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("test.c"), 0);
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
    assert!(snap.events.is_empty());
    obs::set_enabled(false);
}

#[test]
fn histogram_bucket_boundaries_are_exact() {
    let _g = isolated();
    // One sample per interesting boundary: 0 | 1 | [2,3] | [4,7] | [8,15].
    for v in [0u64, 1, 2, 3, 4, 7, 8, 15, 16] {
        obs::record_value("test.buckets", v);
    }
    let snap = obs::snapshot();
    let h = &snap.histograms["test.buckets"];
    let counts = h.bucket_counts();
    assert_eq!(counts[0], 1); // 0
    assert_eq!(counts[1], 1); // 1
    assert_eq!(counts[2], 2); // 2, 3
    assert_eq!(counts[3], 2); // 4, 7
    assert_eq!(counts[4], 2); // 8, 15
    assert_eq!(counts[5], 1); // 16
    assert_eq!(h.count(), 9);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(16));
    obs::set_enabled(false);
}

#[test]
fn nested_spans_build_slash_paths() {
    let _g = isolated();
    {
        let _outer = obs::span("test.outer");
        {
            let _inner = obs::span("test.inner");
        }
        {
            let _inner = obs::span("test.inner");
        }
    }
    let snap = obs::snapshot();
    assert_eq!(snap.spans["test.outer"].count, 1);
    assert_eq!(snap.spans["test.outer/test.inner"].count, 2);
    assert_eq!(snap.span_count("test.inner"), 2);
    // Parent total covers its children.
    assert!(
        snap.spans["test.outer"].total_ns >= snap.spans["test.outer/test.inner"].total_ns,
        "outer span must enclose inner time"
    );
    obs::set_enabled(false);
}

#[test]
fn reentrant_same_name_spans_nest() {
    let _g = isolated();
    {
        let _a = obs::span("test.re");
        {
            let _b = obs::span("test.re");
        }
    }
    let snap = obs::snapshot();
    assert_eq!(snap.spans["test.re"].count, 1);
    assert_eq!(snap.spans["test.re/test.re"].count, 1);
    obs::set_enabled(false);
}

#[test]
fn span_nesting_survives_rayon_parallelism() {
    use rayon::prelude::*;

    let _g = isolated();
    let items: Vec<usize> = (0..64).collect();
    let sums: Vec<u64> = items
        .par_iter()
        .map(|&i| {
            let _outer = obs::span("test.par.outer");
            obs::counter_add("test.par.items", 1);
            let _inner = obs::span("test.par.inner");
            (0..=i as u64).sum::<u64>()
        })
        .collect();
    assert_eq!(sums.len(), 64);

    let snap = obs::snapshot();
    assert_eq!(snap.counter("test.par.items"), 64);
    assert_eq!(snap.span_count("test.par.outer"), 64);
    assert_eq!(snap.span_count("test.par.inner"), 64);
    // Thread-local stacks must keep paths clean: the only path containing
    // the inner span is outer/inner, never a cross-thread interleaving.
    for path in snap.spans.keys() {
        if path.contains("test.par.inner") {
            assert_eq!(path, "test.par.outer/test.par.inner");
        }
    }
    // Events carry per-thread ids from the dense allocator.
    for e in &snap.events {
        assert!(e.tid >= 1);
    }
    obs::set_enabled(false);
}

#[test]
fn chrome_trace_sink_matches_golden_file() {
    // Pure-renderer test: fixed events, no clocks, exact output pinned.
    let events = vec![
        obs::SpanEvent {
            path: "sched.order".to_string(),
            tid: 1,
            ts_us: 0,
            dur_us: 120,
        },
        obs::SpanEvent {
            path: "sched.order/lp.solve".to_string(),
            tid: 1,
            ts_us: 10,
            dur_us: 100,
        },
        obs::SpanEvent {
            path: "netsim.validate".to_string(),
            tid: 2,
            ts_us: 150,
            dur_us: 40,
        },
    ];
    let counters = vec![
        ("lp.simplex.pivots".to_string(), 42u64),
        ("matching.bvn.permutations".to_string(), 7u64),
    ];
    let rendered = obs::render_chrome_trace(&events, &counters);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/chrome_trace.json"
            ),
            &rendered,
        )
        .unwrap();
    }
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(
        rendered, golden,
        "chrome-trace output drifted from the golden file; \
         run with GOLDEN_UPDATE=1 to regenerate intentionally"
    );
}

#[test]
fn write_chrome_trace_reports_io_errors() {
    let _g = isolated();
    let err = obs::write_chrome_trace("/nonexistent-dir/trace.json").unwrap_err();
    match err {
        obs::ObsError::Io { path, .. } => assert_eq!(path, "/nonexistent-dir/trace.json"),
        other => panic!("expected an I/O error, got {}", other),
    }
    obs::set_enabled(false);
}
