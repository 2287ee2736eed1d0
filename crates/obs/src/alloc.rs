//! Counting global allocator and peak-RSS sampling.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and maintains four global
//! relaxed atomics: allocation calls, cumulative allocated bytes, live
//! bytes, and the high-water mark of live bytes. These are *always on* —
//! the cost is a handful of relaxed atomic ops per malloc, which is noise
//! next to the allocator itself — so memory numbers are available even for
//! runs that never enable the registry.
//!
//! Per-span attribution is opt-in: when [`crate::enabled`] is true, each
//! allocation also bumps thread-local counters, and [`crate::SpanGuard`]
//! captures deltas of those counters across the span's lifetime (see
//! `span_enter`/`span_exit`). Thread-locals are accessed with
//! `try_with` so allocations during TLS initialization or teardown never
//! recurse or abort.
//!
//! [`peak_rss_kb`] reads `VmHWM` from `/proc/self/status` — the kernel's
//! view of peak resident set size, which also covers memory the counting
//! allocator cannot see (stacks, mmaps, code). On non-Linux targets it
//! returns `None` and reports degrade gracefully to the allocator view.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `ALLOC_BYTES - FREED_BYTES`, maintained with
/// `fetch_max` after every allocation. Reset (to current live) by
/// [`reset_peak`] for per-window measurements.
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread attribution counters, only advanced while the registry is
    // enabled. const-initialized Cells: no allocation on first touch, so
    // the allocator hooks cannot recurse through TLS initialization.
    static TL_CALLS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Running max of global live bytes observed from this thread's
    /// allocations; saved/reset/restored around spans so each span sees
    /// the peak reached *during* it.
    static TL_PEAK: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let total = ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    let live = total.saturating_sub(FREED_BYTES.load(Ordering::Relaxed));
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    if crate::enabled() {
        let _ = TL_CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = TL_BYTES.try_with(|c| c.set(c.get() + size as u64));
        let _ = TL_PEAK.try_with(|c| {
            if live > c.get() {
                c.set(live);
            }
        });
    }
}

#[inline]
fn on_dealloc(size: usize) {
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// Counting wrapper around the system allocator. Installed workspace-wide
/// as the `#[global_allocator]` by this crate's root.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the bookkeeping
// only touches atomics and const-init thread-locals (no allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounted as free(old) + alloc(new): live bytes track the
            // resized block exactly, and the call counter counts one event.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Point-in-time allocator counters (process-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation events since process start (reallocs count 1).
    pub alloc_calls: u64,
    /// Cumulative bytes ever allocated.
    pub alloc_bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of live bytes since start or [`reset_peak`].
    pub peak_live_bytes: u64,
}

/// Reads the current allocator counters.
pub fn stats() -> AllocStats {
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    let freed = FREED_BYTES.load(Ordering::Relaxed);
    AllocStats {
        alloc_calls: ALLOC_CALLS.load(Ordering::Relaxed),
        alloc_bytes,
        live_bytes: alloc_bytes.saturating_sub(freed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
    }
}

/// Restarts the live-bytes high-water mark at the current live level, so
/// the next [`stats`] reports the peak of the window that starts now.
/// Used by the profile harness between grid cells.
pub fn reset_peak() {
    let live = stats().live_bytes;
    PEAK_LIVE.store(live, Ordering::Relaxed);
    // Keep subsequent span windows consistent with the new baseline.
    let _ = TL_PEAK.try_with(|c| c.set(live));
}

/// Thread-local counter values captured at span entry; consumed by
/// [`span_exit`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemSpanStart {
    calls: u64,
    bytes: u64,
    /// The enclosing window's running peak, restored (merged) on exit.
    saved_peak: u64,
}

/// Allocation deltas attributed to one span occurrence.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MemDelta {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Opens a per-thread attribution window: snapshots the thread counters
/// and restarts the thread-peak at the current live level.
pub(crate) fn span_enter() -> MemSpanStart {
    let live = stats().live_bytes;
    MemSpanStart {
        calls: TL_CALLS.try_with(Cell::get).unwrap_or(0),
        bytes: TL_BYTES.try_with(Cell::get).unwrap_or(0),
        saved_peak: TL_PEAK
            .try_with(|c| {
                let saved = c.get();
                c.set(live);
                saved
            })
            .unwrap_or(0),
    }
}

/// Closes the window opened by [`span_enter`]: returns the deltas and
/// merges the window's peak back into the enclosing window.
pub(crate) fn span_exit(start: MemSpanStart) -> MemDelta {
    let calls = TL_CALLS.try_with(Cell::get).unwrap_or(start.calls);
    let bytes = TL_BYTES.try_with(Cell::get).unwrap_or(start.bytes);
    let observed = TL_PEAK
        .try_with(|c| {
            let observed = c.get();
            c.set(observed.max(start.saved_peak));
            observed
        })
        .unwrap_or(0);
    MemDelta {
        allocs: calls.saturating_sub(start.calls),
        bytes: bytes.saturating_sub(start.bytes),
        peak_live_bytes: observed,
    }
}

/// Peak resident set size in kilobytes, from `/proc/self/status` `VmHWM`.
/// `None` when the proc file is unavailable (non-Linux, sandboxes).
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm_kb(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts the `VmHWM` value (kB) from `/proc/self/status` contents.
#[allow(dead_code)] // only called on linux; tested everywhere
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t  4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn counting_allocator_observes_allocations() {
        let before = stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let mid = stats();
        assert!(mid.alloc_calls > before.alloc_calls);
        assert!(mid.alloc_bytes >= before.alloc_bytes + (1 << 16));
        assert!(mid.peak_live_bytes >= mid.live_bytes);
        drop(v);
        let after = stats();
        assert!(after.live_bytes <= mid.live_bytes);
    }

    #[test]
    fn peak_rss_is_present_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM readable on linux");
            assert!(kb > 0);
        } else {
            assert_eq!(peak_rss_kb(), None);
        }
    }
}
