//! Host-speed calibration for end-to-end timings.
//!
//! On a shared host the same schedule can take up to 1.6× longer while a
//! neighbour competes for the physical core, in phases lasting from a
//! second to minutes — long enough to shift a whole run. Each timed region
//! of an end-to-end run is therefore bracketed by a fixed integer kernel
//! that lives in this crate, so no change to the library can move it, and
//! the timing is reported at reference speed:
//! `reported = measured × REFERENCE_PROBE_MS / probe`.

use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host — a 2-core x86-64 KVM guest on a
/// 4th-generation Xeon — when no neighbour competes for the core.
pub const REFERENCE_PROBE_MS: f64 = 0.175;

/// Times the probe kernel once: 200k steps of a linear congruential
/// generator scattering adds over a 32 KiB table, about 0.2 ms.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 4096];
    let mut x: u64 = 1;
    for i in 0..black_box(200_000u64) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let slot = (x >> 52) as usize;
        table[slot] = table[slot].wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two probes. Returns its result and the host slowdown
/// while it ran: the mean probe time over [`REFERENCE_PROBE_MS`].
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ms();
    let out = f();
    let after = probe_ms();
    (out, (before + after) / 2.0 / REFERENCE_PROBE_MS)
}
