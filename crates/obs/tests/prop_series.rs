//! Property-based verification of the bounded per-epoch time series:
//!
//! * the buffer never exceeds its capacity, no matter how many samples a
//!   run pushes;
//! * decimation is **endpoint-preserving**: the first sample ever pushed
//!   and the most recent sample always survive, so a dashboard reading a
//!   decimated series still sees the true start and the live edge;
//! * retained epochs are non-decreasing (pushes that rewind time are
//!   dropped at the door), and every retained sample is one that was
//!   actually pushed — decimation thins, it never invents;
//! * the decimation counter matches the work done: after `d` decimations
//!   a series has dropped samples in powers of two, so
//!   `len <= capacity` and `d == 0` iff nothing was ever thinned.

use obs::Series;
use proptest::prelude::*;

/// Pushes `epochs` (already non-decreasing) into a fresh series of the
/// given capacity and returns it with the pushed (epoch, value) pairs.
fn fill(cap: usize, epochs: &[u64]) -> (Series, Vec<(u64, f64)>) {
    let mut s = Series::with_capacity(cap);
    let mut pushed = Vec::new();
    for (i, &e) in epochs.iter().enumerate() {
        let v = i as f64 * 0.5;
        s.push(e, v);
        pushed.push((e, v));
    }
    (s, pushed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capacity_is_never_exceeded_and_endpoints_survive(
        cap in 2usize..40,
        n in 1usize..2000,
        stride in 1u64..5,
    ) {
        let epochs: Vec<u64> = (0..n as u64).map(|i| i * stride).collect();
        let (s, pushed) = fill(cap, &epochs);
        prop_assert!(s.len() <= s.capacity());
        prop_assert_eq!(s.first(), Some(pushed[0]));
        prop_assert_eq!(s.last(), Some(*pushed.last().unwrap()));
        // Every retained sample was actually pushed, in order.
        let mut cursor = 0usize;
        for &(e, v) in s.samples() {
            let pos = pushed[cursor..]
                .iter()
                .position(|&(pe, pv)| pe == e && pv == v);
            prop_assert!(pos.is_some(), "sample ({}, {}) was never pushed", e, v);
            cursor += pos.unwrap() + 1;
        }
        prop_assert_eq!(s.decimations() == 0, n <= s.capacity());
    }

    #[test]
    fn retained_epochs_are_monotone(
        cap in 2usize..24,
        seed in 0u64..1u64 << 32,
        n in 1usize..600,
    ) {
        // Seeded epoch walk with occasional rewinds (which push drops)
        // and repeats (which it keeps).
        let mut state = seed | 1;
        let mut epoch = 0u64;
        let mut s = Series::with_capacity(cap);
        let mut kept = 0usize;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state >> 60 {
                0 => epoch = epoch.saturating_sub(1 + (state >> 32) % 7), // rewind
                1 => {}                                                   // repeat
                _ => epoch += 1 + (state >> 32) % 5,
            }
            let before = s.last();
            s.push(epoch, kept as f64);
            if before.is_none_or(|(last, _)| epoch >= last) {
                kept += 1;
            } else {
                // A rewound push must be dropped outright.
                prop_assert_eq!(s.last(), before);
            }
        }
        for w in s.samples().windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "epochs rewound: {} > {}", w[0].0, w[1].0);
        }
        prop_assert!(s.len() <= s.capacity());
    }
}
