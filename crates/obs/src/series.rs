//! Bounded per-epoch time series with deterministic 2× decimation.
//!
//! A [`Series`] holds `(epoch, value)` samples in push order under a fixed
//! capacity. When a push would exceed the capacity, every odd-indexed
//! sample is discarded (keeping indices 0, 2, 4, …) before the new sample
//! is appended. The result:
//!
//! * memory stays O(capacity) no matter how many epochs are pushed —
//!   a 10⁶-epoch run with the default capacity keeps ≤ 512 samples;
//! * the **first** sample is always retained (index 0 survives every
//!   decimation) and the **last** push is always present (it is appended
//!   after the thinning);
//! * sampling stays uniform-ish: after `d` decimations the retained
//!   samples are ~`2^d` pushes apart, so the series is a progressively
//!   coarser but evenly spaced sketch of the full run;
//! * the process is deterministic — no clocks, no randomness — so two
//!   identical runs produce identical series.
//!
//! Pushes with an epoch smaller than the last retained epoch are dropped
//! (series are per-run and epochs only move forward; a rewind indicates a
//! harness bug, not data). Equal epochs are allowed so multiple policies
//! can report at the same decision slot.

/// Default capacity for registry-managed series (see `obs::series_record`).
pub const DEFAULT_CAPACITY: usize = 512;

/// A bounded, monotonically indexed time series.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    cap: usize,
    decimations: u32,
    samples: Vec<(u64, f64)>,
}

impl Default for Series {
    fn default() -> Self {
        Series::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Series {
    /// Creates an empty series holding at most `cap` samples (min 2, so
    /// first and last can always coexist).
    pub fn with_capacity(cap: usize) -> Self {
        Series {
            cap: cap.max(2),
            decimations: 0,
            samples: Vec::new(),
        }
    }

    /// Appends a sample, decimating 2× first if the series is full.
    /// Samples with `epoch` older than the newest retained sample are
    /// ignored.
    pub fn push(&mut self, epoch: u64, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            if epoch < last {
                return;
            }
        }
        if self.samples.len() >= self.cap {
            let mut idx = 0usize;
            self.samples.retain(|_| {
                let keep = idx.is_multiple_of(2);
                idx += 1;
                keep
            });
            self.decimations += 1;
        }
        self.samples.push((epoch, value));
    }

    /// Retained samples in epoch order.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many 2× thinning passes have run; retained samples are roughly
    /// `2^decimations` pushes apart.
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Oldest retained sample (the first ever accepted push).
    pub fn first(&self) -> Option<(u64, f64)> {
        self.samples.first().copied()
    }

    /// Newest retained sample (the last accepted push).
    pub fn last(&self) -> Option<(u64, f64)> {
        self.samples.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_never_exceeded() {
        let mut s = Series::with_capacity(8);
        for e in 0..10_000u64 {
            s.push(e, e as f64);
            assert!(s.len() <= 8);
        }
        assert!(s.decimations() > 0);
    }

    #[test]
    fn first_and_last_survive_decimation() {
        let mut s = Series::with_capacity(4);
        for e in 0..1000u64 {
            s.push(e, e as f64 * 2.0);
            assert_eq!(s.first(), Some((0, 0.0)));
            assert_eq!(s.last(), Some((e, e as f64 * 2.0)));
        }
    }

    #[test]
    fn epochs_stay_nondecreasing_and_rewinds_drop() {
        let mut s = Series::with_capacity(16);
        s.push(5, 1.0);
        s.push(3, 9.0); // rewind: dropped
        s.push(5, 2.0); // equal epoch: kept
        s.push(7, 3.0);
        assert_eq!(s.samples(), &[(5, 1.0), (5, 2.0), (7, 3.0)]);
    }

    #[test]
    fn minimum_capacity_is_two() {
        let mut s = Series::with_capacity(0);
        assert_eq!(s.capacity(), 2);
        for e in 0..100 {
            s.push(e, 0.0);
        }
        assert_eq!(s.first().map(|(e, _)| e), Some(0));
        assert_eq!(s.last().map(|(e, _)| e), Some(99));
    }
}
