//! Log-scale (power-of-two) histograms for `u64` samples.
//!
//! Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i − 1]`. With 65 buckets the full `u64` range is covered,
//! so recording never saturates or clamps.

/// Number of buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// A fixed-size log₂ histogram with exact count/sum/min/max side stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for `value`: 0 for 0, else `floor(log2(value)) + 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (index - 1);
        let hi = if index == 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        };
        (lo, hi)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket sample counts.
    pub fn bucket_counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// `q` (0 < q ≤ 1) of all samples — a log₂-resolution quantile.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_are_inclusive_and_contiguous() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
        for i in 1..NUM_BUCKETS {
            let (lo, _) = bucket_bounds(i);
            let (_, prev_hi) = bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "gap between buckets {} and {}", i - 1, i);
        }
    }

    #[test]
    fn side_stats_track_exact_values() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), None);
        for v in [5u64, 0, 17, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 25);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(17));
        assert_eq!(h.mean(), Some(6.25));
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000); // bucket [512, 1023]
        assert_eq!(h.quantile_upper_bound(0.5), Some(1));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1000)); // capped at max
    }
}
