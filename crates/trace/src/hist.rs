//! Fixed-size log2-bucketed latency histogram.
//!
//! Bucket `i` holds observations whose picosecond value has bit length `i`,
//! i.e. bucket 0 is exactly 0 ps, bucket 1 is 1 ps, bucket 2 is 2..=3 ps,
//! and bucket `i` covers `2^(i-1) ..= 2^i - 1` ps. 65 buckets cover the full
//! `u64` range, so recording is a bit-length computation and one array
//! increment — no allocation, no branches on magnitude.

use babol_sim::SimDuration;

/// Number of buckets: one per possible `u64` bit length (0..=64).
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of [`SimDuration`] observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ps: u128,
    max_ps: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }

    #[inline]
    pub(crate) fn bucket_of(ps: u64) -> usize {
        (u64::BITS - ps.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_picos();
        self.buckets[Self::bucket_of(ps)] += 1;
        self.count += 1;
        self.sum_ps += u128::from(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest observation seen.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_picos(self.max_ps)
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_picos((self.sum_ps / u128::from(self.count)) as u64)
    }

    /// Approximate percentile (0.0..=100.0): the upper bound of the bucket
    /// containing the p-th observation, clamped to the observed maximum.
    /// Log2 buckets bound the error to 2x, which is plenty to distinguish
    /// a 3 µs scheduler stall from a 60 µs tR.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return SimDuration::from_picos(upper.min(self.max_ps));
            }
        }
        self.max()
    }

    /// Folds `other` into `self`: bucket counts, observation count and sum
    /// add; the maximum takes the larger of the two. Merging histograms is
    /// exactly equivalent to having recorded every observation into one
    /// histogram (the property test in `tests/properties.rs` checks this),
    /// which is what lets per-LUN phase histograms aggregate per-channel
    /// and per-system without re-walking the trace.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Raw bucket counts (index = bit length of the picosecond value).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Sum of all observations, picoseconds (exported alongside the raw
    /// buckets so a parsed histogram preserves the exact mean).
    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    /// Loads one raw bucket count (parser support for the metrics
    /// sidecar). Errors when the index is out of range.
    pub(crate) fn load_bucket(&mut self, idx: usize, n: u64) -> Result<(), ()> {
        if idx >= BUCKETS {
            return Err(());
        }
        self.buckets[idx] += n;
        Ok(())
    }

    /// Loads the summary fields after [`Histogram::load_bucket`] calls,
    /// cross-checking that the bucket counts add up to `count` and that an
    /// empty histogram has a zero sum and maximum.
    pub(crate) fn load_summary(&mut self, count: u64, sum_ps: u128, max_ps: u64) -> Result<(), ()> {
        if self.buckets.iter().sum::<u64>() != count || (count == 0 && (sum_ps, max_ps) != (0, 0)) {
            return Err(());
        }
        self.count = count;
        self.sum_ps = sum_ps;
        self.max_ps = max_ps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimDuration {
        SimDuration::from_picos(v)
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn count_sum_max_mean() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        for v in [10, 20, 30] {
            h.record(ps(v));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), ps(30));
        assert_eq!(h.mean(), ps(20));
    }

    #[test]
    fn percentile_is_within_2x_and_clamped() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(ps(v));
        }
        let p50 = h.percentile(50.0).as_picos();
        // True p50 = 500; bucket upper bound for 500 is 511.
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        // p100 clamps to the observed max, not the bucket bound (1023).
        assert_eq!(h.percentile(100.0), ps(1000));
        assert_eq!(Histogram::new().percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn merge_matches_direct_recording() {
        let (mut a, mut b, mut direct) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            a.record(ps(v));
            direct.record(ps(v));
        }
        for v in [3u64, 9, 1 << 40] {
            b.record(ps(v));
            direct.record(ps(v));
        }
        a.merge(&b);
        assert_eq!(a.buckets(), direct.buckets());
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.mean(), direct.mean());
        assert_eq!(a.max(), direct.max());
    }

    #[test]
    fn percentile_single_value() {
        let mut h = Histogram::new();
        h.record(ps(777));
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), ps(777));
        }
    }
}
