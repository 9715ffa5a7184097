//! Histograms for latency/size distributions.

use serde::{Deserialize, Serialize};

use crate::state::StateWalk;

/// Bucketing strategy for a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Buckets {
    /// Fixed-width buckets `[lo, lo+w), [lo+w, lo+2w), …` with `count`
    /// buckets; samples outside the range land in saturated edge buckets.
    Linear { lo: u64, width: u64, count: usize },
    /// Power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))`, with bucket
    /// 0 covering `[0, 2)`. 64 buckets cover all of `u64`.
    Log2,
}

/// A histogram of `u64` samples with exact count/sum/min/max and
/// approximate percentiles (bucket resolution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Buckets,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create an empty histogram with the given bucketing.
    pub fn new(buckets: Buckets) -> Self {
        let n = match buckets {
            Buckets::Linear { count, .. } => {
                assert!(count > 0, "linear histogram needs at least one bucket");
                count
            }
            Buckets::Log2 => 64,
        };
        Histogram {
            buckets,
            counts: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A log₂-bucketed histogram (good default for latencies).
    pub fn log2() -> Self {
        Histogram::new(Buckets::Log2)
    }

    /// A linear histogram over `[lo, lo + width*count)`.
    pub fn linear(lo: u64, width: u64, count: usize) -> Self {
        assert!(width > 0, "bucket width must be positive");
        Histogram::new(Buckets::Linear { lo, width, count })
    }

    fn bucket_index(&self, v: u64) -> usize {
        match self.buckets {
            Buckets::Linear { lo, width, count } => {
                let idx = v.saturating_sub(lo) / width;
                (idx as usize).min(count - 1)
            }
            Buckets::Log2 => {
                if v < 2 {
                    0
                } else {
                    (63 - v.leading_zeros()) as usize
                }
            }
        }
    }

    /// Lower bound of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> u64 {
        match self.buckets {
            Buckets::Linear { lo, width, .. } => lo + width * i as u64,
            Buckets::Log2 => {
                if i == 0 {
                    0
                } else {
                    1u64 << i
                }
            }
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = self.bucket_index(v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.bucket_index(v);
        self.counts[i] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate percentile `p` in `[0, 100]`: the lower bound of the
    /// bucket containing the p-th sample. Exact for min/max via the tracked
    /// extrema. Out-of-range `p` clamps to the extrema; a NaN `p` is a
    /// caller bug and yields `None` (it would otherwise cast to rank 0 and
    /// silently masquerade as the minimum).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 || p.is_nan() {
            return None;
        }
        if p <= 0.0 {
            return Some(self.min);
        }
        if p >= 100.0 {
            return Some(self.max);
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_lo(i).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Iterate non-empty buckets as `(bucket_lo, count)`.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_lo(i), c))
    }

    /// Walk the sample state for a checkpoint:
    /// `[5 + n_buckets, count, sum, min, max, n_buckets, counts…]`. The
    /// bucketing strategy itself is not encoded — a restore walks into a
    /// histogram built with the same constructor, and a record of another
    /// shape is refused.
    pub fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        let buckets = self.counts.len() as u64;
        let (mut len, mut n) = (5 + buckets, buckets);
        w.field("the histogram length", &mut len)?;
        w.field("the histogram count", &mut self.count)?;
        w.field("the histogram sum", &mut self.sum)?;
        w.field("the histogram minimum", &mut self.min)?;
        w.field("the histogram maximum", &mut self.max)?;
        w.field("the histogram bucket count", &mut n)?;
        if (len, n) != (5 + buckets, buckets) {
            return Err(format!(
                "a {n}-bucket histogram record does not fit this {buckets}-bucket histogram"
            ));
        }
        for c in &mut self.counts {
            w.field("a histogram bucket", c)?;
        }
        Ok(())
    }

    /// Merge another histogram with identical bucketing. Panics on mismatch.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets, other.buckets, "histogram bucketing mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_boundaries() {
        let h = Histogram::log2();
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(1), 0);
        assert_eq!(h.bucket_index(2), 1);
        assert_eq!(h.bucket_index(3), 1);
        assert_eq!(h.bucket_index(4), 2);
        assert_eq!(h.bucket_index(1023), 9);
        assert_eq!(h.bucket_index(1024), 10);
        assert_eq!(h.bucket_index(u64::MAX), 63);
    }

    #[test]
    fn linear_buckets_saturate_at_edges() {
        let h = Histogram::linear(10, 5, 4); // [10,15) [15,20) [20,25) [25,..)
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(12), 0);
        assert_eq!(h.bucket_index(17), 1);
        assert_eq!(h.bucket_index(24), 2);
        assert_eq!(h.bucket_index(1000), 3);
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut h = Histogram::log2();
        for v in [5u64, 10, 15, 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 50);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(20));
        assert_eq!(h.mean(), Some(12.5));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::log2();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn percentiles_hit_the_right_buckets() {
        let mut h = Histogram::linear(0, 10, 10);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(99));
        // The 50th sample of 0..100 is value 49, in the [40,50) bucket.
        assert_eq!(h.percentile(50.0), Some(40));
        assert_eq!(h.percentile(95.0), Some(90));
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every p — including the extremes and garbage — is None.
        let empty = Histogram::log2();
        for p in [f64::NAN, -1.0, 0.0, 50.0, 100.0, 101.0] {
            assert_eq!(empty.percentile(p), None);
        }

        let mut h = Histogram::linear(0, 10, 10);
        for v in [3u64, 42, 97] {
            h.record(v);
        }
        // The extremes are exact (tracked extrema, not bucket bounds).
        assert_eq!(h.percentile(0.0), Some(3));
        assert_eq!(h.percentile(100.0), Some(97));
        // Out-of-range p clamps to the extrema rather than panicking.
        assert_eq!(h.percentile(-5.0), Some(3));
        assert_eq!(h.percentile(250.0), Some(97));
        assert_eq!(h.percentile(f64::NEG_INFINITY), Some(3));
        assert_eq!(h.percentile(f64::INFINITY), Some(97));
        // NaN is a caller bug, reported as None — not silently the min.
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::log2();
        let mut b = Histogram::log2();
        for _ in 0..7 {
            a.record(100);
        }
        b.record_n(100, 7);
        assert_eq!(a, b);
        b.record_n(5, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::log2();
        a.record(1);
        a.record(100);
        let mut b = Histogram::log2();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    #[should_panic(expected = "bucketing mismatch")]
    fn merge_rejects_different_bucketing() {
        let mut a = Histogram::log2();
        let b = Histogram::linear(0, 1, 2);
        a.merge(&b);
    }

    #[test]
    fn iter_nonempty_skips_zero_buckets() {
        let mut h = Histogram::log2();
        h.record(3);
        h.record(3);
        h.record(1000);
        let v: Vec<_> = h.iter_nonempty().collect();
        assert_eq!(v, vec![(2, 2), (512, 1)]);
    }
}
