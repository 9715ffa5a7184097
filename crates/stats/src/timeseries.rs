//! Sampled time series for run-time visualisation of simulation progress.

use serde::{Deserialize, Serialize};

/// A `(time, value)` series sampled during a simulation run. Time is in
/// picoseconds of virtual time (matching `pearl::Time`), values are `f64`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Series name (used as the CSV column header).
    pub name: String,
    samples: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Append a sample. Time must be non-decreasing; out-of-order samples
    /// panic (simulators observe in virtual-time order by construction).
    pub fn push(&mut self, time_ps: u64, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time_ps >= last, "time series sample out of order");
        }
        self.samples.push((time_ps, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples as `(time_ps, value)` pairs.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Last sample value, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.samples.last().copied()
    }

    /// Minimum and maximum value over the series.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, v) in &self.samples {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Downsample to at most `max_points` by keeping every k-th sample
    /// (always keeps the last). Used before rendering large runs.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        assert!(max_points >= 2, "need at least two points");
        if self.samples.len() <= max_points {
            return self.clone();
        }
        let stride = self.samples.len().div_ceil(max_points);
        let mut out = TimeSeries::new(self.name.clone());
        for (i, &(t, v)) in self.samples.iter().enumerate() {
            if i % stride == 0 {
                out.samples.push((t, v));
            }
        }
        if out.samples.last() != self.samples.last() {
            out.samples.push(*self.samples.last().unwrap());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("s");
        for &(t, v) in pts {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_and_inspect() {
        let s = series(&[(0, 1.0), (10, 2.0), (20, 4.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((20, 4.0)));
        assert_eq!(s.value_range(), Some((1.0, 4.0)));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_samples_panic() {
        let mut s = TimeSeries::new("s");
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn empty_series_answers_none_everywhere() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.last(), None);
        assert_eq!(s.value_range(), None);
        assert_eq!(s.downsample(2), s);
    }

    #[test]
    fn single_sample_series() {
        let s = series(&[(100, 7.0)]);
        assert_eq!(s.value_range(), Some((7.0, 7.0)));
        assert_eq!(s.downsample(2), s);
    }

    #[test]
    fn equal_timestamps_are_accepted_as_nondecreasing() {
        let mut s = TimeSeries::new("s");
        s.push(10, 1.0);
        s.push(10, 2.0);
        s.push(10, 3.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((10, 3.0)));
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new("s");
        for i in 0..1000u64 {
            s.push(i, i as f64);
        }
        let d = s.downsample(10);
        assert!(d.len() <= 11);
        assert_eq!(d.samples().first(), Some(&(0, 0.0)));
        assert_eq!(d.samples().last(), Some(&(999, 999.0)));
        // Small series pass through unchanged.
        let small = series(&[(0, 1.0), (1, 2.0)]);
        assert_eq!(small.downsample(10), small);
    }
}
