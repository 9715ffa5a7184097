//! Order statistics of a handful of timed passes.

use crate::json::Json;

/// Median, quartiles and range of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Summary {
            n: v.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// How loosely the samples pin down a headline `value` taken from
    /// them, as a share of it: for a value inside the quartiles (a median)
    /// the spread; for one outside (a fastest pass, a best rate) its
    /// distance to the nearest quartile — a fastest pass that no other
    /// pass comes near is not a floor anyone has confirmed.
    pub fn noise_of(&self, value: f64) -> f64 {
        if value == 0.0 {
            0.0
        } else if value < self.q1 {
            (self.q1 - value) / value.abs()
        } else if value > self.q3 {
            (value - self.q3) / value.abs()
        } else {
            self.spread()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k)?.as_f64();
        Some(Summary {
            n: f("n")? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// The three cut points Python's `statistics.quantiles(v, n=4)` returns
/// (its default "exclusive" method), so spreads computed here and by the
/// driver agree. `sorted` must be ascending and non-empty.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 7.0, 7));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        let one = Summary::of(&[3.5]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (3.5, 3.5, 3.5, 1));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn noise_depends_on_where_the_headline_value_sits() {
        let s = Summary::of(&[1.0, 1.02, 1.04, 1.3, 1.5, 1.6, 1.7]).unwrap();
        assert_eq!((s.q1, s.q3), (1.02, 1.6));
        // The fastest pass, confirmed by its neighbours within 2%.
        assert!((s.noise_of(s.min) - 0.02).abs() < 1e-12);
        // The best rate of mirrored statistics: distance down to q3.
        assert!((s.noise_of(s.max) - 0.1 / 1.7).abs() < 1e-12);
        // A median is as loose as the quartiles around it.
        assert_eq!(s.noise_of(s.median), s.spread());
        assert_eq!(s.noise_of(0.0), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median_and_survives_json() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
