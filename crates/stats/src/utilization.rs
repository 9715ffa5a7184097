//! Busy/idle tracking for shared resources (buses, links, CPUs).

use serde::{Deserialize, Serialize};

/// Tracks how much of virtual time a resource spent busy.
///
/// The simulator reports busy intervals as `[start, end)` in picoseconds;
/// intervals must be reported in non-decreasing start order and may not
/// overlap (a resource is a single server — overlapping use is a model
/// bug, and is reported as a panic rather than silently merged).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Utilization {
    busy_ps: u64,
    last_end: u64,
    intervals: u64,
}

impl Utilization {
    /// A fresh tracker.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Record a busy interval `[start, end)`.
    pub fn record(&mut self, start_ps: u64, end_ps: u64) {
        assert!(end_ps >= start_ps, "negative busy interval");
        assert!(
            start_ps >= self.last_end,
            "overlapping busy intervals: {} < {}",
            start_ps,
            self.last_end
        );
        self.busy_ps += end_ps - start_ps;
        self.last_end = end_ps;
        self.intervals += 1;
    }

    /// Total busy time.
    pub fn busy_ps(&self) -> u64 {
        self.busy_ps
    }

    /// Number of busy intervals recorded.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// End of the latest busy interval (the earliest time a new request
    /// can be served) — this doubles as the resource's availability clock
    /// for simple arbitration.
    pub fn available_at(&self) -> u64 {
        self.last_end
    }

    /// Utilization over `[0, horizon_ps)` as a fraction in `[0, 1]`.
    pub fn fraction(&self, horizon_ps: u64) -> f64 {
        if horizon_ps == 0 {
            0.0
        } else {
            self.busy_ps as f64 / horizon_ps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_busy_time() {
        let mut u = Utilization::new();
        u.record(0, 10);
        u.record(20, 25);
        assert_eq!(u.busy_ps(), 15);
        assert_eq!(u.intervals(), 2);
        assert_eq!(u.available_at(), 25);
        assert!((u.fraction(100) - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_is_a_model_bug() {
        let mut u = Utilization::new();
        u.record(0, 10);
        u.record(5, 15);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn reversed_interval_is_rejected() {
        let mut u = Utilization::new();
        u.record(10, 5);
    }

    #[test]
    fn zero_horizon_fraction_is_zero() {
        assert_eq!(Utilization::new().fraction(0), 0.0);
    }

    #[test]
    fn back_to_back_intervals_are_allowed() {
        let mut u = Utilization::new();
        u.record(0, 10);
        u.record(10, 20);
        assert_eq!(u.busy_ps(), 20);
    }

    #[test]
    fn empty_tracker_is_all_idle() {
        let u = Utilization::new();
        assert_eq!(u.busy_ps(), 0);
        assert_eq!(u.intervals(), 0);
        assert_eq!(u.available_at(), 0);
        assert_eq!(u.fraction(1_000), 0.0);
    }

    #[test]
    fn zero_length_intervals_count_but_add_nothing() {
        let mut u = Utilization::new();
        u.record(5, 5);
        assert_eq!(u.busy_ps(), 0);
        assert_eq!(u.intervals(), 1);
        assert_eq!(u.available_at(), 5);
        // A later interval starting exactly at the zero-length point is
        // still back-to-back, not overlapping.
        u.record(5, 8);
        assert_eq!(u.busy_ps(), 3);
    }

    #[test]
    fn fraction_can_exceed_one_when_horizon_undershoots() {
        // Callers own the horizon; a too-short one is reported honestly
        // rather than clamped.
        let mut u = Utilization::new();
        u.record(0, 100);
        assert!((u.fraction(50) - 2.0).abs() < 1e-12);
    }
}
