//! Time-series recording.
//!
//! Figure 19 of the paper plots energy supply and predicted demand against
//! elapsed time, together with per-application fidelity timelines.
//! [`TimeSeries`] is the recorder those plots are generated from: an
//! append-only sequence of `(SimTime, f64)` points with step-function
//! semantics (a recorded value holds until the next record).

use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

/// An append-only series of timestamped values with step semantics.
///
/// # Examples
///
/// ```
/// use simcore::{SimTime, TimeSeries};
///
/// let mut s = TimeSeries::new("fidelity");
/// s.record(SimTime::from_secs(0), 3.0);
/// s.record(SimTime::from_secs(10), 1.0);
/// assert_eq!(s.value_at(SimTime::from_secs(5)), Some(3.0));
/// assert_eq!(s.value_at(SimTime::from_secs(10)), Some(1.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series' display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded point (series are recorded
    /// in simulation order).
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series must be recorded in order");
            if at == last {
                // Same-instant re-record overwrites; the last write wins,
                // matching step semantics.
                self.points.pop();
            }
        }
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Step-function value at `at`: the most recent record not after `at`.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Last recorded value.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Resamples the series onto a regular grid from the first record to
    /// `end`, inclusive of both endpoints, with step semantics.
    ///
    /// Useful for rendering Figure-19-style plots as fixed-width rows.
    pub fn resample(&self, step: SimDuration, end: SimTime) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "resample step must be positive");
        let Some(&(start, _)) = self.points.first() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            if let Some(v) = self.value_at(t) {
                out.push((t, v));
            }
            t += step;
        }
        out
    }

    /// Number of value changes (adjacent points with different values).
    ///
    /// Fidelity timelines use this to count adaptations, as in Figure 20's
    /// "Number of Adaptations" columns.
    #[expect(clippy::float_cmp, reason = "any change of level counts")]
    pub fn change_count(&self) -> usize {
        self.points.windows(2).filter(|w| w[0].1 != w[1].1).count()
    }
}

/// A series is its name and its points; the points must be strictly
/// increasing in time, as [`TimeSeries::record`] keeps them.
impl Codec for TimeSeries {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.name);
        w.put(&self.points);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let series = TimeSeries {
            name: r.take()?,
            points: r.take()?,
        };
        if series
            .points
            .windows(2)
            .any(|p| matches!(p, [a, b] if a.0 >= b.0))
        {
            return Err(SnapshotError::Corrupt("time series points out of order"));
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_semantics() {
        let mut s = TimeSeries::new("x");
        s.record(SimTime::from_secs(1), 10.0);
        s.record(SimTime::from_secs(3), 20.0);
        assert_eq!(s.value_at(SimTime::ZERO), None);
        assert_eq!(s.value_at(SimTime::from_secs(1)), Some(10.0));
        assert_eq!(s.value_at(SimTime::from_secs(2)), Some(10.0));
        assert_eq!(s.value_at(SimTime::from_secs(3)), Some(20.0));
        assert_eq!(s.value_at(SimTime::from_secs(99)), Some(20.0));
    }

    #[test]
    fn same_instant_overwrites() {
        let mut s = TimeSeries::new("x");
        s.record(SimTime::from_secs(1), 1.0);
        s.record(SimTime::from_secs(1), 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(SimTime::from_secs(1)), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_record_panics() {
        let mut s = TimeSeries::new("x");
        s.record(SimTime::from_secs(2), 1.0);
        s.record(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn resample_grid() {
        let mut s = TimeSeries::new("x");
        s.record(SimTime::from_secs(0), 1.0);
        s.record(SimTime::from_secs(5), 2.0);
        let grid = s.resample(SimDuration::from_secs(2), SimTime::from_secs(8));
        let values: Vec<f64> = grid.iter().map(|p| p.1).collect();
        assert_eq!(values, vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn change_count_counts_transitions() {
        let mut s = TimeSeries::new("fidelity");
        for (t, v) in [(0, 3.0), (10, 3.0), (20, 2.0), (30, 2.0), (40, 3.0)] {
            s.record(SimTime::from_secs(t), v);
        }
        assert_eq!(s.change_count(), 2);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert!(s
            .resample(SimDuration::from_secs(1), SimTime::from_secs(10))
            .is_empty());
    }
}
