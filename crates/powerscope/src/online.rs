//! The on-line PowerScope variant (Section 5.1.1).
//!
//! To direct adaptation, "Odyssey measures power with an on-line version
//! of PowerScope ... using samples collected every 100 milliseconds. At
//! each sample, Odyssey calculates residual energy, assuming a known
//! initial value and constant power consumption between samples."
//!
//! [`OnlinePowerMeter`] is that instrument: fed cumulative energy readings
//! on a fixed cadence, it yields the average power over each window.

use simcore::{
    Codec, Joules, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, Watts,
};

/// Converts periodic cumulative-energy readings into power samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlinePowerMeter {
    last: Option<(SimTime, Joules)>,
}

impl Default for OnlinePowerMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlinePowerMeter {
    /// The paper's on-line sampling period.
    pub const PERIOD: SimDuration = SimDuration::from_millis(100);

    /// Creates an idle meter.
    pub fn new() -> Self {
        OnlinePowerMeter { last: None }
    }

    /// Feeds a cumulative energy reading; returns the average power since
    /// the previous reading (`None` on the first call or for zero-length
    /// windows).
    ///
    /// # Panics
    ///
    /// Panics if energy or time moves backwards.
    pub fn update(&mut self, now: SimTime, total_energy_j: Joules) -> Option<Watts> {
        let out = match self.last {
            None => None,
            Some((t0, e0)) => {
                assert!(now >= t0, "time moved backwards");
                assert!(
                    total_energy_j >= e0 - Joules(1e-9),
                    "energy decreased: {e0} -> {total_energy_j}"
                );
                let dt = now.since(t0);
                if dt.is_zero() {
                    None
                } else {
                    Some((total_energy_j - e0) / dt)
                }
            }
        };
        self.last = Some((now, total_energy_j));
        out
    }

    /// Clears the history (e.g. after a discontinuity).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// A meter is its last reading, if any.
impl Codec for OnlinePowerMeter {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.last);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(OnlinePowerMeter { last: r.take()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reading_yields_nothing() {
        let mut m = OnlinePowerMeter::new();
        assert_eq!(m.update(SimTime::ZERO, Joules(0.0)), None);
    }

    #[test]
    fn power_is_energy_delta_over_dt() {
        let mut m = OnlinePowerMeter::new();
        m.update(SimTime::ZERO, Joules(100.0));
        let p = m.update(ms(100), Joules(101.0)).unwrap();
        assert!((p - Watts(10.0)).abs() < Watts(1e-9));
        let p = m.update(ms(300), Joules(105.0)).unwrap();
        assert!((p - Watts(20.0)).abs() < Watts(1e-9));
    }

    #[test]
    fn zero_dt_yields_nothing() {
        let mut m = OnlinePowerMeter::new();
        m.update(SimTime::from_secs(1), Joules(5.0));
        assert_eq!(m.update(SimTime::from_secs(1), Joules(5.0)), None);
    }

    #[test]
    fn reset_clears_history() {
        let mut m = OnlinePowerMeter::new();
        m.update(SimTime::ZERO, Joules(0.0));
        m.reset();
        assert_eq!(m.update(SimTime::from_secs(1), Joules(50.0)), None);
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_micros(v * 1000)
    }
}
