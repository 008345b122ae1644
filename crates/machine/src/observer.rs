//! Interval observation.
//!
//! Between any two machine events, device states and CPU occupancy are
//! constant; the machine publishes each such interval to registered
//! observers. PowerScope builds its sampled profiles from these records;
//! tests use them to check conservation properties.

use hw560x::platform::PowerBreakdown;
use hw560x::{DeviceStates, DiskState, DisplayState, RadioState};
use simcore::{Joules, SimTime, Watts};

/// One attribution share within an interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShareEntry {
    /// Bucket label (process name or one of the `BUCKET_*` constants).
    pub bucket: &'static str,
    /// Procedure label within the bucket.
    pub procedure: &'static str,
    /// Fraction of the interval, in `[0, 1]`; entries sum to 1.
    pub fraction: f64,
}

/// A constant-state execution interval.
#[derive(Clone, Copy, Debug)]
pub struct IntervalRecord<'a> {
    /// Interval start.
    pub t0: SimTime,
    /// Interval end (exclusive).
    pub t1: SimTime,
    /// Platform power over the interval.
    pub power_w: Watts,
    /// Per-component decomposition of `power_w`.
    pub breakdown: PowerBreakdown,
    /// Device states in force.
    pub states: DeviceStates,
    /// Execution attribution shares (sum to 1).
    pub shares: &'a [ShareEntry],
}

impl IntervalRecord<'_> {
    /// Interval length in seconds.
    pub fn dt_secs(&self) -> f64 {
        self.t1.since(self.t0).as_secs_f64()
    }

    /// Energy consumed over the interval.
    pub fn energy_j(&self) -> Joules {
        self.power_w * self.t1.since(self.t0)
    }
}

/// Receives every execution interval of a run.
pub trait IntervalObserver {
    /// Called for each interval, in time order, with `t0 < t1`.
    fn on_interval(&mut self, rec: &IntervalRecord<'_>);
}

/// An observer that accumulates total observed energy; the machine's own
/// ledger must agree with it exactly (used by conservation tests).
#[derive(Debug, Default)]
pub struct EnergyProbe {
    total_j: Joules,
    intervals: usize,
    last_end: Option<SimTime>,
}

impl EnergyProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy observed.
    pub fn total_j(&self) -> Joules {
        self.total_j
    }

    /// Number of intervals observed.
    pub fn intervals(&self) -> usize {
        self.intervals
    }
}

impl IntervalObserver for EnergyProbe {
    fn on_interval(&mut self, rec: &IntervalRecord<'_>) {
        assert!(rec.t1 > rec.t0, "empty interval published");
        if let Some(prev) = self.last_end {
            assert!(rec.t0 >= prev, "overlapping intervals");
        }
        let share_sum: f64 = rec.shares.iter().map(|s| s.fraction).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to {share_sum}, not 1"
        );
        self.last_end = Some(rec.t1);
        self.total_j += rec.energy_j();
        self.intervals += 1;
    }
}

/// Convenience constructor for the idle device state used in tests.
pub fn idle_states() -> DeviceStates {
    DeviceStates {
        display: DisplayState::Bright,
        disk: DiskState::Idle,
        radio: RadioState::Idle,
        cpu_load: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw560x::{PlatformPower, PlatformSpec};

    #[test]
    fn record_energy_is_power_times_dt() {
        let spec = PlatformSpec::default();
        let p = PlatformPower::new(spec);
        let states = idle_states();
        let shares = [ShareEntry {
            bucket: crate::BUCKET_IDLE,
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        let rec = IntervalRecord {
            t0: SimTime::from_secs(1),
            t1: SimTime::from_secs(3),
            power_w: p.power_w(&states),
            breakdown: p.breakdown(&states),
            states,
            shares: &shares,
        };
        assert!((rec.energy_j() - Joules(2.0 * 10.28)).abs() < Joules(0.03));
        assert!((rec.dt_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probe_accumulates_and_validates() {
        let mut probe = EnergyProbe::new();
        let states = idle_states();
        let shares = [ShareEntry {
            bucket: crate::BUCKET_IDLE,
            procedure: "idle_hlt",
            fraction: 1.0,
        }];
        for i in 0..4u64 {
            let rec = IntervalRecord {
                t0: SimTime::from_secs(i),
                t1: SimTime::from_secs(i + 1),
                power_w: Watts(10.0),
                breakdown: PowerBreakdown::default(),
                states,
                shares: &shares,
            };
            probe.on_interval(&rec);
        }
        assert_eq!(probe.intervals(), 4);
        assert!((probe.total_j() - Joules(40.0)).abs() < Joules(1e-12));
    }

    #[test]
    #[should_panic(expected = "shares sum")]
    fn probe_rejects_bad_shares() {
        let mut probe = EnergyProbe::new();
        let rec = IntervalRecord {
            t0: SimTime::ZERO,
            t1: SimTime::from_secs(1),
            power_w: Watts(1.0),
            breakdown: PowerBreakdown::default(),
            states: idle_states(),
            shares: &[],
        };
        probe.on_interval(&rec);
    }
}
