//! Live per-process attribution feed for the supervisor.
//!
//! The viceroy's supervisor cross-checks each application's *declared*
//! demand against what PowerScope actually attributes to it. This module
//! turns the machine's cumulative per-bucket energy counters into smoothed
//! per-process power estimates, one [`OnlinePowerMeter`]-style stream per
//! process, with a short exponential smoother so a single CPU burst does
//! not read as sustained overdraw.

use std::collections::BTreeMap;

use simcore::{Joules, SimTime, Watts};

use crate::online::OnlinePowerMeter;

/// Smoothing factor for the per-process power estimate. With a 1 s
/// observation cadence this gives a ~5 s effective memory: long enough to
/// ride out one frame's decode burst, short enough to catch a hang within
/// a handful of supervisor periods.
const ALPHA: f64 = 0.2;

/// Converts cumulative attributed-energy readings into smoothed
/// per-process power estimates, keyed by an opaque stream id (the
/// supervisor uses the process index).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionFeed {
    streams: BTreeMap<usize, Stream>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Stream {
    meter: OnlinePowerMeter,
    ema_w: Option<Watts>,
}

impl AttributionFeed {
    /// Creates an empty feed.
    pub fn new() -> Self {
        AttributionFeed::default()
    }

    /// Feeds one cumulative attributed-energy reading for stream `id` and
    /// returns the smoothed power estimate. Returns `None` until two
    /// distinct-time readings exist for the stream.
    pub fn observe(&mut self, id: usize, now: SimTime, cumulative_j: Joules) -> Option<Watts> {
        let s = self.streams.entry(id).or_insert(Stream {
            meter: OnlinePowerMeter::new(),
            ema_w: None,
        });
        let raw = s.meter.update(now, cumulative_j)?;
        let ema = match s.ema_w {
            None => raw,
            Some(prev) => prev + ALPHA * (raw - prev),
        };
        s.ema_w = Some(ema);
        Some(ema)
    }

    /// Latest smoothed power for stream `id`.
    pub fn power_w(&self, id: usize) -> Option<Watts> {
        self.streams.get(&id).and_then(|s| s.ema_w)
    }

    /// Clears one stream's history (e.g. across a restart discontinuity).
    pub fn reset(&mut self, id: usize) {
        self.streams.remove(&id);
    }
}

simcore::impl_codec!(AttributionFeed { streams });
simcore::impl_codec!(Stream { meter, ema_w });

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use simcore::snapshot::check_codec;
        let mut f = AttributionFeed::new();
        check_codec(&f);
        f.observe(2, t(0), Joules(0.0));
        f.observe(5, t(0), Joules(1.0));
        f.observe(5, t(1), Joules(4.0));
        check_codec(&f);
        check_codec(&OnlinePowerMeter::new());
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn needs_two_readings() {
        let mut f = AttributionFeed::new();
        assert_eq!(f.observe(0, t(0), Joules(0.0)), None);
        assert!(f.observe(0, t(1), Joules(5.0)).is_some());
    }

    #[test]
    fn constant_power_converges_to_itself() {
        let mut f = AttributionFeed::new();
        for s in 0..60 {
            f.observe(3, t(s), Joules(4.0 * s as f64));
        }
        let p = f.power_w(3).unwrap();
        assert!((p - Watts(4.0)).abs() < Watts(1e-9), "p = {p}");
    }

    #[test]
    fn smoothing_damps_a_single_burst() {
        let mut f = AttributionFeed::new();
        let mut e = 0.0;
        for s in 0..10 {
            e += 1.0; // 1 W baseline
            f.observe(0, t(s), Joules(e));
        }
        e += 20.0; // one 20 J burst in one second
        let p = f.observe(0, t(10), Joules(e)).unwrap();
        assert!(
            p < Watts(6.0),
            "one burst should not read as sustained: {p}"
        );
        assert!(p > Watts(1.0));
    }

    #[test]
    fn streams_are_independent_and_resettable() {
        let mut f = AttributionFeed::new();
        f.observe(0, t(0), Joules(0.0));
        f.observe(1, t(0), Joules(0.0));
        f.observe(0, t(1), Joules(10.0));
        assert!(f.power_w(0).is_some());
        assert_eq!(f.power_w(1), None);
        f.reset(0);
        assert_eq!(f.power_w(0), None);
        // After reset the stream starts over (no stale baseline).
        assert_eq!(f.observe(0, t(5), Joules(50.0)), None);
    }
}
