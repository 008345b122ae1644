//! Deterministic fault timelines.
//!
//! Real mobile substrates are hostile: wireless links flap, profiler
//! samples vanish, battery gauges lie. To exercise the control plane
//! against that world *reproducibly*, every fault in the workspace is
//! drawn ahead of time from a [`SimRng`] stream into a [`FaultSchedule`] —
//! a sorted set of windows during which one fault class is active. Two
//! runs with the same seed replay bit-identical fault timelines, so chaos
//! experiments regress like any other experiment.
//!
//! A [`FaultPlan`] is the generative description (mean gap between fault
//! onsets, mean fault length); compiling it against a horizon yields the
//! concrete schedule. Plans scale linearly with an *intensity* knob in
//! `[0, 1]` so experiments can sweep from a benign bench setup to a
//! hostile field deployment.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One interval during which a fault is active: `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Fault onset.
    pub start: SimTime,
    /// Fault clearance (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// True while the fault is active.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the window.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Generative description of one fault class: a renewal process with
/// exponentially distributed gaps and lengths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Mean quiet time between the end of one fault and the next onset.
    pub mean_gap: SimDuration,
    /// Mean fault duration.
    pub mean_len: SimDuration,
}

impl FaultPlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero (a zero gap or length collapses
    /// the renewal process).
    pub fn new(mean_gap: SimDuration, mean_len: SimDuration) -> Self {
        assert!(!mean_gap.is_zero(), "fault plan needs a positive mean gap");
        assert!(
            !mean_len.is_zero(),
            "fault plan needs a positive mean length"
        );
        FaultPlan { mean_gap, mean_len }
    }

    /// Compiles the plan into a concrete schedule over `[0, horizon)`.
    ///
    /// Gaps and lengths are drawn from `rng` (exponential, i.e. Poisson
    /// fault onsets); the result depends only on the rng stream, so a
    /// forked, labelled stream gives a reproducible timeline that is
    /// independent of every other consumer of randomness.
    pub fn schedule(&self, rng: &mut SimRng, horizon: SimTime) -> FaultSchedule {
        let mut windows = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(rng.exponential(self.mean_gap.as_secs_f64()));
            let len = SimDuration::from_secs_f64(
                rng.exponential(self.mean_len.as_secs_f64())
                    .max(self.mean_len.as_secs_f64() * 0.05),
            );
            // Saturating arithmetic: a horizon near the end of representable
            // time (multi-month soak runs) must clamp, not wrap.
            let start = t.saturating_add(gap);
            if start >= horizon {
                break;
            }
            let end = start.saturating_add(len).min(horizon);
            windows.push(FaultWindow { start, end });
            t = end;
        }
        FaultSchedule::new(windows)
    }
}

/// A sorted, non-overlapping set of fault windows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule with no faults.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from windows, sorting them and merging overlaps.
    ///
    /// # Panics
    ///
    /// Panics on a window whose end precedes its start.
    pub fn new(mut windows: Vec<FaultWindow>) -> Self {
        for w in &windows {
            assert!(w.start <= w.end, "fault window ends before it starts");
        }
        windows.sort_by_key(|w| w.start);
        let mut merged: Vec<FaultWindow> = Vec::with_capacity(windows.len());
        for w in windows {
            if w.start == w.end {
                continue; // zero-length faults are no faults
            }
            match merged.last_mut() {
                Some(prev) if w.start <= prev.end => prev.end = prev.end.max(w.end),
                _ => merged.push(w),
            }
        }
        FaultSchedule { windows: merged }
    }

    /// The windows, sorted by start.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// True if the schedule has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// True while any fault window covers `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        // Binary search for the last window starting at or before `t`.
        match self.windows.partition_point(|w| w.start <= t) {
            0 => false,
            i => self.windows[i - 1].contains(t),
        }
    }

    /// The next instant strictly after `t` at which activity flips
    /// (a window starts or ends), or `None` when no more transitions.
    pub fn next_transition_after(&self, t: SimTime) -> Option<SimTime> {
        let i = self.windows.partition_point(|w| w.start <= t);
        if i > 0 && self.windows[i - 1].end > t {
            return Some(self.windows[i - 1].end);
        }
        self.windows.get(i).map(|w| w.start)
    }

    /// Total faulted time. Saturates at the maximum representable
    /// duration (windows are disjoint, so the sum is bounded by the last
    /// window's end and cannot wrap for any real schedule).
    pub fn total_active(&self) -> SimDuration {
        self.windows
            .iter()
            .fold(SimDuration::ZERO, |acc, w| acc.saturating_add(w.duration()))
    }
}

/// Deterministic per-instant noise helper: a pure hash of `(seed, tick)`
/// mapped to `[-1, 1)`. Sensors use this instead of drawing from a stream
/// so that a read-only probe (which cannot hold `&mut SimRng`) still
/// produces reproducible noise that does not depend on how often it is
/// read.
pub fn hash_noise(seed: u64, tick: u64) -> f64 {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let h = splitmix64(seed ^ splitmix64(tick));
    ((h >> 11) as f64) * (1.0 / (1u64 << 52) as f64) - 1.0
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::time::TICKS_PER_SEC;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn schedule_merges_and_sorts() {
        let s = FaultSchedule::new(vec![
            FaultWindow {
                start: secs(10),
                end: secs(20),
            },
            FaultWindow {
                start: secs(5),
                end: secs(12),
            },
            FaultWindow {
                start: secs(30),
                end: secs(30),
            },
        ]);
        assert_eq!(s.windows().len(), 1);
        assert_eq!(s.windows()[0].start, secs(5));
        assert_eq!(s.windows()[0].end, secs(20));
    }

    #[test]
    fn active_at_and_transitions() {
        let s = FaultSchedule::new(vec![
            FaultWindow {
                start: secs(10),
                end: secs(20),
            },
            FaultWindow {
                start: secs(40),
                end: secs(50),
            },
        ]);
        assert!(!s.active_at(secs(5)));
        assert!(s.active_at(secs(10)));
        assert!(s.active_at(secs(19)));
        assert!(!s.active_at(secs(20)));
        assert_eq!(s.next_transition_after(SimTime::ZERO), Some(secs(10)));
        assert_eq!(s.next_transition_after(secs(10)), Some(secs(20)));
        assert_eq!(s.next_transition_after(secs(25)), Some(secs(40)));
        assert_eq!(s.next_transition_after(secs(50)), None);
        assert_eq!(s.total_active(), SimDuration::from_secs(20));
    }

    #[test]
    fn empty_schedule_is_quiet() {
        let s = FaultSchedule::empty();
        assert!(!s.active_at(secs(0)));
        assert_eq!(s.next_transition_after(secs(0)), None);
        assert!(s.is_empty());
    }

    #[test]
    fn compiled_plans_are_deterministic() {
        let plan = FaultPlan::new(SimDuration::from_secs(60), SimDuration::from_secs(10));
        let a = plan.schedule(&mut SimRng::new(7).fork("link"), secs(3600));
        let b = plan.schedule(&mut SimRng::new(7).fork("link"), secs(3600));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "an hour at 60 s mean gap yields faults");
        for w in a.windows() {
            assert!(w.end <= secs(3600));
        }
    }

    #[test]
    fn different_streams_differ() {
        let plan = FaultPlan::new(SimDuration::from_secs(60), SimDuration::from_secs(10));
        let a = plan.schedule(&mut SimRng::new(7).fork("link"), secs(3600));
        let b = plan.schedule(&mut SimRng::new(8).fork("link"), secs(3600));
        assert_ne!(a, b);
    }

    #[test]
    fn plan_duty_cycle_is_roughly_right() {
        // 30 s faults every 300 s quiet → ~9% of time faulted.
        let plan = FaultPlan::new(SimDuration::from_secs(300), SimDuration::from_secs(30));
        let horizon = secs(400_000);
        let s = plan.schedule(&mut SimRng::new(3), horizon);
        let frac = s.total_active().as_secs_f64() / horizon.as_secs_f64();
        assert!((0.05..0.14).contains(&frac), "faulted fraction {frac}");
    }

    #[test]
    fn hash_noise_is_bounded_and_deterministic() {
        for tick in 0..1000 {
            let v = hash_noise(42, tick);
            assert!((-1.0..1.0).contains(&v), "{v}");
            assert_eq!(v, hash_noise(42, tick));
        }
        assert_ne!(hash_noise(42, 1), hash_noise(43, 1));
    }

    /// A 60-day soak horizon compiles without wrapping and every window
    /// stays inside it — the ≥30-day audit target.
    #[test]
    fn two_month_horizon_compiles_cleanly() {
        let plan = FaultPlan::new(SimDuration::from_secs(3600), SimDuration::from_secs(120));
        let horizon = secs(60 * 24 * 3600);
        let s = plan.schedule(&mut SimRng::new(11), horizon);
        assert!(!s.is_empty());
        for w in s.windows() {
            assert!(w.start < w.end && w.end <= horizon);
        }
        assert!(s.total_active() < horizon.since(SimTime::ZERO));
    }

    /// Even a horizon at the very end of representable time clamps
    /// instead of wrapping.
    #[test]
    fn compilation_saturates_at_end_of_time() {
        let plan = FaultPlan::new(
            SimDuration::from_secs(u64::MAX / TICKS_PER_SEC / 4),
            SimDuration::from_secs(u64::MAX / TICKS_PER_SEC / 4),
        );
        let horizon = SimTime::from_micros(u64::MAX);
        let s = plan.schedule(&mut SimRng::new(5), horizon);
        for w in s.windows() {
            assert!(w.end <= horizon);
        }
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_window_rejected() {
        let _ = FaultSchedule::new(vec![FaultWindow {
            start: secs(2),
            end: secs(1),
        }]);
    }
}
