//! Energy-demand prediction (Section 5.1.2).
//!
//! "To predict future energy demand, Odyssey relies on smoothed
//! observations of present and past power usage. We use an exponential
//! smoothing function of the form `new = (1-α)·this_sample + α·old`,
//! where α is ... set so that the half-life of the decay function is 10%
//! of the time remaining until the goal." Predicted demand is the smoothed
//! power multiplied by the time remaining.
//!
//! The half-life tie to time-remaining is the agility/stability dial: far
//! from the goal α is large (stable; transients ignored), close to the
//! goal α shrinks (agile; the margin for error is small).

use simcore::{Codec, Joules, SimDuration, SnapshotError, SnapshotReader, SnapshotWriter, Watts};

/// Exponential smoother with a time-remaining-scaled half-life.
#[derive(Clone, Copy, Debug)]
pub struct Smoother {
    /// Half-life as a fraction of time remaining (paper: 0.10).
    half_life_frac: f64,
    /// Sample period, seconds.
    period_s: f64,
    value: Option<Watts>,
}

impl Smoother {
    /// Creates a smoother.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(half_life_frac: f64, period: SimDuration) -> Self {
        assert!(
            half_life_frac.is_finite() && half_life_frac > 0.0,
            "invalid half-life fraction: {half_life_frac}"
        );
        let period_s = period.as_secs_f64();
        assert!(period_s > 0.0, "smoothing period must be positive");
        Smoother {
            half_life_frac,
            period_s,
            value: None,
        }
    }

    /// The α used at a given time-remaining: `0.5^(period / half_life)`.
    ///
    /// The half-life is floored at one sample period so that α never
    /// collapses to 0 at the goal boundary.
    pub fn alpha(&self, remaining_s: f64) -> f64 {
        let half_life = (self.half_life_frac * remaining_s.max(0.0)).max(self.period_s);
        // exp2, not 0.5.powf: LLVM rewrites constant-base pow into exp2
        // in optimized builds only, and the two differ in the last ulp
        // for some arguments — calling exp2 directly keeps debug and
        // release runs bit-identical (the golden traces depend on it).
        f64::exp2(-(self.period_s / half_life))
    }

    /// Folds in a power sample taken with `remaining_s` seconds to the
    /// goal; returns the new smoothed value.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative samples.
    pub fn update(&mut self, sample_w: Watts, remaining_s: f64) -> Watts {
        assert!(
            sample_w.is_finite() && sample_w >= Watts::ZERO,
            "invalid power sample: {sample_w}"
        );
        let new = match self.value {
            None => sample_w,
            Some(old) => {
                let a = self.alpha(remaining_s);
                (1.0 - a) * sample_w + a * old
            }
        };
        self.value = Some(new);
        new
    }

    /// Current smoothed power.
    pub fn value(&self) -> Option<Watts> {
        self.value
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Encodes the smoothed value (the parameters are construction-time)
    /// into a snapshot payload.
    pub fn freeze_into(&self, w: &mut simcore::SnapshotWriter) {
        w.put(&self.value);
    }

    /// Restores the state written by [`Self::freeze_into`].
    pub fn thaw_from(
        &mut self,
        r: &mut simcore::SnapshotReader<'_>,
    ) -> Result<(), simcore::SnapshotError> {
        self.value = r.take()?;
        Ok(())
    }
}

/// Predicted future energy demand: smoothed power times time remaining.
pub fn predicted_demand_j(smoothed_w: Watts, remaining: SimDuration) -> Joules {
    smoothed_w * remaining
}

/// One application's standing demand declaration.
#[derive(Clone, Debug, PartialEq)]
struct DemandEntry {
    /// Declared sustained power at each fidelity level, index 0 =
    /// lowest fidelity.
    declared_w: Vec<Watts>,
    /// The fidelity level the application currently claims to run at.
    claimed_level: usize,
    /// False once the entry has been released (app exited or was
    /// quarantined); a released entry no longer contributes demand.
    active: bool,
}

/// An entry must declare at least one level, every power finite and
/// non-negative, and claim a level it declared.
impl Codec for DemandEntry {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.declared_w);
        w.put(&self.claimed_level);
        w.put(&self.active);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let e = DemandEntry {
            declared_w: r.take()?,
            claimed_level: r.take()?,
            active: r.take()?,
        };
        if e.declared_w.is_empty() {
            return Err(SnapshotError::Corrupt("empty demand declaration"));
        }
        if !e
            .declared_w
            .iter()
            .all(|p| p.is_finite() && *p >= Watts::ZERO)
        {
            return Err(SnapshotError::Corrupt("declared power"));
        }
        if e.claimed_level >= e.declared_w.len() {
            return Err(SnapshotError::Corrupt("claimed level"));
        }
        Ok(e)
    }
}

/// The viceroy's demand ledger: per-application declared power by fidelity
/// level, keyed by process index.
///
/// Declarations enter when an application registers with the viceroy and
/// must leave when it does — historically an app that crashed mid-operation
/// never issued the final downcall, so its declaration leaked and the
/// viceroy kept budgeting supply for a corpse. [`DemandLedger::release`] is
/// the explicit exit; [`DemandLedger::leaked`] audits for entries that
/// outlived their process, and the supervisor garbage-collects them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DemandLedger {
    entries: std::collections::BTreeMap<usize, DemandEntry>,
}

simcore::impl_codec!(DemandLedger { entries });

impl DemandLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        DemandLedger::default()
    }

    /// Registers (or replaces) a declaration for process `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `declared_w` is empty, contains a non-finite or negative
    /// value, or `claimed_level` is out of range.
    pub fn declare(&mut self, idx: usize, declared_w: Vec<Watts>, claimed_level: usize) {
        assert!(!declared_w.is_empty(), "empty demand declaration");
        assert!(
            declared_w
                .iter()
                .all(|w| w.is_finite() && *w >= Watts::ZERO),
            "invalid declared power: {declared_w:?}"
        );
        assert!(
            claimed_level < declared_w.len(),
            "claimed level {claimed_level} out of range (levels: {})",
            declared_w.len()
        );
        self.entries.insert(
            idx,
            DemandEntry {
                declared_w,
                claimed_level,
                active: true,
            },
        );
    }

    /// Updates the claimed fidelity level for `idx`. Returns `false` when
    /// the process has no active entry or the level is out of range.
    pub fn set_claimed_level(&mut self, idx: usize, level: usize) -> bool {
        match self.entries.get_mut(&idx) {
            Some(e) if e.active && level < e.declared_w.len() => {
                e.claimed_level = level;
                true
            }
            _ => false,
        }
    }

    /// Releases the declaration for `idx` (app exit, crash GC, or
    /// quarantine). Returns the watts freed, or `None` if there was no
    /// active entry — calling it twice is a no-op, not a double-free.
    pub fn release(&mut self, idx: usize) -> Option<Watts> {
        match self.entries.get_mut(&idx) {
            Some(e) if e.active => {
                e.active = false;
                Some(e.declared_w[e.claimed_level])
            }
            _ => None,
        }
    }

    /// Re-activates a released entry at `level` (supervisor restart path).
    /// Returns `false` if the process was never declared, is still active,
    /// or `level` is out of range.
    pub fn reinstate(&mut self, idx: usize, level: usize) -> bool {
        match self.entries.get_mut(&idx) {
            Some(e) if !e.active && level < e.declared_w.len() => {
                e.active = true;
                e.claimed_level = level;
                true
            }
            _ => false,
        }
    }

    /// Declared power for `idx` at its claimed level; `None` when absent
    /// or released.
    pub fn declared_w(&self, idx: usize) -> Option<Watts> {
        self.entries
            .get(&idx)
            .filter(|e| e.active)
            .map(|e| e.declared_w[e.claimed_level])
    }

    /// Claimed fidelity level for `idx`; `None` when absent or released.
    pub fn claimed_level(&self, idx: usize) -> Option<usize> {
        self.entries
            .get(&idx)
            .filter(|e| e.active)
            .map(|e| e.claimed_level)
    }

    /// True while `idx` holds an active declaration.
    pub fn is_active(&self, idx: usize) -> bool {
        self.entries.get(&idx).is_some_and(|e| e.active)
    }

    /// Sum of declared power over all active entries.
    pub fn total_declared_w(&self) -> Watts {
        self.entries
            .values()
            .filter(|e| e.active)
            .map(|e| e.declared_w[e.claimed_level])
            .sum()
    }

    /// Audit: indices whose entries are still active even though the
    /// process is done — declarations leaked by apps that died without the
    /// final downcall. `done` reports whether each process index has
    /// terminated.
    pub fn leaked(&self, done: impl Fn(usize) -> bool) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|(idx, e)| e.active && done(**idx))
            .map(|(idx, _)| *idx)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoother(frac: f64) -> Smoother {
        Smoother::new(frac, SimDuration::from_millis(100))
    }

    #[test]
    fn first_sample_is_taken_verbatim() {
        let mut s = smoother(0.10);
        assert_eq!(s.update(Watts(7.5), 1000.0), Watts(7.5));
        assert_eq!(s.value(), Some(Watts(7.5)));
    }

    #[test]
    fn half_life_semantics() {
        // With remaining = 1000 s and frac = 0.10, the half-life is 100 s.
        // Feed a step from 10 W to 0 W: after 100 s (1000 samples) the
        // smoothed value should be half the step.
        let mut s = smoother(0.10);
        s.update(Watts(10.0), 1000.0);
        let mut v = Watts(10.0);
        for _ in 0..1000 {
            v = s.update(Watts(0.0), 1000.0);
        }
        assert!((v.0 - 5.0).abs() < 0.05, "after one half-life: {v}");
    }

    #[test]
    fn agility_increases_as_goal_nears() {
        // α must shrink with remaining time: closer goal → more agile.
        let s = smoother(0.10);
        let far = s.alpha(10_000.0);
        let near = s.alpha(30.0);
        assert!(far > near, "far {far} near {near}");
        assert!(far > 0.99);
        assert!(near < 0.98);
    }

    #[test]
    fn alpha_is_floored_at_goal() {
        let s = smoother(0.10);
        let a = s.alpha(0.0);
        assert!((a - 0.5).abs() < 1e-12, "α at zero remaining: {a}");
    }

    #[test]
    fn smaller_half_life_fraction_is_more_agile() {
        // Figure 21 explores 1%, 5%, 10%, 15% half-lives.
        let unstable = smoother(0.01).alpha(1000.0);
        let stable = smoother(0.15).alpha(1000.0);
        assert!(unstable < stable);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut s = smoother(0.10);
        for _ in 0..5000 {
            s.update(Watts(8.2), 500.0);
        }
        assert!((s.value().unwrap() - Watts(8.2)).abs() < Watts(1e-9));
    }

    #[test]
    fn demand_is_power_times_remaining() {
        assert_eq!(
            predicted_demand_j(Watts(10.0), SimDuration::from_secs(600)),
            Joules(6000.0)
        );
        assert_eq!(
            predicted_demand_j(Watts(10.0), SimDuration::ZERO),
            Joules(0.0)
        );
    }

    #[test]
    fn reset_clears() {
        let mut s = smoother(0.10);
        s.update(Watts(5.0), 100.0);
        s.reset();
        assert_eq!(s.value(), None);
        assert_eq!(s.update(Watts(1.0), 100.0), Watts(1.0));
    }

    #[test]
    fn ledger_tracks_claimed_level() {
        let mut l = DemandLedger::new();
        l.declare(0, vec![Watts(1.0), Watts(2.0), Watts(4.0)], 2);
        assert_eq!(l.declared_w(0), Some(Watts(4.0)));
        assert!(l.set_claimed_level(0, 0));
        assert_eq!(l.declared_w(0), Some(Watts(1.0)));
        assert!(!l.set_claimed_level(0, 3));
        assert!(!l.set_claimed_level(9, 0));
    }

    #[test]
    fn release_frees_demand_exactly_once() {
        let mut l = DemandLedger::new();
        l.declare(0, vec![Watts(2.0), Watts(5.0)], 1);
        l.declare(1, vec![Watts(3.0)], 0);
        assert!((l.total_declared_w() - Watts(8.0)).abs() < Watts(1e-12));
        assert_eq!(l.release(0), Some(Watts(5.0)));
        assert!((l.total_declared_w() - Watts(3.0)).abs() < Watts(1e-12));
        // Double release is a no-op, not a double-free.
        assert_eq!(l.release(0), None);
        assert!(!l.is_active(0));
        assert!(l.is_active(1));
    }

    /// Regression test for the demand leak: an app that dies without the
    /// final downcall leaves an active entry behind, the audit finds it,
    /// and releasing it restores the budget.
    #[test]
    fn crashed_app_without_release_is_a_leak_until_collected() {
        let mut l = DemandLedger::new();
        l.declare(0, vec![Watts(2.0)], 0);
        l.declare(1, vec![Watts(6.0)], 0);
        let done = |idx: usize| idx == 1; // process 1 crashed
        assert_eq!(l.leaked(done), vec![1]);
        assert!((l.total_declared_w() - Watts(8.0)).abs() < Watts(1e-12));
        assert_eq!(l.release(1), Some(Watts(6.0)));
        assert!(l.leaked(done).is_empty());
        assert!((l.total_declared_w() - Watts(2.0)).abs() < Watts(1e-12));
    }

    #[test]
    fn reinstate_reactivates_at_recovery_level() {
        let mut l = DemandLedger::new();
        l.declare(0, vec![Watts(1.0), Watts(3.0)], 1);
        assert!(!l.reinstate(0, 0), "active entries cannot be reinstated");
        l.release(0);
        assert!(!l.reinstate(0, 5), "out-of-range level rejected");
        assert!(l.reinstate(0, 0));
        assert_eq!(l.declared_w(0), Some(Watts(1.0)));
        assert_eq!(l.claimed_level(0), Some(0));
    }
}
