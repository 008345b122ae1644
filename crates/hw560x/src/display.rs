//! Display backlight model.
//!
//! The paper identifies the display as "the Achilles heel of power
//! management": it cannot be turned off while a user is watching video or
//! reading a map, which is what motivates Section 4's zoned backlighting.
//! This module models the conventional single-zone backlight with three
//! states; the zoned projection lives in the `backlight` crate.

use crate::calib::PlatformSpec;
use simcore::Watts;

/// Backlight state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DisplayState {
    /// Backlight off (speech-only interaction).
    Off,
    /// Backlight dimmed (background/inactivity level).
    Dim,
    /// Backlight at full brightness.
    Bright,
}

impl DisplayState {
    /// Power drawn in this state, W.
    #[inline]
    pub fn power_w(self, spec: &PlatformSpec) -> Watts {
        match self {
            DisplayState::Bright => spec.display_bright_w,
            DisplayState::Dim => spec.display_dim_w,
            DisplayState::Off => Watts::ZERO,
        }
    }

    /// The brighter of two states (used to aggregate concurrent demands).
    pub fn max(self, other: DisplayState) -> DisplayState {
        if self >= other {
            self
        } else {
            other
        }
    }
}

/// Aggregates display demands from concurrently-running applications.
///
/// Once the screen has to be on for one application, no additional energy
/// is required to keep it on for a second (Section 3.7's amortization
/// argument) — so the effective state is the maximum demand.
///
/// # Examples
///
/// ```
/// use hw560x::display::{DisplayModel, DisplayState};
///
/// let mut d = DisplayModel::new();
/// let a = d.register(DisplayState::Off);
/// let b = d.register(DisplayState::Bright);
/// assert_eq!(d.effective(), DisplayState::Bright);
/// d.set_demand(b, DisplayState::Off);
/// assert_eq!(d.effective(), DisplayState::Off);
/// let _ = (a, b);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DisplayModel {
    demands: Vec<DisplayState>,
}

/// Handle to one registered demand slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DemandSlot(usize);

impl DisplayModel {
    /// Creates a model with no registered demands (effective state Off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new demand source and returns its slot.
    pub fn register(&mut self, initial: DisplayState) -> DemandSlot {
        self.demands.push(initial);
        DemandSlot(self.demands.len() - 1)
    }

    /// Updates the demand of a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was not issued by this model.
    pub fn set_demand(&mut self, slot: DemandSlot, state: DisplayState) {
        self.demands[slot.0] = state;
    }

    /// The effective backlight state: the maximum over all demands, or Off
    /// when none are registered.
    pub fn effective(&self) -> DisplayState {
        self.demands
            .iter()
            .copied()
            .fold(DisplayState::Off, DisplayState::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Watts;

    #[test]
    fn power_ordering_matches_state_ordering() {
        let spec = PlatformSpec::default();
        assert!(
            DisplayState::Off.power_w(&spec) < DisplayState::Dim.power_w(&spec)
                && DisplayState::Dim.power_w(&spec) < DisplayState::Bright.power_w(&spec)
        );
        assert_eq!(DisplayState::Off.power_w(&spec), Watts::ZERO);
    }

    #[test]
    fn max_picks_brighter() {
        assert_eq!(
            DisplayState::Dim.max(DisplayState::Bright),
            DisplayState::Bright
        );
        assert_eq!(DisplayState::Off.max(DisplayState::Dim), DisplayState::Dim);
        assert_eq!(DisplayState::Off.max(DisplayState::Off), DisplayState::Off);
    }

    #[test]
    fn empty_model_is_off() {
        assert_eq!(DisplayModel::new().effective(), DisplayState::Off);
    }

    #[test]
    fn aggregation_tracks_demand_changes() {
        let mut d = DisplayModel::new();
        let video = d.register(DisplayState::Bright);
        let speech = d.register(DisplayState::Off);
        assert_eq!(d.effective(), DisplayState::Bright);
        d.set_demand(video, DisplayState::Dim);
        assert_eq!(d.effective(), DisplayState::Dim);
        d.set_demand(speech, DisplayState::Bright);
        assert_eq!(d.effective(), DisplayState::Bright);
    }
}
