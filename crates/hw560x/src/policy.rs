//! Hardware power-management policy configuration.
//!
//! Section 3.2 describes the policy regime behind the paper's
//! "Hardware-Only Power Mgmt." bars: BIOS power management disabled for
//! experimental control, the disk placed in standby after 10 seconds of
//! inactivity, the WaveLAN interface in standby except during RPCs and
//! bulk transfers, and the display turned off for the speech application
//! (the only one with no visual output). The baseline bars disable all of
//! it. This module is pure configuration; enforcement lives in the
//! `machine` crate's device drivers.

use simcore::SimDuration;

/// Hardware power-management policy: the paper's regime or none of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmPolicy {
    /// Master switch; `false` reproduces the paper's "Baseline" bars.
    pub enabled: bool,
}

impl PmPolicy {
    /// Disk spin-down after this much inactivity (paper: 10 s).
    pub const DISK_SPIN_DOWN: SimDuration = SimDuration::from_secs(10);

    /// Dim the display after this much user inactivity. Think time counts
    /// as activity up to this threshold: the paper keeps the display
    /// backlit through a 5-second think pause, while its linear think-time
    /// models trend toward the 5.6 W dim background for long pauses.
    pub const DISPLAY_DIM_AFTER: SimDuration = SimDuration::from_secs(10);

    /// The paper's hardware power management regime.
    pub fn enabled() -> Self {
        PmPolicy { enabled: true }
    }

    /// The paper's baseline: all hardware power management off.
    pub fn disabled() -> Self {
        PmPolicy { enabled: false }
    }

    /// Spin-down policy to hand the disk model (`None` when disabled).
    pub fn disk_policy(&self) -> Option<SimDuration> {
        self.enabled.then_some(Self::DISK_SPIN_DOWN)
    }

    /// Whether the radio may enter standby: it stays in standby except
    /// during RPC and bulk-transfer windows whenever the policy is on.
    pub fn radio_policy(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_policy_matches_paper() {
        let p = PmPolicy::enabled();
        assert!(p.enabled);
        assert_eq!(p.disk_policy(), Some(SimDuration::from_secs(10)));
        assert!(p.radio_policy());
    }

    #[test]
    fn disabled_policy_turns_everything_off() {
        let p = PmPolicy::disabled();
        assert!(!p.enabled);
        assert_eq!(p.disk_policy(), None);
        assert!(!p.radio_policy());
    }
}
