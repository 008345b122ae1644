//! Calibration constants reconstructed from the paper's Figure 4.
//!
//! Figure 4 ("Power consumption of IBM ThinkPad 560X") is partially garbled
//! in our source text, so the constants below were reconstructed to satisfy
//! every consistency identity the prose states. The identities, and the
//! doc tests that pin them, are:
//!
//! 1. "the laptop uses 10.28 W when the screen is brightest and the disk
//!    and network are idle — 0.21 W more than the sum of the individual
//!    power usage of each component" → bright + radio idle + disk idle +
//!    base = 10.07 W, plus 0.21 W superlinearity = 10.28 W.
//! 2. "Background (display dim, WaveLAN & disk standby) = 5.6 W".
//! 3. "The last row shows the power used when the disk, screen, and
//!    network are all powered off" ≈ 3.47 W (the token `3.46` survives in
//!    the garbled table).
//! 4. The display "is responsible for nearly 35% of the background energy
//!    usage" → dim display ≈ 0.35-0.38 of 5.6 W.
//!
//! The CPU's maximum active excess (9.5 W over halt) is calibrated from
//! Section 3.4: hardware-only power management saves 33-34% on the
//! compute-bound speech workload by turning off display/network/disk
//! (≈ 6.8 W), which pins the busy-platform total near 20 W. A mobile
//! Pentium MMX 233 plus its memory system under a cache-hostile search
//! workload plausibly draws that much above halt at the wall.

use simcore::{SimDuration, Watts};

/// Power model parameters for one client platform.
///
/// `Default` yields the calibrated IBM ThinkPad 560X. Experiments that
/// explore other platforms (or ablate the superlinearity term) construct
/// modified specs.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformSpec {
    /// Display backlight at full brightness, W.
    pub display_bright_w: Watts,
    /// Display backlight dimmed, W.
    pub display_dim_w: Watts,
    /// WaveLAN interface awake but not transferring, W.
    pub radio_idle_w: Watts,
    /// WaveLAN interface in standby, W.
    pub radio_standby_w: Watts,
    /// WaveLAN interface actively transmitting/receiving, W.
    pub radio_active_w: Watts,
    /// Disk spinning but idle, W.
    pub disk_idle_w: Watts,
    /// Disk in standby (spun down), W.
    pub disk_standby_w: Watts,
    /// Disk servicing requests, W.
    pub disk_active_w: Watts,
    /// Disk power while spinning up, W.
    pub disk_spinup_w: Watts,
    /// Time to spin the disk up from standby.
    pub disk_spinup_time: SimDuration,
    /// Everything else (CPU in halt, chipset, DRAM refresh, regulators), W.
    pub base_other_w: Watts,
    /// Additional power of CPU + memory system at full load, W.
    pub cpu_max_excess_w: Watts,
    /// Superlinearity coefficient: measured total exceeds the component sum
    /// by this fraction of the sum's excess over `base_other_w`.
    pub superlinear_coeff: f64,
    /// Disk transfer rate, bytes per second.
    pub disk_rate_bps: f64,
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec {
            display_bright_w: Watts(4.54),
            // Derived from identity (2); see `background_identity` test.
            display_dim_w: Watts(2.066),
            radio_idle_w: Watts(1.54),
            radio_standby_w: Watts(0.18),
            radio_active_w: Watts(2.90),
            disk_idle_w: Watts(0.95),
            disk_standby_w: Watts(0.24),
            disk_active_w: Watts(2.25),
            disk_spinup_w: Watts(3.00),
            disk_spinup_time: SimDuration::from_millis(1500),
            base_other_w: Watts(3.04),
            cpu_max_excess_w: Watts(9.5),
            superlinear_coeff: 0.0299,
            disk_rate_bps: 3.0e6,
        }
    }
}

impl PlatformSpec {
    /// The calibrated IBM ThinkPad 560X.
    pub fn thinkpad_560x() -> Self {
        Self::default()
    }

    /// A variant with the superlinearity term removed, for ablations.
    pub fn without_superlinearity(mut self) -> Self {
        self.superlinear_coeff = 0.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeviceStates, PlatformPower};
    use crate::{DiskState, DisplayState, RadioState};

    fn power(display: DisplayState, disk: DiskState, radio: RadioState) -> f64 {
        let p = PlatformPower::new(PlatformSpec::default());
        p.power_w(&DeviceStates {
            display,
            disk,
            radio,
            cpu_load: 0.0,
        })
        .0
    }

    /// Identity (1): screen brightest, disk and network idle → 10.28 W.
    #[test]
    fn full_on_identity() {
        let total = power(DisplayState::Bright, DiskState::Idle, RadioState::Idle);
        assert!(
            (total - 10.28).abs() < 0.01,
            "full-on power {total} != 10.28"
        );
    }

    /// Identity (2): display dim, WaveLAN & disk standby → 5.60 W.
    #[test]
    fn background_identity() {
        let total = power(DisplayState::Dim, DiskState::Standby, RadioState::Standby);
        assert!(
            (total - 5.60).abs() < 0.01,
            "background power {total} != 5.60"
        );
    }

    /// Identity (3): disk, screen, network all "off" → ≈ 3.47 W.
    #[test]
    fn all_off_identity() {
        let total = power(DisplayState::Off, DiskState::Standby, RadioState::Standby);
        assert!(
            (total - 3.47).abs() < 0.01,
            "all-off power {total} not ≈ 3.47"
        );
    }

    /// Identity (4): display is "nearly 35%" of background power.
    #[test]
    fn display_share_of_background() {
        let spec = PlatformSpec::default();
        let frac = spec.display_dim_w.0 / 5.60;
        assert!(
            (0.33..=0.40).contains(&frac),
            "dim display fraction {frac} outside the 'nearly 35%' band"
        );
    }

    /// Superlinearity: full-on exceeds the component sum by ≈ 0.21 W.
    #[test]
    fn superlinearity_magnitude() {
        let spec = PlatformSpec::default();
        let sum = spec.display_bright_w + spec.radio_idle_w + spec.disk_idle_w + spec.base_other_w;
        let total = power(DisplayState::Bright, DiskState::Idle, RadioState::Idle);
        assert!(((total - sum.0) - 0.21).abs() < 0.01);
    }

    /// Ablated spec has no superlinearity.
    #[test]
    fn without_superlinearity_is_additive() {
        let spec = PlatformSpec::default().without_superlinearity();
        let sum = spec.display_bright_w + spec.radio_idle_w + spec.disk_idle_w + spec.base_other_w;
        let p = PlatformPower::new(spec);
        let total = p.power_w(&DeviceStates {
            display: DisplayState::Bright,
            disk: DiskState::Idle,
            radio: RadioState::Idle,
            cpu_load: 0.0,
        });
        assert!((total - sum).abs() < Watts(1e-12));
    }
}
