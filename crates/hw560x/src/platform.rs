//! Whole-platform power aggregation.
//!
//! Given the instantaneous state of every component, this module answers
//! what the external multimeter would read. The paper observed that total
//! power is "slightly but consistently superlinear" in the components
//! (0.21 W above the sum at full-on); we model that as a correction
//! proportional to the component sum's excess over the base, which
//! reproduces both of the paper's anchor totals (see `calib`).

use simcore::Watts;

use crate::calib::PlatformSpec;
use crate::cpu;
use crate::disk::DiskState;
use crate::display::DisplayState;
use crate::wavelan::RadioState;

/// Instantaneous state of all power-relevant components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceStates {
    /// Backlight state.
    pub display: DisplayState,
    /// Disk state.
    pub disk: DiskState,
    /// Radio state.
    pub radio: RadioState,
    /// Effective CPU load in `[0, 1]` (busy fraction × workload intensity).
    pub cpu_load: f64,
}

impl DeviceStates {
    /// Everything quiet with the display bright — the paper's 10.28 W
    /// reference state.
    pub fn full_on_idle() -> Self {
        DeviceStates {
            display: DisplayState::Bright,
            disk: DiskState::Idle,
            radio: RadioState::Idle,
            cpu_load: 0.0,
        }
    }

    /// The paper's 5.6 W background state: display dim, disk and radio in
    /// standby.
    pub fn background() -> Self {
        DeviceStates {
            display: DisplayState::Dim,
            disk: DiskState::Standby,
            radio: RadioState::Standby,
            cpu_load: 0.0,
        }
    }
}

/// Per-component decomposition of platform power, W.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Display backlight.
    pub display_w: Watts,
    /// Disk.
    pub disk_w: Watts,
    /// WaveLAN radio.
    pub radio_w: Watts,
    /// CPU + memory excess over halt.
    pub cpu_w: Watts,
    /// Chipset, DRAM refresh, regulators, CPU halt.
    pub base_w: Watts,
    /// Superlinear correction.
    pub superlinear_w: Watts,
}

impl PowerBreakdown {
    /// Total platform power, W.
    #[inline]
    pub fn total_w(&self) -> Watts {
        self.display_w + self.disk_w + self.radio_w + self.cpu_w + self.base_w + self.superlinear_w
    }
}

/// The platform power model.
#[derive(Clone, Debug)]
pub struct PlatformPower {
    spec: PlatformSpec,
}

impl PlatformPower {
    /// Creates a model from a spec.
    pub fn new(spec: PlatformSpec) -> Self {
        PlatformPower { spec }
    }

    /// The spec this model was built from.
    #[inline]
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Per-component power at the given states.
    #[inline]
    pub fn breakdown(&self, s: &DeviceStates) -> PowerBreakdown {
        let display_w = s.display.power_w(&self.spec);
        let disk_w = s.disk.power_w(&self.spec);
        let radio_w = s.radio.power_w(&self.spec);
        let cpu_w = cpu::excess_power_w(&self.spec, s.cpu_load);
        let base_w = self.spec.base_other_w;
        let component_excess = display_w + disk_w + radio_w + cpu_w;
        let superlinear_w = self.spec.superlinear_coeff * component_excess;
        PowerBreakdown {
            display_w,
            disk_w,
            radio_w,
            cpu_w,
            base_w,
            superlinear_w,
        }
    }

    /// Total platform power at the given states, W.
    #[inline]
    pub fn power_w(&self, s: &DeviceStates) -> Watts {
        self.breakdown(s).total_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PlatformPower {
        PlatformPower::new(PlatformSpec::default())
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = model();
        let s = DeviceStates {
            display: DisplayState::Bright,
            disk: DiskState::Active,
            radio: RadioState::Active,
            cpu_load: 0.7,
        };
        let b = m.breakdown(&s);
        assert!((b.total_w() - m.power_w(&s)).abs() < Watts(1e-12));
    }

    #[test]
    fn reference_states_match_paper() {
        let m = model();
        assert!((m.power_w(&DeviceStates::full_on_idle()).0 - 10.28).abs() < 0.01);
        assert!((m.power_w(&DeviceStates::background()).0 - 5.60).abs() < 0.01);
    }

    #[test]
    fn cpu_load_raises_power() {
        let m = model();
        let mut s = DeviceStates::full_on_idle();
        let idle = m.power_w(&s);
        s.cpu_load = 1.0;
        let busy = m.power_w(&s);
        assert!(busy > idle + m.spec().cpu_max_excess_w * 0.99);
    }

    #[test]
    fn superlinearity_grows_with_component_power() {
        let m = model();
        let quiet = m.breakdown(&DeviceStates::background()).superlinear_w;
        let loud = m
            .breakdown(&DeviceStates {
                display: DisplayState::Bright,
                disk: DiskState::Active,
                radio: RadioState::Active,
                cpu_load: 1.0,
            })
            .superlinear_w;
        assert!(loud > quiet);
    }

    #[test]
    fn power_is_monotone_in_each_component() {
        let m = model();
        let base = DeviceStates::background();
        let p0 = m.power_w(&base);
        for s in [
            DeviceStates {
                display: DisplayState::Bright,
                ..base
            },
            DeviceStates {
                disk: DiskState::Idle,
                ..base
            },
            DeviceStates {
                radio: RadioState::Idle,
                ..base
            },
            DeviceStates {
                cpu_load: 0.5,
                ..base
            },
        ] {
            assert!(m.power_w(&s) > p0, "raising {s:?} must raise power");
        }
    }
}
