//! Energy projection onto zoned displays.
//!
//! Section 4.2's method: take a measured experiment, keep everything but
//! the display energy, and scale the display energy by the fraction of
//! zones the application's window lights. Unlit zones are *dim*, not
//! dark — "only the window in focus might be brightly illuminated, while
//! the rest of the screen is dim" — so the display power factor is
//! `lit_frac + (1 - lit_frac) * dim_ratio`, where `dim_ratio` is the
//! dim/bright power ratio of the panel (≈0.455 for the 560X). This
//! reproduces every percentage the paper states: video 17-18% (4-zone,
//! hardware-only), 24% / 28-29% at lowest fidelity; map 7-8% (8-zone
//! full) and 17% / 21-22% lowest.

use hw560x::PlatformSpec;
use machine::RunReport;
use simcore::Joules;

use crate::zone::{WindowRect, ZoneGrid};

/// Dim/bright display power ratio of the calibrated 560X panel.
pub fn dim_ratio() -> f64 {
    let spec = PlatformSpec::thinkpad_560x();
    spec.display_dim_w / spec.display_bright_w
}

/// Projected total energy of a run on a zoned display.
///
/// `report` is a run on the conventional display; the projection scales
/// its display energy so lit zones stay bright and unlit zones drop to
/// the dim level.
pub fn zoned_energy_j(report: &RunReport, grid: ZoneGrid, window: WindowRect) -> Joules {
    let lit = grid.zones_snapped(window);
    let frac = grid.lit_fraction(lit);
    let factor = frac + (1.0 - frac) * dim_ratio();
    report.total_j - report.components.display_j * (1.0 - factor)
}

/// Projection result for one (grid, window) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projection {
    /// Zones lit.
    pub zones_lit: u32,
    /// Total zones.
    pub zones_total: u32,
    /// Projected total energy.
    pub energy_j: Joules,
    /// Energy saved relative to the unzoned run.
    pub saved_j: Joules,
}

/// Projects a run report onto a zoned display.
pub fn project_report(report: &RunReport, grid: ZoneGrid, window: WindowRect) -> Projection {
    let energy_j = zoned_energy_j(report, grid, window);
    Projection {
        zones_lit: grid.zones_snapped(window),
        zones_total: grid.total(),
        energy_j,
        saved_j: report.total_j - energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::ComponentTotals;
    use simcore::SimTime;

    fn report(total_j: f64, display_j: f64) -> RunReport {
        RunReport {
            end: SimTime::from_secs(100),
            total_j: Joules(total_j),
            buckets: vec![],
            components: ComponentTotals {
                display_j: Joules(display_j),
                ..Default::default()
            },
            detail: vec![],
            fidelity: vec![],
            exhausted: false,
            residual_j: Joules::INFINITY,
            bytes_carried: 0,
            rpc_timeouts: 0,
            rpc_retries: 0,
        }
    }

    #[test]
    fn one_of_four_zones_dims_three_quarters_of_display() {
        let r = report(1000.0, 400.0);
        let e = zoned_energy_j(&r, ZoneGrid::four_zone(), crate::VIDEO_FULL_WINDOW);
        // factor = 1/4 + 3/4 * dim_ratio; saving = 400 * (1 - factor).
        let expected = 1000.0 - 400.0 * 0.75 * (1.0 - dim_ratio());
        assert!(
            (e - Joules(expected)).abs() < Joules(1e-9),
            "{e} vs {expected}"
        );
    }

    #[test]
    fn full_screen_window_saves_nothing() {
        let r = report(1000.0, 400.0);
        let p = project_report(&r, ZoneGrid::four_zone(), WindowRect::full_screen());
        assert_eq!(p.zones_lit, 4);
        assert!((p.saved_j).abs() < Joules(1e-9));
    }

    #[test]
    fn more_zones_save_more_for_small_windows() {
        let r = report(1000.0, 400.0);
        let four = zoned_energy_j(&r, ZoneGrid::four_zone(), crate::VIDEO_REDUCED_WINDOW);
        let eight = zoned_energy_j(&r, ZoneGrid::eight_zone(), crate::VIDEO_REDUCED_WINDOW);
        assert!(eight < four, "8-zone {eight} not below 4-zone {four}");
    }

    #[test]
    fn projection_accounting_is_consistent() {
        let r = report(500.0, 150.0);
        let p = project_report(&r, ZoneGrid::eight_zone(), crate::MAP_LOWEST_WINDOW);
        assert_eq!(p.zones_lit, 3);
        assert_eq!(p.zones_total, 8);
        assert!((p.energy_j + p.saved_j - r.total_j).abs() < Joules(1e-9));
        // 150 * (5/8) * (1 - dim_ratio) saved.
        let expected = 150.0 * (5.0 / 8.0) * (1.0 - dim_ratio());
        assert!((p.saved_j - Joules(expected)).abs() < Joules(1e-9));
    }

    #[test]
    fn single_zone_grid_is_identity() {
        let r = report(800.0, 300.0);
        let e = zoned_energy_j(&r, ZoneGrid::single(), crate::VIDEO_FULL_WINDOW);
        assert!((e - Joules(800.0)).abs() < Joules(1e-9));
    }
}
