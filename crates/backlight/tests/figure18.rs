//! Figure 18 pinned to the paper's stated percentages.
//!
//! Section 4.2 states the zoned-backlight savings in prose: "the savings
//! for the video application would be 17-18% [4-zone, hardware-only
//! power management] ... 24% and 28-29% [lowest fidelity, 4- and
//! 8-zone] ... the map application would only save 7-8% [8-zone, full
//! fidelity] ... 17% and 21-22% [lowest fidelity, 4- and 8-zone]."
//!
//! The projection model makes each of those a closed-form function of
//! two inputs: the zone occupancy (pure geometry, pinned in the zone
//! tests) and the display's share of total energy in the underlying
//! measurement. This test drives `project_report` with the display
//! shares implied by the 560X calibration — the display claims a larger
//! share at lower fidelity because adaptation shrinks every *other*
//! component — and asserts the projected saving lands inside the
//! percentage band the paper prints. A change to `dim_ratio`, the zone
//! geometry, or the projection arithmetic moves at least one band.

use backlight::project::{dim_ratio, project_report, zoned_energy_j};
use backlight::{
    WindowRect, ZoneGrid, MAP_FULL_WINDOW, MAP_LOWEST_WINDOW, VIDEO_FULL_WINDOW,
    VIDEO_REDUCED_WINDOW,
};
use machine::{ComponentTotals, RunReport};
use simcore::Joules;
use simcore::SimTime;

/// A synthetic measurement with a chosen display share.
fn report_with_display_share(share: f64) -> RunReport {
    let total_j = 1000.0;
    RunReport {
        end: SimTime::from_secs(100),
        total_j: Joules(total_j),
        buckets: vec![],
        components: ComponentTotals {
            display_j: Joules(total_j * share),
            ..Default::default()
        },
        detail: vec![],
        fidelity: vec![],
        exhausted: false,
        residual_j: Joules(f64::INFINITY),
        bytes_carried: 0,
        rpc_timeouts: 0,
        rpc_retries: 0,
    }
}

/// Percentage saved by projecting `report` onto `grid` with `window`.
fn saving_pct(report: &RunReport, grid: ZoneGrid, window: WindowRect) -> f64 {
    let p = project_report(report, grid, window);
    p.saved_j / report.total_j * 100.0
}

/// The panel's dim/bright ratio drives every number below; pin it to the
/// calibrated 560X value (2.066 W dim / 4.54 W bright).
#[test]
fn dim_ratio_matches_calibration() {
    assert!(
        (dim_ratio() - 2.066 / 4.54).abs() < 1e-12,
        "dim_ratio {} drifted from the 560X calibration",
        dim_ratio()
    );
}

/// "For the hardware-only traces at full data fidelity, the savings for
/// the video application would be 17-18%" — one lit zone of four. The
/// video at full fidelity draws ~43% of total energy as display.
#[test]
fn video_hw_only_saves_17_to_18_pct() {
    let r = report_with_display_share(0.43);
    let four = saving_pct(&r, ZoneGrid::four_zone(), VIDEO_FULL_WINDOW);
    assert!((17.0..=18.0).contains(&four), "4-zone saving {four}%");
    // 2 of 8 zones is the same lit fraction as 1 of 4: the 8-zone
    // display buys the full-fidelity video nothing extra.
    let eight = saving_pct(&r, ZoneGrid::eight_zone(), VIDEO_FULL_WINDOW);
    assert!(
        (four - eight).abs() < 1e-9,
        "equal lit fractions must save equally: {four}% vs {eight}%"
    );
}

/// "If the user was willing to tolerate degraded fidelity, the savings
/// would increase to 24% and 28-29%" — the reduced-size video window in
/// one zone of four, then one of eight. At lowest fidelity the display
/// share rises to ~60% of the (smaller) total.
#[test]
fn video_lowest_fidelity_saves_24_then_28_to_29_pct() {
    let r = report_with_display_share(0.60);
    let four = saving_pct(&r, ZoneGrid::four_zone(), VIDEO_REDUCED_WINDOW);
    assert!((23.5..=25.0).contains(&four), "4-zone saving {four}%");
    let eight = saving_pct(&r, ZoneGrid::eight_zone(), VIDEO_REDUCED_WINDOW);
    assert!((28.0..=29.0).contains(&eight), "8-zone saving {eight}%");
}

/// "The map application would only save 7-8% with the 8-zone display" —
/// six zones stay lit — "and nothing with the 4-zone display", where the
/// full-fidelity map lights all four zones.
#[test]
fn map_full_fidelity_saves_7_to_8_pct_on_8_zones_only() {
    let r = report_with_display_share(0.57);
    let eight = saving_pct(&r, ZoneGrid::eight_zone(), MAP_FULL_WINDOW);
    assert!((7.0..=8.0).contains(&eight), "8-zone saving {eight}%");
    let four = saving_pct(&r, ZoneGrid::four_zone(), MAP_FULL_WINDOW);
    assert!(
        four.abs() < 1e-9,
        "all 4 zones lit: projection must be the identity, saved {four}%"
    );
}

/// "At lowest fidelity ... 17% and 21-22%" — the cropped map in two
/// zones of four, then three of eight.
#[test]
fn map_lowest_fidelity_saves_17_then_21_to_22_pct() {
    let r = report_with_display_share(0.64);
    let four = saving_pct(&r, ZoneGrid::four_zone(), MAP_LOWEST_WINDOW);
    assert!((16.5..=18.0).contains(&four), "4-zone saving {four}%");
    let eight = saving_pct(&r, ZoneGrid::eight_zone(), MAP_LOWEST_WINDOW);
    assert!((21.0..=22.0).contains(&eight), "8-zone saving {eight}%");
}

/// Edge case: a single-zone display *is* the conventional display — any
/// window lights its only zone, so the projection is the identity and
/// "zoning" degenerates to no saving at all.
#[test]
fn one_zone_display_is_the_identity_projection() {
    let r = report_with_display_share(0.5);
    for window in [
        VIDEO_FULL_WINDOW,
        VIDEO_REDUCED_WINDOW,
        MAP_LOWEST_WINDOW,
        WindowRect::full_screen(),
    ] {
        let p = project_report(&r, ZoneGrid::single(), window);
        assert_eq!(p.zones_lit, 1);
        assert!(
            p.saved_j.abs() < Joules(1e-9) && (p.energy_j - r.total_j).abs() < Joules(1e-9),
            "single-zone projection moved energy: {p:?}"
        );
    }
}

/// Edge case: a full-screen window lights every zone of every grid — no
/// zone is ever dimmed, so no display energy is saved.
#[test]
fn all_zones_lit_saves_nothing() {
    let r = report_with_display_share(0.5);
    for grid in [ZoneGrid::four_zone(), ZoneGrid::eight_zone()] {
        let e = zoned_energy_j(&r, grid, WindowRect::full_screen());
        assert!(
            (e - r.total_j).abs() < Joules(1e-9),
            "{}x{} grid saved energy with all zones lit",
            grid.cols,
            grid.rows
        );
    }
}

/// Edge case: a report with no display energy is immune to zoning, and
/// saved energy can never exceed what the display consumed.
#[test]
fn savings_are_bounded_by_display_energy() {
    let dark = report_with_display_share(0.0);
    let p = project_report(&dark, ZoneGrid::eight_zone(), VIDEO_REDUCED_WINDOW);
    assert!(
        p.saved_j.abs() < Joules(1e-9),
        "saved energy without a display"
    );

    let bright = report_with_display_share(0.64);
    for grid in [ZoneGrid::four_zone(), ZoneGrid::eight_zone()] {
        for window in [VIDEO_FULL_WINDOW, MAP_LOWEST_WINDOW] {
            let p = project_report(&bright, grid, window);
            let ceiling = bright.components.display_j * (1.0 - dim_ratio());
            assert!(
                p.saved_j >= Joules(0.0) && p.saved_j <= ceiling + Joules(1e-9),
                "saving {} outside [0, {ceiling}]",
                p.saved_j
            );
        }
    }
}

/// The savings grow monotonically along the paper's narrative axes: more
/// zones never hurt, and a larger display share always magnifies the
/// zoned saving.
#[test]
fn savings_monotone_in_zones_and_display_share() {
    for share in [0.2, 0.43, 0.64] {
        let r = report_with_display_share(share);
        for window in [VIDEO_REDUCED_WINDOW, MAP_LOWEST_WINDOW] {
            let one = saving_pct(&r, ZoneGrid::single(), window);
            let four = saving_pct(&r, ZoneGrid::four_zone(), window);
            let eight = saving_pct(&r, ZoneGrid::eight_zone(), window);
            assert!(one <= four + 1e-9 && four <= eight + 1e-9);
        }
    }
    let lean = report_with_display_share(0.3);
    let rich = report_with_display_share(0.6);
    let window = MAP_LOWEST_WINDOW;
    assert!(
        saving_pct(&lean, ZoneGrid::eight_zone(), window)
            < saving_pct(&rich, ZoneGrid::eight_zone(), window)
    );
}
