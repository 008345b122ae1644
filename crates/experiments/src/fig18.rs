//! Figure 18: projected energy impact of zoned backlighting.
//!
//! The video and map experiments are re-expressed on hypothetical 4-zone
//! and 8-zone displays: measured display energy is scaled by the fraction
//! of zones each application's window lights (Section 4.2's projection).
//! All entries are normalized to the unzoned baseline measurement.

use backlight::{
    ZoneGrid, MAP_FULL_WINDOW, MAP_LOWEST_WINDOW, VIDEO_FULL_WINDOW, VIDEO_REDUCED_WINDOW,
};
use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{MAPS, VIDEO_CLIPS};
use odyssey_apps::map::{MapFilter, MapViewer};
use odyssey_apps::{MapFidelity, VideoPlayer, VideoVariant};
use simcore::{SimDuration, SimRng};

use crate::harness::{mean_display_j, run_trials, Trials};
use crate::table::{ratio, Table};

/// One row: an application (at a think time) with normalized energies.
#[derive(Clone, Debug)]
pub struct ZonedRow {
    /// Application name.
    pub app: &'static str,
    /// Think time, seconds (`None` for video).
    pub think_s: Option<f64>,
    /// Hardware-only PM at full fidelity: [no zones, 4-zone, 8-zone],
    /// normalized to baseline.
    pub hw_only: [f64; 3],
    /// Lowest fidelity with PM ("Combined"): [no zones, 4-zone, 8-zone].
    pub combined: [f64; 3],
}

/// The full projection.
#[derive(Clone, Debug)]
pub struct Fig18 {
    /// Video row then map rows by think time.
    pub rows: Vec<ZonedRow>,
}

struct Measured {
    total_j: f64,
    display_j: f64,
}

fn project(m: &Measured, grid: ZoneGrid, window: backlight::WindowRect) -> f64 {
    let lit = grid.zones_snapped(window);
    let frac = grid.lit_fraction(lit);
    // Unlit zones drop to the dim level (see backlight::project).
    let factor = frac + (1.0 - frac) * backlight::project::dim_ratio();
    m.total_j - m.display_j * (1.0 - factor)
}

fn measure(
    trials: &Trials,
    label: &str,
    build: impl Fn(&mut SimRng) -> Machine + Sync,
) -> Measured {
    let reports = run_trials(trials, label, build);
    Measured {
        total_j: crate::harness::energy_stats(&reports).mean,
        display_j: mean_display_j(&reports).0,
    }
}

fn zoned_triplet(m: &Measured, window: backlight::WindowRect, baseline_j: f64) -> [f64; 3] {
    [
        m.total_j / baseline_j,
        project(m, ZoneGrid::four_zone(), window) / baseline_j,
        project(m, ZoneGrid::eight_zone(), window) / baseline_j,
    ]
}

/// Runs the projection with the paper's think times for the map rows.
pub fn run(trials: &Trials) -> Fig18 {
    run_with_thinks(trials, &[0.0, 5.0, 10.0, 20.0])
}

/// Runs the projection with chosen map think times.
pub fn run_with_thinks(trials: &Trials, thinks: &[f64]) -> Fig18 {
    let mut rows = Vec::new();

    // Video: baseline, hardware-only (full window), combined (reduced
    // window).
    let video = |variant: VideoVariant, pm: bool, rng: &mut SimRng| {
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(VideoPlayer::fixed(VIDEO_CLIPS[0], variant, rng)));
        m
    };
    let base = measure(trials, "fig18/video/base", |rng| {
        video(VideoVariant::Full, false, rng)
    });
    let hw = measure(trials, "fig18/video/hw", |rng| {
        video(VideoVariant::Full, true, rng)
    });
    let low = measure(trials, "fig18/video/low", |rng| {
        video(VideoVariant::Combined, true, rng)
    });
    rows.push(ZonedRow {
        app: "Video",
        think_s: None,
        hw_only: zoned_triplet(&hw, VIDEO_FULL_WINDOW, base.total_j),
        combined: zoned_triplet(&low, VIDEO_REDUCED_WINDOW, base.total_j),
    });

    // Map rows per think time.
    let map = |fid: MapFidelity, pm: bool, think: f64, rng: &mut SimRng| {
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(
            MapViewer::fixed(vec![MAPS[0]], fid, rng)
                .with_think_time(SimDuration::from_secs_f64(think)),
        ));
        m
    };
    let lowest = MapFidelity {
        filter: MapFilter::Secondary,
        cropped: true,
    };
    for &think in thinks {
        let base = measure(trials, &format!("fig18/map/base/{think}"), |rng| {
            map(MapFidelity::full(), false, think, rng)
        });
        let hw = measure(trials, &format!("fig18/map/hw/{think}"), |rng| {
            map(MapFidelity::full(), true, think, rng)
        });
        let low = measure(trials, &format!("fig18/map/low/{think}"), |rng| {
            map(lowest, true, think, rng)
        });
        rows.push(ZonedRow {
            app: "Map",
            think_s: Some(think),
            hw_only: zoned_triplet(&hw, MAP_FULL_WINDOW, base.total_j),
            combined: zoned_triplet(&low, MAP_LOWEST_WINDOW, base.total_j),
        });
    }
    Fig18 { rows }
}

/// Renders the projection table.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut t = Table::new(
        "Figure 18: Projected energy impact of zoned backlighting (normalized)",
        &[
            "App",
            "Think (s)",
            "HW-only NoZones",
            "HW 4-Zone",
            "HW 8-Zone",
            "Comb NoZones",
            "Comb 4-Zone",
            "Comb 8-Zone",
        ],
    );
    for r in &f.rows {
        t.push_row(vec![
            r.app.to_string(),
            r.think_s.map(|s| format!("{s}")).unwrap_or("N/A".into()),
            ratio(r.hw_only[0]),
            ratio(r.hw_only[1]),
            ratio(r.hw_only[2]),
            ratio(r.combined[0]),
            ratio(r.combined[1]),
            ratio(r.combined[2]),
        ]);
    }
    t.with_caption(
        "Zone counts: video 1/4 & 2/8 full, 1/8 reduced; map 4/4 & 6/8 full, 2/4 & 3/8 lowest.",
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig18 {
        run_with_thinks(&Trials::single(), &[5.0])
    }

    /// Video at full fidelity fits one of four zones → a large share of
    /// display energy disappears (paper: 17-18% reduction at think 5 s is
    /// for the map; for video the 4-zone saving is visible immediately).
    #[test]
    fn video_zones_save_energy() {
        let f = fig();
        let v = &f.rows[0];
        assert!(v.hw_only[1] < v.hw_only[0], "4-zone must beat no-zones");
        assert!(
            v.hw_only[2] <= v.hw_only[1] + 1e-9,
            "8-zone at least as good"
        );
        // Combined + zones is the cheapest cell in the row.
        assert!(v.combined[2] < v.hw_only[0]);
    }

    /// The map at full fidelity lights all four zones: no 4-zone benefit.
    #[test]
    fn full_map_gets_no_4zone_benefit() {
        let f = fig();
        let m = f.rows.iter().find(|r| r.app == "Map").unwrap();
        assert!(
            (m.hw_only[1] - m.hw_only[0]).abs() < 1e-9,
            "4 zones lit of 4: projection must be identity"
        );
        // But 6 of 8 zones → an 8-zone benefit exists.
        assert!(m.hw_only[2] < m.hw_only[0]);
    }

    /// Lowering fidelity enhances the zoned savings (the paper's second
    /// key result).
    #[test]
    fn fidelity_enhances_zoned_savings() {
        let f = fig();
        let m = f.rows.iter().find(|r| r.app == "Map").unwrap();
        let hw_zone_gain = m.hw_only[0] - m.hw_only[2];
        let comb_zone_gain = m.combined[0] - m.combined[2];
        assert!(
            comb_zone_gain > hw_zone_gain,
            "lowest-fidelity zone gain {comb_zone_gain} not above full-fidelity {hw_zone_gain}"
        );
    }

    /// Projected savings land in the paper's 7-29% envelope.
    #[test]
    fn savings_envelope() {
        let f = fig();
        for r in &f.rows {
            for (all, zoned) in [(r.hw_only[0], r.hw_only[2]), (r.combined[0], r.combined[2])] {
                let saving = (all - zoned) / all;
                assert!(
                    (0.0..=0.35).contains(&saving),
                    "{} zoned saving {saving} outside envelope",
                    r.app
                );
            }
        }
    }
}
