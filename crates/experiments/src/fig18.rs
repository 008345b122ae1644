//! Figure 18: projected energy impact of zoned backlighting.
//!
//! The video and map experiments are re-expressed on hypothetical 4-zone
//! and 8-zone displays: measured display energy is scaled by the fraction
//! of zones each application's window lights (Section 4.2's projection).
//! All entries are normalized to the unzoned baseline measurement.

use backlight::{
    ZoneGrid, MAP_FULL_WINDOW, MAP_LOWEST_WINDOW, VIDEO_FULL_WINDOW, VIDEO_REDUCED_WINDOW,
};
use machine::Machine;
use odyssey_apps::datasets::{MAPS, VIDEO_CLIPS};
use odyssey_apps::{MapFidelity, VideoVariant};
use simcore::{SimRng, TrialStats};

use crate::builds;
use crate::harness::{run_grid, Trials};
use crate::table::{ratio, Table};
use crate::thinktime::THINK_TIMES;

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

/// The three measured regimes of every row, in row order: name (the
/// label's regime part), lowest fidelity, hardware power management.
const REGIMES: [(&str, bool, bool); 3] = [
    ("base", false, false),
    ("hw", false, true),
    ("low", true, true),
];

/// Mean total and display energy of one cell, J.
struct Measured {
    total_j: f64,
    display_j: f64,
}

impl Measured {
    /// Reduces a cell's per-trial `(total_j, display_j)` pairs.
    fn of(runs: &[(f64, f64)]) -> Measured {
        let (totals, displays): (Vec<f64>, Vec<f64>) = runs.iter().copied().unzip();
        Measured {
            total_j: TrialStats::from_values(&totals).mean,
            display_j: TrialStats::from_values(&displays).mean,
        }
    }
}

fn project(m: &Measured, grid: ZoneGrid, window: backlight::WindowRect) -> f64 {
    let lit = grid.zones_snapped(window);
    let frac = grid.lit_fraction(lit);
    // Unlit zones drop to the dim level (see backlight::project).
    let factor = frac + (1.0 - frac) * backlight::project::dim_ratio();
    m.total_j - m.display_j * (1.0 - factor)
}

fn zoned_triplet(m: &Measured, window: backlight::WindowRect, baseline_j: f64) -> [f64; 3] {
    [
        m.total_j / baseline_j,
        project(m, ZoneGrid::four_zone(), window) / baseline_j,
        project(m, ZoneGrid::eight_zone(), window) / baseline_j,
    ]
}

/// Builds one cell's machine: the video clip when `think_s` is `None`,
/// else the map at that think time.
fn build(think_s: Option<f64>, lowest: bool, pm: bool, rng: &mut SimRng) -> Machine {
    match think_s {
        None => {
            let variant = builds::ladder_end(&VideoVariant::LADDER, lowest);
            builds::video(VIDEO_CLIPS[0], variant, pm, rng)
        }
        Some(think) => {
            let fidelity = builds::ladder_end(&MapFidelity::LADDER, lowest);
            builds::map(MAPS[0], fidelity, pm, think, rng)
        }
    }
}

/// Runs the projection with the paper's think times for the map rows.
pub fn run(trials: &Trials) -> Fig18 {
    run_with_thinks(trials, &THINK_TIMES)
}

/// Runs the projection with chosen map think times: a video row, then a
/// map row per think time, each measuring baseline, hardware-only (full
/// window) and combined (reduced window).
///
/// Every `(row, regime, trial)` run is one job of a single [`run_grid`]
/// dispatch on `fork_indexed("fig18/video/<regime>", i)` or
/// `fork_indexed("fig18/map/<regime>/<think>", i)`, and returns only its
/// total and display energy.
pub fn run_with_thinks(trials: &Trials, thinks: &[f64]) -> Fig18 {
    let row_thinks: Vec<Option<f64>> = std::iter::once(None)
        .chain(thinks.iter().copied().map(Some))
        .collect();
    let cells: Vec<_> = row_thinks
        .iter()
        .flat_map(|&think_s| REGIMES.map(|regime| (think_s, regime)))
        .collect();
    let root = SimRng::new(trials.seed);
    let runs = run_grid(trials, &cells, |&(think_s, (regime, lowest, pm)), i| {
        let label = match think_s {
            None => format!("fig18/video/{regime}"),
            Some(think) => format!("fig18/map/{regime}/{think}"),
        };
        let rng = &mut root.fork_indexed(&label, i as u64);
        let report = build(think_s, lowest, pm, rng).run();
        (report.total_j.0, report.components.display_j.0)
    });
    let rows = row_thinks
        .iter()
        .zip(runs.chunks_exact(REGIMES.len()))
        .map(|(&think_s, runs)| {
            let [base, hw, low] = [0, 1, 2].map(|r| Measured::of(&runs[r]));
            let (app, full_window, low_window) = match think_s {
                None => ("Video", VIDEO_FULL_WINDOW, VIDEO_REDUCED_WINDOW),
                Some(_) => ("Map", MAP_FULL_WINDOW, MAP_LOWEST_WINDOW),
            };
            ZonedRow {
                app,
                think_s,
                hw_only: zoned_triplet(&hw, full_window, base.total_j),
                combined: zoned_triplet(&low, low_window, base.total_j),
            }
        })
        .collect();
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
