//! Figure 10: energy impact of fidelity for map viewing.
//!
//! Four city maps × seven bars: baseline, hardware-only, two filter
//! levels, cropping, and cropping combined with each filter — all at the
//! default five-second think time.

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{MapObject, MAPS};
use odyssey_apps::map::{MapFilter, MapViewer};
use odyssey_apps::MapFidelity;
use simcore::{SimDuration, SimRng};

use crate::barchart::BarChart;
use crate::harness::{run_grid, Trials};

/// The seven experimental conditions, in figure order.
pub fn conditions() -> Vec<(&'static str, MapFidelity, bool)> {
    let f = |filter, cropped| MapFidelity { filter, cropped };
    vec![
        ("Baseline", MapFidelity::full(), false),
        ("Hardware-Only Power Mgmt.", MapFidelity::full(), true),
        ("Minor Road Filter", f(MapFilter::Minor, false), true),
        (
            "Secondary Road Filter",
            f(MapFilter::Secondary, false),
            true,
        ),
        ("Cropped", f(MapFilter::None, true), true),
        ("Cropped-Minor", f(MapFilter::Minor, true), true),
        ("Cropped-Secondary", f(MapFilter::Secondary, true), true),
    ]
}

fn build(
    map: MapObject,
    fidelity: MapFidelity,
    pm: bool,
    think_s: f64,
    rng: &mut SimRng,
) -> Machine {
    let cfg = if pm {
        MachineConfig::default()
    } else {
        MachineConfig::baseline()
    };
    let mut m = Machine::new(cfg);
    m.add_process(Box::new(
        MapViewer::fixed(vec![map], fidelity, rng)
            .with_think_time(SimDuration::from_secs_f64(think_s)),
    ));
    m
}

/// Runs the full figure at a given think time (Figure 10 uses 5 s).
/// Every `(map, condition, trial)` run is one job of a single
/// [`run_grid`] dispatch; trial `i` of a bar runs on
/// `fork_indexed("fig10/<map>/<condition>", i)`.
pub fn run_at_think(trials: &Trials, think_s: f64) -> BarChart {
    // The paper uses ten trials (twice the video/speech count) for this
    // application; scale whatever the caller asked for accordingly.
    let trials = &Trials {
        n: trials.n * 2,
        ..*trials
    };
    let cells: Vec<(&MapObject, (&str, MapFidelity, bool))> = MAPS
        .iter()
        .flat_map(|map| {
            conditions()
                .into_iter()
                .map(move |condition| (map, condition))
        })
        .collect();
    let root = SimRng::new(trials.seed);
    let reports = run_grid(trials, &cells, |&(map, (name, fidelity, pm)), i| {
        let label = format!("fig10/{}/{}", map.name, name);
        let rng = &mut root.fork_indexed(&label, i as u64);
        build(*map, fidelity, pm, think_s, rng).run()
    });
    let mut chart = BarChart::new(format!(
        "Figure 10: Energy impact of fidelity for map viewing (J, think={think_s}s)"
    ));
    for (&(map, (name, ..)), reports) in cells.iter().zip(&reports) {
        chart.push(map.name, name, reports);
    }
    chart
}

/// Runs the figure at the default 5-second think time.
pub fn run(trials: &Trials) -> BarChart {
    run_at_think(trials, 5.0)
}

/// Renders the figure as a table.
pub fn render(trials: &Trials) -> String {
    run(trials).to_table().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> BarChart {
        run(&Trials::quick())
    }

    /// Paper: hardware-only PM reduces map energy by about 9-19%.
    #[test]
    fn hw_only_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Hardware-Only Power Mgmt.", "Baseline");
        assert!(lo > 5.0 && hi < 25.0, "hw-only band {lo}-{hi}%");
    }

    /// Paper: minor road filter saves 6-51% vs hardware-only, with wide
    /// variation across maps.
    #[test]
    fn minor_filter_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Minor Road Filter", "Hardware-Only Power Mgmt.");
        assert!(lo > 2.0 && lo < 20.0, "minor filter low end {lo}%");
        assert!(hi > 25.0 && hi < 60.0, "minor filter high end {hi}%");
    }

    /// Paper: secondary filter saves 23-55% vs hardware-only.
    #[test]
    fn secondary_filter_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Secondary Road Filter", "Hardware-Only Power Mgmt.");
        assert!(lo > 12.0 && hi < 65.0, "secondary band {lo}-{hi}%");
    }

    /// Paper: cropping alone saves 14-49% — "less effective than
    /// filtering for these samples".
    #[test]
    fn crop_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Cropped", "Hardware-Only Power Mgmt.");
        assert!(lo > 8.0 && hi < 60.0, "crop band {lo}-{hi}%");
    }

    /// Paper: combined filter+crop saves 36-66% vs hardware-only and
    /// 46-70% vs baseline.
    #[test]
    fn combined_bands() {
        let c = chart();
        let (lo, hi) = c.saving_band("Cropped-Secondary", "Hardware-Only Power Mgmt.");
        assert!(lo > 25.0 && hi < 75.0, "combined vs hw {lo}-{hi}%");
        let (lo_b, hi_b) = c.saving_band("Cropped-Secondary", "Baseline");
        assert!(
            lo_b > 35.0 && hi_b < 80.0,
            "combined vs baseline {lo_b}-{hi_b}%"
        );
    }
}
