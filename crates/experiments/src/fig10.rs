//! Figure 10: energy impact of fidelity for map viewing.
//!
//! Four city maps × seven bars: baseline, hardware-only, two filter
//! levels, cropping, and cropping combined with each filter — all at the
//! default five-second think time.

use odyssey_apps::datasets::{DEFAULT_THINK_S, MAPS};
use odyssey_apps::map::MapFilter;
use odyssey_apps::MapFidelity;

use crate::barchart::{self, BarChart};
use crate::builds;
use crate::harness::Trials;

/// The seven experimental conditions, in figure order: the fidelity and
/// whether hardware power management is on.
pub fn conditions() -> Vec<(&'static str, (MapFidelity, bool))> {
    let f = |filter, cropped| MapFidelity { filter, cropped };
    vec![
        ("Baseline", (MapFidelity::full(), false)),
        ("Hardware-Only Power Mgmt.", (MapFidelity::full(), true)),
        ("Minor Road Filter", (f(MapFilter::Minor, false), true)),
        (
            "Secondary Road Filter",
            (f(MapFilter::Secondary, false), true),
        ),
        ("Cropped", (f(MapFilter::None, true), true)),
        ("Cropped-Minor", (f(MapFilter::Minor, true), true)),
        ("Cropped-Secondary", (f(MapFilter::Secondary, true), true)),
    ]
}

/// Runs the full figure at the default think time, with the map
/// application's doubled trial count, as one [`barchart::run`] grid
/// labelled `fig10/<map>/<condition>`.
pub fn run(trials: &Trials) -> BarChart {
    barchart::run(
        &trials.doubled(),
        &format!(
            "Figure 10: Energy impact of fidelity for map viewing (J, think={DEFAULT_THINK_S}s)"
        ),
        "fig10",
        &MAPS.map(|map| (map.name, map)),
        &conditions(),
        |map, &(fidelity, pm), rng| builds::map(*map, fidelity, pm, DEFAULT_THINK_S, rng),
    )
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
