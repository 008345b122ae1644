//! Figure 13: energy impact of fidelity for Web browsing.
//!
//! Four GIF images × six bars: baseline, hardware-only, and four levels
//! of lossy JPEG transcoding at the distillation server. The paper's
//! message is negative: "the energy benefits of fidelity reduction are
//! disappointing" — 4-14% below hardware-only at best, because think-time
//! background power dominates.

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{WebImage, WEB_IMAGES};
use odyssey_apps::{WebBrowser, WebFidelity};
use simcore::{SimDuration, SimRng};

use crate::barchart::BarChart;
use crate::harness::{run_grid, Trials};

/// The six experimental conditions, in figure order.
pub const CONDITIONS: [(&str, WebFidelity, bool); 6] = [
    ("Baseline", WebFidelity::Full, false),
    ("Hardware-Only Power Mgmt.", WebFidelity::Full, true),
    ("JPEG-75", WebFidelity::Jpeg75, true),
    ("JPEG-50", WebFidelity::Jpeg50, true),
    ("JPEG-25", WebFidelity::Jpeg25, true),
    ("JPEG-5", WebFidelity::Jpeg5, true),
];

/// Builds one experimental cell: a machine browsing `images` at the given
/// fidelity and think time, with or without hardware power management.
/// Public so the trace recorder can replay a canonical condition.
pub fn build(
    images: Vec<WebImage>,
    fidelity: WebFidelity,
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
        WebBrowser::fixed(images, fidelity, rng)
            .with_think_time(SimDuration::from_secs_f64(think_s)),
    ));
    m
}

/// Runs the full figure at a given think time (Figure 13 uses 5 s).
/// Every `(image, condition, trial)` run is one job of a single
/// [`run_grid`] dispatch; trial `i` of a bar runs on
/// `fork_indexed("fig13/<image>/<condition>", i)`.
pub fn run_at_think(trials: &Trials, think_s: f64) -> BarChart {
    // The paper uses ten trials (twice the video/speech count) for this
    // application; scale whatever the caller asked for accordingly.
    let trials = &Trials {
        n: trials.n * 2,
        ..*trials
    };
    let cells: Vec<(&WebImage, (&str, WebFidelity, bool))> = WEB_IMAGES
        .iter()
        .flat_map(|image| CONDITIONS.map(|condition| (image, condition)))
        .collect();
    let root = SimRng::new(trials.seed);
    let reports = run_grid(trials, &cells, |&(image, (name, fidelity, pm)), i| {
        let label = format!("fig13/{}/{}", image.name, name);
        let rng = &mut root.fork_indexed(&label, i as u64);
        build(vec![*image], fidelity, pm, think_s, rng).run()
    });
    let mut chart = BarChart::new(format!(
        "Figure 13: Energy impact of fidelity for Web browsing (J, think={think_s}s)"
    ));
    for (&(image, (name, ..)), reports) in cells.iter().zip(&reports) {
        chart.push(image.name, name, reports);
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

    /// Paper: hardware-only achieves 22-26% (29-34% relative numbers also
    /// appear for baseline at other think times; we pin the 5-second row).
    #[test]
    fn hw_only_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Hardware-Only Power Mgmt.", "Baseline");
        assert!(lo > 15.0 && hi < 33.0, "hw-only band {lo}-{hi}%");
    }

    /// Paper: even JPEG-5 saves merely 4-14% below hardware-only.
    #[test]
    fn fidelity_savings_are_disappointing() {
        let c = chart();
        let (lo, hi) = c.saving_band("JPEG-5", "Hardware-Only Power Mgmt.");
        assert!((-1.0..6.0).contains(&lo), "jpeg-5 low end {lo}%");
        assert!(hi > 3.0 && hi < 20.0, "jpeg-5 high end {hi}%");
    }

    /// The tiny image gains essentially nothing from transcoding.
    #[test]
    fn tiny_image_flat() {
        let c = chart();
        let s = c.saving_pct("Image 4", "JPEG-5", "Hardware-Only Power Mgmt.");
        assert!(s.abs() < 3.0, "110-byte image saved {s}%");
    }

    /// JPEG levels are monotone for the largest image.
    #[test]
    fn jpeg_levels_monotone_for_large_image() {
        let c = chart();
        let levels = ["JPEG-75", "JPEG-50", "JPEG-25", "JPEG-5"];
        let energies: Vec<f64> = levels.iter().map(|l| c.energy_j("Image 1", l)).collect();
        for w in energies.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "not monotone: {energies:?}");
        }
    }
}
