//! Figure 6: energy impact of fidelity for video playing.
//!
//! Four clips × six bars: baseline (full fidelity, no power management),
//! hardware-only power management, Premiere-B, Premiere-C, reduced
//! window, and combined — the last four with hardware power management
//! enabled, as in the paper's protocol (Section 3.1).

use odyssey_apps::datasets::{VideoClip, VIDEO_CLIPS};
use odyssey_apps::VideoVariant;

use crate::barchart::{self, BarChart};
use crate::builds;
use crate::harness::Trials;

/// The six experimental conditions, in figure order: the variant and
/// whether hardware power management is on.
pub const CONDITIONS: [(&str, (VideoVariant, bool)); 6] = [
    ("Baseline", (VideoVariant::Full, false)),
    ("Hardware-Only Power Mgmt.", (VideoVariant::Full, true)),
    ("Premiere-B", (VideoVariant::PremiereB, true)),
    ("Premiere-C", (VideoVariant::PremiereC, true)),
    ("Reduced Window", (VideoVariant::ReducedWindow, true)),
    ("Combined", (VideoVariant::Combined, true)),
];

/// Runs the full figure.
pub fn run(trials: &Trials) -> BarChart {
    run_clips(trials, &VIDEO_CLIPS)
}

/// Runs the figure over a chosen clip set (tests use shortened clips),
/// as one [`barchart::run`] grid labelled `fig6/<clip>/<condition>`.
pub fn run_clips(trials: &Trials, clips: &[VideoClip]) -> BarChart {
    let clips: Vec<_> = clips.iter().map(|clip| (clip.name, *clip)).collect();
    barchart::run(
        trials,
        "Figure 6: Energy impact of fidelity for video playing (J)",
        "fig6",
        &clips,
        &CONDITIONS,
        |clip, &(variant, pm), rng| builds::video(*clip, variant, pm, rng),
    )
}

/// Renders the figure as a table.
pub fn render(trials: &Trials) -> String {
    run(trials).to_table().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_clips() -> Vec<VideoClip> {
        VIDEO_CLIPS
            .iter()
            .map(|c| VideoClip {
                duration_s: 20.0,
                ..*c
            })
            .collect()
    }

    fn chart() -> BarChart {
        run_clips(&Trials::quick(), &short_clips()[..2])
    }

    /// Paper: hardware-only PM reduces video energy by a mere 9-10%.
    #[test]
    fn hw_only_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Hardware-Only Power Mgmt.", "Baseline");
        assert!(lo > 5.0 && hi < 16.0, "hw-only band {lo}-{hi}%");
    }

    /// Paper: Premiere-C consumes 16-17% less than hardware-only.
    #[test]
    fn premiere_c_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Premiere-C", "Hardware-Only Power Mgmt.");
        assert!(lo > 8.0 && hi < 28.0, "premiere-c band {lo}-{hi}%");
    }

    /// Paper: reduced window saves 19-20% beyond hardware-only.
    #[test]
    fn reduced_window_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Reduced Window", "Hardware-Only Power Mgmt.");
        assert!(lo > 12.0 && hi < 30.0, "reduced-window band {lo}-{hi}%");
    }

    /// Paper: combined yields 28-30% vs hardware-only, ~35% vs baseline.
    #[test]
    fn combined_bands() {
        let c = chart();
        let (lo, hi) = c.saving_band("Combined", "Hardware-Only Power Mgmt.");
        assert!(lo > 20.0 && hi < 40.0, "combined vs hw band {lo}-{hi}%");
        let (lo_b, hi_b) = c.saving_band("Combined", "Baseline");
        assert!(
            lo_b > 27.0 && hi_b < 47.0,
            "combined vs baseline {lo_b}-{hi_b}%"
        );
    }

    /// Bars are ordered: each fidelity step cheaper than the previous.
    #[test]
    fn monotone_conditions() {
        let c = chart();
        for object in c.objects() {
            let energies: Vec<f64> = [
                "Baseline",
                "Hardware-Only Power Mgmt.",
                "Premiere-C",
                "Combined",
            ]
            .iter()
            .map(|cond| c.energy_j(&object, cond))
            .collect();
            for w in energies.windows(2) {
                assert!(w[1] < w[0], "{object}: {energies:?}");
            }
        }
    }
}
