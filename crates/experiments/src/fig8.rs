//! Figure 8: energy impact of fidelity for speech recognition.
//!
//! Four utterances × six bars: baseline (local recognition at full
//! fidelity, no power management), hardware-only, reduced model, remote,
//! hybrid, and hybrid with reduced model.

use odyssey_apps::datasets::UTTERANCES;
use odyssey_apps::SpeechStrategy;

use crate::barchart::{self, BarChart};
use crate::builds;
use crate::harness::Trials;

/// The six experimental conditions, in figure order: the strategy,
/// whether the reduced model is used, and whether hardware power
/// management is on.
pub const CONDITIONS: [(&str, (SpeechStrategy, bool, bool)); 6] = [
    ("Baseline", (SpeechStrategy::Local, false, false)),
    (
        "Hardware-Only Power Mgmt.",
        (SpeechStrategy::Local, false, true),
    ),
    ("Reduced Model", (SpeechStrategy::Local, true, true)),
    ("Remote", (SpeechStrategy::Remote, false, true)),
    ("Hybrid", (SpeechStrategy::Hybrid, false, true)),
    ("Hybrid Reduced-Model", (SpeechStrategy::Hybrid, true, true)),
];

/// Runs the full figure as one [`barchart::run`] grid labelled
/// `fig8/<utterance>/<condition>`.
pub fn run(trials: &Trials) -> BarChart {
    barchart::run(
        trials,
        "Figure 8: Energy impact of fidelity for speech recognition (J)",
        "fig8",
        &UTTERANCES.map(|u| (u.name, u)),
        &CONDITIONS,
        |u, &(strategy, reduced, pm), rng| builds::speech(*u, strategy, reduced, pm, rng),
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

    /// Paper: hardware-only PM reduces client energy by 33-34%.
    #[test]
    fn hw_only_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Hardware-Only Power Mgmt.", "Baseline");
        assert!(lo > 25.0 && hi < 42.0, "hw-only band {lo}-{hi}%");
    }

    /// Paper: reduced model saves 25-46% relative to hardware-only.
    #[test]
    fn reduced_model_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Reduced Model", "Hardware-Only Power Mgmt.");
        assert!(lo > 15.0 && hi < 55.0, "reduced band {lo}-{hi}%");
        assert!(hi - lo > 5.0, "band should vary across utterances");
    }

    /// Paper: remote at full fidelity is 33-44% below hardware-only.
    #[test]
    fn remote_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("Remote", "Hardware-Only Power Mgmt.");
        assert!(lo > 20.0 && hi < 55.0, "remote band {lo}-{hi}%");
    }

    /// Paper: hybrid offers slightly greater savings than remote
    /// (47-55% below hardware-only at full fidelity).
    #[test]
    fn hybrid_beats_remote() {
        let c = chart();
        for o in c.objects() {
            assert!(
                c.energy_j(&o, "Hybrid") < c.energy_j(&o, "Remote"),
                "hybrid not cheaper for {o}"
            );
        }
        let (lo, hi) = c.saving_band("Hybrid", "Hardware-Only Power Mgmt.");
        assert!(lo > 30.0 && hi < 65.0, "hybrid band {lo}-{hi}%");
    }

    /// Paper: hybrid + low fidelity reaches 69-80% below baseline.
    #[test]
    fn hybrid_reduced_vs_baseline() {
        let c = chart();
        let (lo, hi) = c.saving_band("Hybrid Reduced-Model", "Baseline");
        assert!(lo > 55.0 && hi < 88.0, "hybrid-reduced band {lo}-{hi}%");
    }
}
