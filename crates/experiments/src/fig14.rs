//! Figure 14: effect of user think time for Web browsing.
//!
//! Image 1 is displayed with think times of 0, 5, 10 and 20 seconds under
//! baseline, hardware-only and lowest fidelity (JPEG-5); the linear model
//! of Section 3.5.2 "fits observations well for all three cases", with
//! the latter two closely spaced — fidelity reduction buys little.

use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::WebFidelity;

use crate::builds;
use crate::harness::Trials;
use crate::thinktime::{self, ThinkSweep};

/// Runs the sweep on Image 1, labelled `fig14/<case>/<t>`; the lowest
/// fidelity is JPEG-5.
pub fn run(trials: &Trials) -> Vec<ThinkSweep> {
    let cases = [
        ("Baseline", WebFidelity::Full, false),
        ("Hardware-Only Power Mgmt.", WebFidelity::Full, true),
        ("Lowest Fidelity", WebFidelity::Jpeg5, true),
    ];
    thinktime::run(trials, "fig14", &cases, |fidelity, pm, t, rng| {
        builds::web(vec![WEB_IMAGES[0]], fidelity, pm, t, rng)
    })
}

/// Renders the figure as a table with fitted models.
pub fn render(trials: &Trials) -> String {
    thinktime::render(
        "Figure 14: Effect of user think time for Web browsing (Image 1, J)",
        "Paper: hardware-only and lowest-fidelity lines are closely spaced — \
         transcoding buys little once think-time power dominates.",
        &run(trials),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Vec<ThinkSweep> {
        run(&Trials::quick())
    }

    fn sweep<'a>(f: &'a [ThinkSweep], case: &str) -> &'a ThinkSweep {
        f.iter().find(|s| s.case == case).unwrap()
    }

    #[test]
    fn linear_model_fits() {
        for s in fig() {
            assert!(
                s.fit.r_squared > 0.975,
                "{}: r² {}",
                s.case,
                s.fit.r_squared
            );
        }
    }

    /// Hardware-only and lowest fidelity are closely spaced relative to
    /// the baseline gap.
    #[test]
    fn lowest_is_close_to_hw_only() {
        let f = fig();
        let at = |case: &str, t: f64| sweep(&f, case).fit.predict(t);
        let t = 10.0;
        let base = at("Baseline", t);
        let hw = at("Hardware-Only Power Mgmt.", t);
        let low = at("Lowest Fidelity", t);
        let big_gap = base - hw;
        let small_gap = hw - low;
        assert!(
            small_gap < big_gap * 0.45,
            "fidelity gap {small_gap} not small vs PM gap {big_gap}"
        );
        assert!(small_gap >= -0.5, "lowest must not exceed hw-only");
    }

    /// The hardware-only slope drops below baseline (divergence), as in
    /// Figure 11.
    #[test]
    fn divergence_under_pm() {
        let f = fig();
        let slope = |case: &str| sweep(&f, case).fit.slope;
        assert!(slope("Hardware-Only Power Mgmt.") < slope("Baseline") - 1.0);
    }
}
