//! Figure 11: effect of user think time for map viewing.
//!
//! The San Jose map is viewed with think times of 0, 5, 10 and 20 seconds
//! under three regimes — baseline, hardware-only power management, and
//! lowest fidelity — and a linear model `E_t = E_0 + t·P_B` is fitted to
//! each. The paper's reading: baseline and hardware-only diverge
//! (different slopes), hardware-only and lowest fidelity are parallel
//! (fidelity reduction is a constant offset, independent of think time).

use odyssey_apps::datasets::MAPS;
use odyssey_apps::MapFidelity;

use crate::builds;
use crate::harness::Trials;
use crate::thinktime::{self, ThinkSweep};

/// Runs the sweep on the San Jose map, labelled `fig11/<case>/<t>`; the
/// lowest fidelity is the bottom of the map's adaptation ladder.
pub fn run(trials: &Trials) -> Vec<ThinkSweep> {
    let cases = [
        ("Baseline", MapFidelity::full(), false),
        ("Hardware-Only Power Mgmt.", MapFidelity::full(), true),
        ("Lowest Fidelity", MapFidelity::LADDER[0], true),
    ];
    thinktime::run(trials, "fig11", &cases, |fidelity, pm, t, rng| {
        builds::map(MAPS[0], fidelity, pm, t, rng)
    })
}

/// Renders the figure as a table with the fitted models.
pub fn render(trials: &Trials) -> String {
    thinktime::render(
        "Figure 11: Effect of user think time for map viewing (San Jose, J)",
        "Linear model E_t = E0 + t*P_B; paper: baseline diverges from hardware-only, \
         hardware-only and lowest fidelity are parallel.",
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

    /// The linear model fits every regime well.
    #[test]
    fn linear_model_fits() {
        for s in fig() {
            assert!(
                s.fit.r_squared > 0.975,
                "{}: r² = {}",
                s.case,
                s.fit.r_squared
            );
        }
    }

    /// Baseline slope is the full-on power; hardware-only slope is lower
    /// (the divergent lines of the figure).
    #[test]
    fn baseline_diverges_from_hw_only() {
        let f = fig();
        let slope = |case: &str| sweep(&f, case).fit.slope;
        let base = slope("Baseline");
        let hw = slope("Hardware-Only Power Mgmt.");
        assert!((base - 10.28).abs() < 0.4, "baseline slope {base}");
        assert!(hw < base - 1.0, "hw slope {hw} not below baseline {base}");
    }

    /// Hardware-only and lowest fidelity are parallel: fidelity reduction
    /// is a constant benefit, independent of think time.
    #[test]
    fn hw_only_parallel_to_lowest() {
        let f = fig();
        let hw = sweep(&f, "Hardware-Only Power Mgmt.");
        let low = sweep(&f, "Lowest Fidelity");
        let rel = (hw.fit.slope - low.fit.slope).abs() / hw.fit.slope;
        assert!(rel < 0.08, "slopes differ by {:.1}%", rel * 100.0);
        assert!(low.fit.intercept < hw.fit.intercept);
    }
}
