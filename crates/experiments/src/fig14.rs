//! Figure 14: effect of user think time for Web browsing.
//!
//! Image 1 is displayed with think times of 0, 5, 10 and 20 seconds under
//! baseline, hardware-only and lowest fidelity (JPEG-5); the linear model
//! of Section 3.5.2 "fits observations well for all three cases", with
//! the latter two closely spaced — fidelity reduction buys little.

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::{WebBrowser, WebFidelity};
use simcore::{LinearFit, SimDuration, SimRng, TrialStats};

use crate::harness::{run_grid, Trials};
use crate::table::{self, Table};

/// Think times swept, seconds.
pub const THINK_TIMES: [f64; 4] = [0.0, 5.0, 10.0, 20.0];

/// One regime's sweep (same shape as Figure 11's).
#[derive(Clone, Debug)]
pub struct ThinkSweep {
    /// Regime name.
    pub case: &'static str,
    /// (think time s, energy stats) per point.
    pub points: Vec<(f64, TrialStats)>,
    /// Least-squares fit.
    pub fit: LinearFit,
}

/// The full figure.
#[derive(Clone, Debug)]
pub struct Fig14 {
    /// Baseline, hardware-only, lowest fidelity.
    pub sweeps: Vec<ThinkSweep>,
}

fn build(fidelity: WebFidelity, pm: bool, think_s: f64, rng: &mut SimRng) -> Machine {
    let cfg = if pm {
        MachineConfig::default()
    } else {
        MachineConfig::baseline()
    };
    let mut m = Machine::new(cfg);
    m.add_process(Box::new(
        WebBrowser::fixed(vec![WEB_IMAGES[0]], fidelity, rng)
            .with_think_time(SimDuration::from_secs_f64(think_s)),
    ));
    m
}

/// Runs the sweep. Every `(case, think time, trial)` run is one job of a
/// single [`run_grid`] dispatch, on `fork_indexed("fig14/<case>/<t>", i)`,
/// and returns only its total energy.
pub fn run(trials: &Trials) -> Fig14 {
    let cases: [(&'static str, WebFidelity, bool); 3] = [
        ("Baseline", WebFidelity::Full, false),
        ("Hardware-Only Power Mgmt.", WebFidelity::Full, true),
        ("Lowest Fidelity", WebFidelity::Jpeg5, true),
    ];
    // The paper uses ten trials for this application.
    let trials = &Trials {
        n: trials.n * 2,
        ..*trials
    };
    let cells: Vec<(&str, WebFidelity, bool, f64)> = cases
        .iter()
        .flat_map(|&(case, fidelity, pm)| THINK_TIMES.map(|t| (case, fidelity, pm, t)))
        .collect();
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |&(case, fidelity, pm, t), i| {
        let label = format!("fig14/{case}/{t}");
        let rng = &mut root.fork_indexed(&label, i as u64);
        build(fidelity, pm, t, rng).run().total_j.0
    });
    let sweeps = cases
        .iter()
        .zip(totals.chunks(THINK_TIMES.len()))
        .map(|(&(case, ..), totals)| {
            let points: Vec<(f64, TrialStats)> = THINK_TIMES
                .iter()
                .zip(totals)
                .map(|(&t, runs)| (t, TrialStats::from_values(runs)))
                .collect();
            let fit_points: Vec<(f64, f64)> = points.iter().map(|(t, s)| (*t, s.mean)).collect();
            ThinkSweep {
                case,
                points,
                fit: LinearFit::fit(&fit_points),
            }
        })
        .collect();
    Fig14 { sweeps }
}

/// Renders the figure as a table with fitted models.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut header = vec!["Case".to_string()];
    for t in THINK_TIMES {
        header.push(format!("t={t}s"));
    }
    header.push("E0 (J)".into());
    header.push("P_B (W)".into());
    header.push("r²".into());
    let mut table = Table::new(
        "Figure 14: Effect of user think time for Web browsing (Image 1, J)",
        &[],
    );
    table.header = header;
    for s in &f.sweeps {
        let mut row = vec![s.case.to_string()];
        for (_, stats) in &s.points {
            row.push(table::pm(stats.mean, stats.ci90));
        }
        row.push(format!("{:.1}", s.fit.intercept));
        row.push(format!("{:.2}", s.fit.slope));
        row.push(format!("{:.4}", s.fit.r_squared));
        table.push_row(row);
    }
    table
        .with_caption(
            "Paper: hardware-only and lowest-fidelity lines are closely spaced — \
             transcoding buys little once think-time power dominates.",
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig14 {
        run(&Trials::quick())
    }

    #[test]
    fn linear_model_fits() {
        for s in fig().sweeps {
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
        let at = |case: &str, t: f64| {
            f.sweeps
                .iter()
                .find(|s| s.case == case)
                .unwrap()
                .fit
                .predict(t)
        };
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
        let slope = |case: &str| f.sweeps.iter().find(|s| s.case == case).unwrap().fit.slope;
        assert!(slope("Hardware-Only Power Mgmt.") < slope("Baseline") - 1.0);
    }
}
