//! Figure 11: effect of user think time for map viewing.
//!
//! The San Jose map is viewed with think times of 0, 5, 10 and 20 seconds
//! under three regimes — baseline, hardware-only power management, and
//! lowest fidelity — and a linear model `E_t = E_0 + t·P_B` is fitted to
//! each. The paper's reading: baseline and hardware-only diverge
//! (different slopes), hardware-only and lowest fidelity are parallel
//! (fidelity reduction is a constant offset, independent of think time).

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::MAPS;
use odyssey_apps::map::{MapFilter, MapViewer};
use odyssey_apps::MapFidelity;
use simcore::{LinearFit, SimDuration, SimRng, TrialStats};

use crate::harness::{run_grid, Trials};
use crate::table::{self, Table};

/// Think times swept, seconds.
pub const THINK_TIMES: [f64; 4] = [0.0, 5.0, 10.0, 20.0];

/// One regime's sweep: points and fitted line.
#[derive(Clone, Debug)]
pub struct ThinkSweep {
    /// Regime name.
    pub case: &'static str,
    /// (think time s, energy stats) per sweep point.
    pub points: Vec<(f64, TrialStats)>,
    /// Least-squares fit of mean energy vs think time.
    pub fit: LinearFit,
}

/// The full figure: three regimes.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Baseline, hardware-only, lowest fidelity.
    pub sweeps: Vec<ThinkSweep>,
}

fn lowest() -> MapFidelity {
    MapFidelity {
        filter: MapFilter::Secondary,
        cropped: true,
    }
}

fn build(fidelity: MapFidelity, pm: bool, think_s: f64, rng: &mut SimRng) -> Machine {
    let cfg = if pm {
        MachineConfig::default()
    } else {
        MachineConfig::baseline()
    };
    let mut m = Machine::new(cfg);
    m.add_process(Box::new(
        MapViewer::fixed(vec![MAPS[0]], fidelity, rng)
            .with_think_time(SimDuration::from_secs_f64(think_s)),
    ));
    m
}

/// Runs the sweep. Every `(case, think time, trial)` run is one job of a
/// single [`run_grid`] dispatch, on `fork_indexed("fig11/<case>/<t>", i)`,
/// and returns only its total energy.
pub fn run(trials: &Trials) -> Fig11 {
    let cases: [(&'static str, MapFidelity, bool); 3] = [
        ("Baseline", MapFidelity::full(), false),
        ("Hardware-Only Power Mgmt.", MapFidelity::full(), true),
        ("Lowest Fidelity", lowest(), true),
    ];
    // The paper uses ten trials for this application.
    let trials = &Trials {
        n: trials.n * 2,
        ..*trials
    };
    let cells: Vec<(&str, MapFidelity, bool, f64)> = cases
        .iter()
        .flat_map(|&(case, fidelity, pm)| THINK_TIMES.map(|t| (case, fidelity, pm, t)))
        .collect();
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |&(case, fidelity, pm, t), i| {
        let label = format!("fig11/{case}/{t}");
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
    Fig11 { sweeps }
}

/// Renders the figure as a table with the fitted models.
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
        "Figure 11: Effect of user think time for map viewing (San Jose, J)",
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
            "Linear model E_t = E0 + t*P_B; paper: baseline diverges from hardware-only, \
             hardware-only and lowest fidelity are parallel.",
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig11 {
        run(&Trials::quick())
    }

    /// The linear model fits every regime well.
    #[test]
    fn linear_model_fits() {
        for s in fig().sweeps {
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
        let slope = |case: &str| {
            f.sweeps
                .iter()
                .find(|s| s.case == case)
                .map(|s| s.fit.slope)
                .unwrap()
        };
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
        let hw = f
            .sweeps
            .iter()
            .find(|s| s.case == "Hardware-Only Power Mgmt.")
            .unwrap();
        let low = f
            .sweeps
            .iter()
            .find(|s| s.case == "Lowest Fidelity")
            .unwrap();
        let rel = (hw.fit.slope - low.fit.slope).abs() / hw.fit.slope;
        assert!(rel < 0.08, "slopes differ by {:.1}%", rel * 100.0);
        assert!(low.fit.intercept < hw.fit.intercept);
    }
}
