//! The think-time sweep of Figures 11 and 14.
//!
//! One data object is measured at think times of 0, 5, 10 and 20 seconds
//! under three cases (baseline, hardware-only power management, lowest
//! fidelity), and the linear model of Section 3.5.2, `E_t = E_0 + t·P_B`,
//! is fitted to each case: `E_0` is the energy of the work itself and the
//! slope `P_B` the background power drawn while the user thinks.

use machine::Machine;
use simcore::{LinearFit, SimRng, TrialStats};

use crate::harness::{run_grid, Trials};
use crate::table::{self, Table};

/// Think times swept, seconds: the paper's map and web think-time rows.
pub const THINK_TIMES: [f64; 4] = [0.0, 5.0, 10.0, 20.0];

/// One case's sweep: points and fitted line.
#[derive(Clone, Debug)]
pub struct ThinkSweep {
    /// Case name.
    pub case: &'static str,
    /// (think time s, energy stats) per sweep point.
    pub points: Vec<(f64, TrialStats)>,
    /// Least-squares fit of mean energy vs think time.
    pub fit: LinearFit,
}

/// Sweeps every case — a name, a fidelity and whether hardware power
/// management is on — over [`THINK_TIMES`], with the map and web
/// applications' doubled trial count, and fits each case's line.
///
/// Every `(case, think time, trial)` run is one job of a single
/// [`run_grid`] dispatch on `fork_indexed("<prefix>/<case>/<t>", i)`,
/// and returns only its total energy.
pub fn run<F: Copy + Sync>(
    trials: &Trials,
    prefix: &str,
    cases: &[(&'static str, F, bool)],
    build: impl Fn(F, bool, f64, &mut SimRng) -> Machine + Sync,
) -> Vec<ThinkSweep> {
    let trials = &trials.doubled();
    let cells: Vec<(&str, F, bool, f64)> = cases
        .iter()
        .flat_map(|&(case, fidelity, pm)| THINK_TIMES.map(|t| (case, fidelity, pm, t)))
        .collect();
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |&(case, fidelity, pm, t), i| {
        let label = format!("{prefix}/{case}/{t}");
        let rng = &mut root.fork_indexed(&label, i as u64);
        build(fidelity, pm, t, rng).run().total_j.0
    });
    cases
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
        .collect()
}

/// Renders sweeps as one row per case: mean ± CI90 at each think time,
/// then the fitted model.
pub fn render(title: &str, caption: &str, sweeps: &[ThinkSweep]) -> String {
    let mut header = vec!["Case".to_string()];
    for t in THINK_TIMES {
        header.push(format!("t={t}s"));
    }
    header.push("E0 (J)".into());
    header.push("P_B (W)".into());
    header.push("r²".into());
    let mut table = Table::new(title, &[]);
    table.header = header;
    for s in sweeps {
        let mut row = vec![s.case.to_string()];
        for (_, stats) in &s.points {
            row.push(table::pm(stats.mean, stats.ci90));
        }
        row.push(format!("{:.1}", s.fit.intercept));
        row.push(format!("{:.2}", s.fit.slope));
        row.push(format!("{:.4}", s.fit.r_squared));
        table.push_row(row);
    }
    table.with_caption(caption).render()
}
