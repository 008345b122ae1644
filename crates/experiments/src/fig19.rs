//! Figure 19: example of goal-directed adaptation.
//!
//! The composite application (started every 25 s) runs concurrently with
//! the background video while Odyssey meets user-specified battery
//! durations of 20 and 26 minutes. The figure's top panel plots residual
//! energy supply against predicted demand; the four lower panels plot
//! each application's fidelity over time.
//!
//! Calibration note: the paper gave Odyssey 12,000 J. Our calibrated
//! platform draws ~38% more at the wall for the same workload (see
//! EXPERIMENTS.md), so the reproduction uses 16,600 J — chosen so the
//! full-fidelity workload lasts ~19.5 minutes and the lowest-fidelity
//! workload ~27 minutes, the same envelope the paper reports (19:27 and
//! 27:06).

use odyssey::GoalConfig;
use simcore::{SimDuration, SimRng, SimTime, TimeSeries};

use crate::goalrig::{run_composite_goal, GoalRun};
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// Initial energy value handed to Odyssey, J.
pub const INITIAL_ENERGY_J: f64 = 16_600.0;

/// The two example goals: 20 and 26 minutes.
pub const GOALS_S: [u64; 2] = [1200, 1560];

/// One goal's run with its traces.
#[derive(Clone, Debug)]
pub struct GoalTrace {
    /// Goal duration, seconds.
    pub goal_s: u64,
    /// The full run.
    pub run: GoalRun,
}

/// The figure: one trace per goal.
#[derive(Clone, Debug)]
pub struct Fig19 {
    /// Traces for the 20- and 26-minute goals.
    pub traces: Vec<GoalTrace>,
}

impl Fig19 {
    /// The trace for a goal.
    ///
    /// # Panics
    ///
    /// Panics if the goal was not run.
    #[expect(clippy::expect_used, reason = "documented # Panics accessor")]
    pub fn trace(&self, goal_s: u64) -> &GoalTrace {
        self.traces
            .iter()
            .find(|t| t.goal_s == goal_s)
            .expect("goal present")
    }
}

/// Runs both example goals.
pub fn run(trials: &Trials) -> Fig19 {
    run_goals(trials, &GOALS_S)
}

/// Runs an arbitrary set of goals (tests use shorter ones): one run per
/// goal, fanned out as a single [`run_grid`] dispatch. Each job keeps
/// the whole [`GoalRun`], because its supply, demand and fidelity
/// series are what the figure plots.
pub fn run_goals(trials: &Trials, goals: &[u64]) -> Fig19 {
    let root = SimRng::new(trials.seed);
    let once = Trials { n: 1, ..*trials };
    let runs = run_grid(&once, goals, |&goal_s, _| {
        let mut rng = root.fork(&format!("fig19/{goal_s}"));
        let cfg = GoalConfig::paper(INITIAL_ENERGY_J, SimDuration::from_secs(goal_s));
        run_composite_goal(cfg, &mut rng)
    });
    let traces = goals
        .iter()
        .zip(runs.into_iter().flatten())
        .map(|(&goal_s, run)| GoalTrace { goal_s, run })
        .collect();
    Fig19 { traces }
}

fn series_row(name: &str, s: &TimeSeries, end: SimTime, cols: usize) -> Vec<String> {
    let step = SimDuration::from_micros((end.as_micros() / cols as u64).max(1));
    let mut row = vec![name.to_string()];
    for (_, v) in s.resample(step, end).into_iter().take(cols) {
        row.push(format!("{v:.0}"));
    }
    row
}

/// Renders both goals' supply/demand traces and fidelity summaries.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut out = String::new();
    for t in &f.traces {
        let end = t.run.report.end;
        let cols = 10;
        let mut header = vec!["Series".to_string()];
        for i in 0..cols {
            header.push(format!(
                "t={:.0}s",
                end.as_secs_f64() * i as f64 / cols as f64
            ));
        }
        let mut table = Table::new(
            format!(
                "Figure 19: goal {}s — met: {}, residual {:.0} J",
                t.goal_s, t.run.outcome.goal_met, t.run.report.residual_j
            ),
            &[],
        );
        table.header = header;
        table.push_row(series_row("Supply (J)", &t.run.supply, end, cols));
        table.push_row(series_row("Demand (J)", &t.run.demand, end, cols));
        for series in &t.run.report.fidelity {
            table.push_row(series_row(
                &format!("{} fidelity", series.name()),
                series,
                end,
                cols,
            ));
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig19 {
        run(&Trials::single())
    }

    /// Both goals are met with low residual energy.
    #[test]
    fn goals_are_met_with_low_residue() {
        let f = fig();
        for t in &f.traces {
            assert!(t.run.outcome.goal_met, "goal {}s missed", t.goal_s);
            assert!(!t.run.report.exhausted);
            let residue_frac = t.run.report.residual_j.0 / INITIAL_ENERGY_J;
            assert!(
                residue_frac < 0.10,
                "goal {}s left {:.1}% residue",
                t.goal_s,
                residue_frac * 100.0
            );
            assert!(
                (t.run.report.duration_s() - t.goal_s as f64).abs() < 2.0,
                "goal {}s ended at {}",
                t.goal_s,
                t.run.report.duration_s()
            );
        }
    }

    /// "Estimated demand tracks supply closely for both experiments."
    #[test]
    fn demand_tracks_supply() {
        let f = fig();
        for t in &f.traces {
            let end = t.run.report.end;
            // Compare at 50% and 90% of the run.
            for frac in [0.5, 0.9] {
                let at = SimTime::from_secs_f64(end.as_secs_f64() * frac);
                let s = t.run.supply.value_at(at).unwrap();
                let d = t.run.demand.value_at(at).unwrap();
                let gap = (d - s).abs() / INITIAL_ENERGY_J;
                assert!(
                    gap < 0.15,
                    "goal {}s at {frac}: supply {s:.0} vs demand {d:.0}",
                    t.goal_s
                );
            }
        }
    }

    /// The 26-minute goal forces lower fidelity than the 20-minute goal.
    #[test]
    fn longer_goal_means_lower_fidelity() {
        let f = fig();
        let mean_level = |t: &GoalTrace, app: &str| {
            let series = t
                .run
                .report
                .fidelity
                .iter()
                .find(|s| s.name() == app)
                .unwrap();
            let end = t.run.report.end;
            let pts = series.resample(SimDuration::from_secs(10), end);
            pts.iter().map(|(_, v)| v).sum::<f64>() / pts.len() as f64
        };
        let short = f.trace(GOALS_S[0]);
        let long = f.trace(GOALS_S[1]);
        let avg_short: f64 = ["speech", "xanim", "anvil", "netscape"]
            .iter()
            .map(|a| mean_level(short, a))
            .sum();
        let avg_long: f64 = ["speech", "xanim", "anvil", "netscape"]
            .iter()
            .map(|a| mean_level(long, a))
            .sum();
        assert!(
            avg_long < avg_short,
            "26-min fidelity {avg_long} not below 20-min {avg_short}"
        );
    }

    /// Low-priority speech degrades at least as much as high-priority web
    /// (normalized to each ladder's depth).
    #[test]
    fn priorities_shape_degradation() {
        let f = fig();
        let long = f.trace(GOALS_S[1]);
        let mean_norm_level = |app: &str| {
            let series = long
                .run
                .report
                .fidelity
                .iter()
                .find(|s| s.name() == app)
                .unwrap();
            let end = long.run.report.end;
            let pts = series.resample(SimDuration::from_secs(10), end);
            let top = match app {
                "speech" => 1.0,
                "xanim" => 3.0,
                "anvil" => 3.0,
                "netscape" => 4.0,
                _ => unreachable!(),
            };
            pts.iter().map(|(_, v)| v / top).sum::<f64>() / pts.len() as f64
        };
        let speech = mean_norm_level("speech");
        let web = mean_norm_level("netscape");
        assert!(
            speech < web + 0.05,
            "lowest-priority speech ({speech:.2}) should sit below web ({web:.2})"
        );
    }
}
