//! Section 5.4: longer-duration goal-directed adaptation.
//!
//! "We began each experiment with an energy supply of 90,000 J, roughly
//! matching a fully-charged ThinkPad 560X battery. We specified an
//! initial time duration of 2 hours and 45 minutes, but extended this
//! goal by 30 minutes at the end of the first hour" — modelling a user
//! revising the battery-life estimate mid-flight. The workload is the
//! bursty stochastic model; five trials with different seeds.
//!
//! The extension is a live event, as a user's would be: the run is
//! driven to 1 µs before the extension instant, the new goal is posted
//! through [`odyssey::GoalHandle::post_goal_revision`], and the run goes
//! on, so the controller applies it at its tick at that instant.
//!
//! The paper observes fewer adaptations than the short experiments: far
//! from the goal, smoothing is aggressive and the hysteresis zone (5% of
//! a large residual energy) is wide, so minor fluctuations are ignored
//! until late in each trial.

use odyssey::GoalConfig;
use simcore::{Joules, SimDuration, SimRng, SimTime};

use crate::fig20::APPS;
use crate::goalrig::run_bursty_goal;
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// Energy supply, J. The paper's 90,000 J matches a fully-charged 560X
/// battery; scaled by our platform's higher wall draw (as in Figures 19,
/// 20 and 22) so the 2:45 goal sits just past the full-fidelity duration
/// and the extended goal remains feasible at lowest fidelity.
pub const INITIAL_ENERGY_J: f64 = 110_000.0;

/// Initial goal: 2 hours 45 minutes.
pub const INITIAL_GOAL_S: u64 = 9_900;

/// Revised goal after the extension: 3 hours 15 minutes.
pub const EXTENDED_GOAL_S: u64 = 11_700;

/// The extension is applied at the end of the first hour.
pub const EXTENSION_AT_S: u64 = 3_600;

/// One trial's outcome.
#[derive(Clone, Debug)]
pub struct LongTrial {
    /// Trial index.
    pub trial: usize,
    /// Whether the supply lasted to the extended goal.
    pub goal_met: bool,
    /// Residual energy at the end.
    pub residual_j: Joules,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
    /// Adaptations per application.
    pub adaptations: Vec<usize>,
}

/// The experiment.
#[derive(Clone, Debug)]
pub struct Sec54 {
    /// One row per trial.
    pub trials: Vec<LongTrial>,
}

impl Sec54 {
    /// Fraction of trials meeting the (extended) goal.
    pub fn met_fraction(&self) -> f64 {
        self.trials.iter().filter(|t| t.goal_met).count() as f64 / self.trials.len() as f64
    }
}

/// Runs the paper's configuration.
pub fn run(trials: &Trials) -> Sec54 {
    run_config(
        trials,
        Joules(INITIAL_ENERGY_J),
        INITIAL_GOAL_S,
        EXTENSION_AT_S,
        EXTENDED_GOAL_S,
    )
}

/// Runs a scaled configuration (tests use shorter horizons). The trials
/// are one [`run_grid`] dispatch over a single cell.
pub fn run_config(
    trials: &Trials,
    initial_j: Joules,
    goal_s: u64,
    extend_at_s: u64,
    extended_goal_s: u64,
) -> Sec54 {
    let root = SimRng::new(trials.seed);
    let rows = run_grid(trials, &["sec54"], |label, i| {
        let mut rng = root.fork_indexed(label, i as u64);
        let cfg = GoalConfig::paper(initial_j.0, SimDuration::from_secs(goal_s));
        let extension = (
            SimTime::from_secs(extend_at_s),
            SimDuration::from_secs(extended_goal_s),
        );
        let run = run_bursty_goal(cfg, Some(extension), &mut rng);
        LongTrial {
            trial: i + 1,
            goal_met: run.outcome.goal_met,
            residual_j: run.report.residual_j,
            duration_s: run.report.duration_s(),
            adaptations: APPS.iter().map(|a| run.adaptations_of(a)).collect(),
        }
    });
    Sec54 {
        trials: rows.into_iter().flatten().collect(),
    }
}

/// Renders the per-trial table.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut t = Table::new(
        format!(
            "Section 5.4: Longer-duration goals ({INITIAL_ENERGY_J:.0} J, \
             {INITIAL_GOAL_S}s goal extended to {EXTENDED_GOAL_S}s at t={EXTENSION_AT_S}s)"
        ),
        &[
            "Trial",
            "Goal Met",
            "Residual (J)",
            "Duration (s)",
            "Adapt speech",
            "Adapt video",
            "Adapt map",
            "Adapt web",
        ],
    );
    for r in &f.trials {
        let mut row = vec![
            r.trial.to_string(),
            if r.goal_met { "Yes" } else { "No" }.to_string(),
            format!("{:.0}", r.residual_j),
            format!("{:.0}", r.duration_s),
        ];
        for a in &r.adaptations {
            row.push(a.to_string());
        }
        t.push_row(row);
    }
    t.with_caption(
        "Paper: goal met in all five trials; four of five ended with <1% residual energy.",
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down version of the experiment (1/6 of every duration and
    /// the supply) keeps the test fast while exercising the extension.
    #[test]
    fn scaled_long_goal_with_extension_is_met() {
        let f = run_config(
            &Trials {
                n: 2,
                seed: 42,
                threads: 1,
            },
            Joules(18_500.0),
            1_650,
            600,
            1_950,
        );
        for t in &f.trials {
            assert!(
                t.goal_met,
                "trial {} missed: duration {:.0}s residual {:.0} J",
                t.trial, t.duration_s, t.residual_j
            );
            // The run must end at the *extended* goal, not the initial one.
            assert!(
                (t.duration_s - 1_950.0).abs() < 5.0,
                "trial {} ended at {:.0}s",
                t.trial,
                t.duration_s
            );
        }
    }
}
