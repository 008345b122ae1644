//! Figure 22 (bursty workloads): goal-directed adaptation under an
//! irregular stochastic workload.
//!
//! "We used a simple stochastic model to construct an irregular workload"
//! — the four applications independently flip between active and idle
//! each minute with probability 0.10. Five trials, each with a different
//! randomly-generated workload, run against a 13,000 J supply; Odyssey
//! must meet the time goal despite the burstiness.

use odyssey::GoalConfig;
use simcore::{Joules, SimDuration, SimRng};

use crate::fig20::APPS;
use crate::goalrig::run_bursty_goal;
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// Energy supply, J. The paper used 13,000 J; our calibrated platform
/// draws more at the wall for the same workload (see EXPERIMENTS.md), so
/// the supply is scaled to keep the goal inside the same adaptation
/// envelope (full fidelity needs ~10.3-13 W across seeds, lowest
/// ~8.2-9.9 W; the goal's 10.3 W budget forces adaptation in every seed
/// yet stays feasible).
pub const INITIAL_ENERGY_J: f64 = 16_800.0;

/// Goal duration, seconds (26 minutes).
pub const GOAL_S: u64 = 1560;

/// One trial's row.
#[derive(Clone, Debug)]
pub struct BurstyTrial {
    /// Trial index (seeded independently).
    pub trial: usize,
    /// Whether the supply lasted the goal.
    pub goal_met: bool,
    /// Residual energy.
    pub residual_j: Joules,
    /// Adaptations per application, in [`crate::fig20::APPS`] order.
    pub adaptations: Vec<usize>,
}

/// The full experiment.
#[derive(Clone, Debug)]
pub struct Fig22 {
    /// One row per trial.
    pub trials: Vec<BurstyTrial>,
}

impl Fig22 {
    /// Fraction of trials that met the goal.
    pub fn met_fraction(&self) -> f64 {
        self.trials.iter().filter(|t| t.goal_met).count() as f64 / self.trials.len() as f64
    }
}

/// Runs the paper's configuration.
pub fn run(trials: &Trials) -> Fig22 {
    run_config(trials, GOAL_S, Joules(INITIAL_ENERGY_J))
}

/// Runs a custom configuration (tests use shorter goals). The trials are
/// one [`run_grid`] dispatch over a single cell.
pub fn run_config(trials: &Trials, goal_s: u64, initial_j: Joules) -> Fig22 {
    let root = SimRng::new(trials.seed);
    let rows = run_grid(trials, &["fig22"], |label, i| {
        let mut rng = root.fork_indexed(label, i as u64);
        let cfg = GoalConfig::paper(initial_j.0, SimDuration::from_secs(goal_s));
        let run = run_bursty_goal(cfg, None, &mut rng);
        BurstyTrial {
            trial: i + 1,
            goal_met: run.outcome.goal_met,
            residual_j: run.report.residual_j,
            adaptations: APPS.iter().map(|a| run.adaptations_of(a)).collect(),
        }
    });
    Fig22 {
        trials: rows.into_iter().flatten().collect(),
    }
}

/// Renders the per-trial table.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut t = Table::new(
        format!("Figure 22: Bursty workloads (goal {GOAL_S}s, {INITIAL_ENERGY_J:.0} J)"),
        &[
            "Trial",
            "Goal Met",
            "Residual (J)",
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
        ];
        for a in &r.adaptations {
            row.push(a.to_string());
        }
        t.push_row(row);
    }
    t.with_caption("Paper: the goal was met in every trial despite the bursty workload.")
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_goals_are_met() {
        let f = run_config(
            &Trials {
                n: 3,
                seed: 42,
                threads: 1,
            },
            GOAL_S,
            Joules(INITIAL_ENERGY_J),
        );
        assert!(
            f.met_fraction() >= 2.0 / 3.0,
            "met only {:.0}%",
            f.met_fraction() * 100.0
        );
        for t in &f.trials {
            if t.goal_met {
                assert!(
                    t.residual_j < Joules(INITIAL_ENERGY_J * 0.25),
                    "trial {} residual {:.0} J too conservative",
                    t.trial,
                    t.residual_j
                );
            }
        }
    }

    #[test]
    fn trials_differ() {
        let f = run_config(
            &Trials {
                n: 2,
                seed: 42,
                threads: 1,
            },
            900,
            Joules(INITIAL_ENERGY_J),
        );
        assert_ne!(
            f.trials[0].residual_j, f.trials[1].residual_j,
            "different seeds must give different workloads"
        );
    }
}
