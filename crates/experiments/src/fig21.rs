//! Figure 21: sensitivity to the smoothing half-life.
//!
//! The smoothing α is set so the decay half-life is a fixed fraction of
//! the time remaining; the paper sweeps 1%, 5%, 10% and 15%. A 1%
//! half-life "is clearly too unstable — the system produces the largest
//! residue"; as the half-life grows the system becomes more stable
//! (fewer adaptations). The 10% choice balances agility and stability.

use odyssey::GoalConfig;
use simcore::{SimDuration, SimRng, TrialStats};

use crate::fig19::INITIAL_ENERGY_J;
use crate::fig20::{adaptation_stats, met_fraction};
use crate::goalrig::run_composite_goal;
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// Half-life fractions swept (1%, 5%, 10%, 15% of time remaining).
pub const HALF_LIVES: [f64; 4] = [0.01, 0.05, 0.10, 0.15];

/// A moderately tight goal where smoothing quality matters, seconds.
pub const GOAL_S: u64 = 1500;

/// One half-life's row.
#[derive(Clone, Debug)]
pub struct HalfLifeRow {
    /// Half-life as a fraction of time remaining.
    pub half_life: f64,
    /// Fraction of trials meeting the goal.
    pub met_fraction: f64,
    /// Residual energy statistics, J.
    pub residual: TrialStats,
    /// Total adaptations across applications, per-trial statistics.
    pub total_adaptations: TrialStats,
    /// Per-application adaptation statistics, in [`crate::fig20::APPS`] order.
    pub adaptations: Vec<TrialStats>,
}

/// The full sensitivity sweep.
#[derive(Clone, Debug)]
pub struct Fig21 {
    /// One row per half-life.
    pub rows: Vec<HalfLifeRow>,
}

impl Fig21 {
    /// The row for a half-life value.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    #[expect(clippy::expect_used, reason = "documented # Panics accessor")]
    pub fn row(&self, half_life: f64) -> &HalfLifeRow {
        self.rows
            .iter()
            .find(|r| (r.half_life - half_life).abs() < 1e-12)
            .expect("half-life present")
    }
}

/// Runs the sweep at the paper's half-life values.
pub fn run(trials: &Trials) -> Fig21 {
    run_half_lives(trials, &HALF_LIVES)
}

/// Runs the sweep at chosen half-life values: every `(half-life, trial)`
/// run is one job of a single [`run_grid`] dispatch.
pub fn run_half_lives(trials: &Trials, half_lives: &[f64]) -> Fig21 {
    let root = SimRng::new(trials.seed);
    let runs = run_grid(trials, half_lives, |&half_life, i| {
        let mut rng = root.fork_indexed(&format!("fig21/{half_life}"), i as u64);
        let mut cfg = GoalConfig::paper(INITIAL_ENERGY_J, SimDuration::from_secs(GOAL_S));
        cfg.half_life_frac = half_life;
        run_composite_goal(cfg, &mut rng).trial()
    });
    let rows = half_lives
        .iter()
        .zip(&runs)
        .map(|(&half_life, runs)| {
            let residuals: Vec<f64> = runs.iter().map(|r| r.residual_j.0).collect();
            let totals: Vec<f64> = runs
                .iter()
                .map(|r| r.adaptations.iter().sum::<usize>() as f64)
                .collect();
            HalfLifeRow {
                half_life,
                met_fraction: met_fraction(runs),
                residual: TrialStats::from_values(&residuals),
                total_adaptations: TrialStats::from_values(&totals),
                adaptations: adaptation_stats(runs),
            }
        })
        .collect();
    Fig21 { rows }
}

/// Renders the sensitivity table.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut t = Table::new(
        format!("Figure 21: Sensitivity to half-life (goal {GOAL_S}s, {INITIAL_ENERGY_J:.0} J)"),
        &[
            "Half-Life",
            "Goal Met",
            "Residue (J)",
            "Adaptations",
            "speech",
            "video",
            "map",
            "web",
        ],
    );
    for r in &f.rows {
        let mut row = vec![
            format!("{:.2}", r.half_life),
            format!("{:.0}%", r.met_fraction * 100.0),
            format!("{:.1} ({:.1})", r.residual.mean, r.residual.sd),
            format!(
                "{:.1} ({:.1})",
                r.total_adaptations.mean, r.total_adaptations.sd
            ),
        ];
        for a in &r.adaptations {
            row.push(format!("{:.1}", a.mean));
        }
        t.push_row(row);
    }
    t.with_caption(
        "Paper: 1% half-life is too unstable (largest residue); stability rises with half-life.",
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig21 {
        run_half_lives(&Trials::quick(), &[0.01, 0.10])
    }

    /// The 1% half-life over-adapts relative to the 10% choice.
    #[test]
    fn short_half_life_is_unstable() {
        let f = fig();
        let unstable = f.row(0.01);
        let stable = f.row(0.10);
        assert!(
            unstable.total_adaptations.mean > stable.total_adaptations.mean,
            "1%: {} adaptations vs 10%: {}",
            unstable.total_adaptations.mean,
            stable.total_adaptations.mean
        );
    }

    /// Both settings still meet the goal (the controller is robust even
    /// when twitchy); the 10% run is not more conservative.
    #[test]
    fn goals_met_across_half_lives() {
        let f = fig();
        for r in &f.rows {
            assert!(
                r.met_fraction >= 0.5,
                "half-life {} met only {:.0}%",
                r.half_life,
                r.met_fraction * 100.0
            );
        }
    }
}
