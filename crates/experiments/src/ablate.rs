//! Ablations of the goal-directed controller's design choices.
//!
//! Section 5.1.3 motivates three mechanisms without quantifying them:
//! the hysteresis margin ("a guard against excessive adaptation due to
//! energy transients"), the 15-second cap on fidelity improvements
//! ("applications should not be jarred by frequent adaptations"), and the
//! priority order (degrade the least important application first). This
//! module removes each in turn and measures what it was buying:
//!
//! - **no hysteresis** — upgrades trigger the instant supply exceeds
//!   demand, so the system oscillates (more adaptations);
//! - **no upgrade cap** — improvements arrive in bursts;
//! - **reversed priorities** — the high-priority web application is
//!   degraded first and spends the run at lower fidelity;
//! - **no superlinearity** — the platform power model's correction term
//!   removed, shifting every anchor.

use hw560x::{DeviceStates, PlatformPower, PlatformSpec};
use machine::FaultConfig;
use odyssey::GoalConfig;
use simcore::{Joules, SimDuration, SimRng, Watts};

use crate::fig19::INITIAL_ENERGY_J;
use crate::goalrig::{build_composite_goal, finish, GoalRun};
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// Goal used by the controller ablations, seconds.
pub const GOAL_S: u64 = 1440;

/// One controller-ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant name.
    pub variant: &'static str,
    /// Whether the goal was met.
    pub goal_met: bool,
    /// Residual energy.
    pub residual_j: Joules,
    /// Total fidelity changes across applications.
    pub total_adaptations: usize,
    /// Upgrades issued by the controller.
    pub upgrades: usize,
    /// Mean normalized fidelity of the web application (ladder depth 5).
    pub web_mean_level: f64,
}

/// The ablation study.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Controller rows: paper, no-hysteresis, no-upgrade-cap, reversed.
    pub rows: Vec<AblationRow>,
    /// Full-on platform power with / without the superlinearity term.
    pub superlinearity: (Watts, Watts),
}

impl Ablation {
    /// Looks up a row by variant name.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn row(&self, variant: &str) -> &AblationRow {
        self.rows
            .iter()
            .find(|r| r.variant == variant)
            .unwrap_or_else(|| panic!("no variant {variant}"))
    }
}

fn summarize(variant: &'static str, run: &GoalRun) -> AblationRow {
    let total: usize = ["speech", "xanim", "anvil", "netscape"]
        .iter()
        .map(|a| run.adaptations_of(a))
        .sum();
    #[expect(
        clippy::expect_used,
        reason = "the goalrig machine always registers the netscape workload"
    )]
    let web = run
        .report
        .fidelity
        .iter()
        .find(|s| s.name() == "netscape")
        .expect("web series");
    let pts = web.resample(SimDuration::from_secs(10), run.report.end);
    let web_mean_level = if pts.is_empty() {
        0.0
    } else {
        pts.iter().map(|(_, v)| v / 4.0).sum::<f64>() / pts.len() as f64
    };
    AblationRow {
        variant,
        goal_met: run.outcome.goal_met,
        residual_j: run.report.residual_j,
        total_adaptations: total,
        upgrades: run.outcome.upgrades,
        web_mean_level,
    }
}

/// Runs the ablation study: one run per controller variant, fanned out
/// as a single [`run_grid`] dispatch, each job reducing its run to a row.
pub fn run(trials: &Trials) -> Ablation {
    let root = SimRng::new(trials.seed);
    let paper = GoalConfig::paper(INITIAL_ENERGY_J, SimDuration::from_secs(GOAL_S));
    let mut no_hysteresis = paper.clone();
    no_hysteresis.hysteresis_supply_frac = 0.0;
    no_hysteresis.hysteresis_initial_frac = 0.0;
    let mut no_cap = paper.clone();
    no_cap.upgrade_min_interval = SimDuration::from_millis(500);
    // (variant, stream label, controller config, reversed priorities)
    let variants = [
        ("Paper controller", "ablate/paper", paper.clone(), false),
        (
            "No hysteresis",
            "ablate/no-hysteresis",
            no_hysteresis,
            false,
        ),
        ("No upgrade rate cap", "ablate/no-cap", no_cap, false),
        ("Reversed priorities", "ablate/reversed", paper, true),
    ];
    let once = Trials { n: 1, ..*trials };
    let rows = run_grid(&once, &variants, |(variant, label, cfg, reversed), _| {
        let mut rng = root.fork(label);
        let rig = build_composite_goal(cfg, *reversed, FaultConfig::clean(), &mut rng);
        summarize(variant, &finish(rig, cfg.clone(), None))
    })
    .into_iter()
    .flatten()
    .collect();

    // Power-model ablation: the superlinearity term.
    let with =
        PlatformPower::new(PlatformSpec::thinkpad_560x()).power_w(&DeviceStates::full_on_idle());
    let without = PlatformPower::new(PlatformSpec::thinkpad_560x().without_superlinearity())
        .power_w(&DeviceStates::full_on_idle());
    Ablation {
        rows,
        superlinearity: (with, without),
    }
}

/// Renders the ablation table.
pub fn render(trials: &Trials) -> String {
    let a = run(trials);
    let mut t = Table::new(
        format!("Controller ablations (goal {GOAL_S}s, {INITIAL_ENERGY_J:.0} J)"),
        &[
            "Variant",
            "Goal Met",
            "Residual (J)",
            "Adaptations",
            "Upgrades",
            "Web mean fidelity",
        ],
    );
    for r in &a.rows {
        t.push_row(vec![
            r.variant.to_string(),
            if r.goal_met { "Yes" } else { "No" }.to_string(),
            format!("{:.0}", r.residual_j),
            r.total_adaptations.to_string(),
            r.upgrades.to_string(),
            format!("{:.2}", r.web_mean_level),
        ]);
    }
    t.with_caption(format!(
        "Power-model ablation: full-on power {:.2} W with superlinearity, {:.2} W without.",
        a.superlinearity.0, a.superlinearity.1
    ))
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Ablation {
        run(&Trials::single())
    }

    /// Removing hysteresis or the upgrade cap destabilizes the
    /// controller: strictly more fidelity changes than the paper's
    /// configuration.
    #[test]
    fn hysteresis_and_cap_buy_stability() {
        let a = study();
        let paper = a.row("Paper controller").total_adaptations;
        let no_hys = a.row("No hysteresis").total_adaptations;
        let no_cap = a.row("No upgrade rate cap").total_adaptations;
        assert!(
            no_hys > paper,
            "no-hysteresis {no_hys} not above paper {paper}"
        );
        assert!(no_cap > paper, "no-cap {no_cap} not above paper {paper}");
    }

    /// Reversing priorities pushes the web application — highest priority
    /// in the paper's order — to a lower average fidelity.
    #[test]
    fn priorities_protect_the_web_application() {
        let a = study();
        let paper = a.row("Paper controller").web_mean_level;
        let reversed = a.row("Reversed priorities").web_mean_level;
        assert!(
            reversed < paper,
            "reversed web fidelity {reversed} not below paper {paper}"
        );
    }

    /// Every variant still meets the goal — the mechanisms are about
    /// user experience, not feasibility.
    #[test]
    fn all_variants_meet_the_goal() {
        for r in &study().rows {
            assert!(r.goal_met, "{} missed the goal", r.variant);
        }
    }

    /// The superlinearity term is worth ~0.21 W at full-on.
    #[test]
    fn superlinearity_magnitude() {
        let a = study();
        let delta = a.superlinearity.0 - a.superlinearity.1;
        assert!((delta - Watts(0.21)).abs() < Watts(0.01), "delta {delta}");
    }
}
