//! Chaos sweep: the goal controller against a hostile substrate.
//!
//! The paper's Section 5 experiments assume the substrate tells the
//! truth: the gauge reports residual energy exactly, the meter never
//! drops a sample, and the network delivers every RPC. This experiment
//! sweeps a fault-intensity knob from 0 (the paper's clean world) to 1
//! (WaveLAN outages and dips, RPC timeouts and retries that cost real
//! energy, a battery gauge that reads high and drifts, an energy meter
//! that drops and jitters samples) and compares the paper's controller
//! against the hardened one on the Figure 20 composite workload.
//!
//! Reported per cell: the fraction of trials in which the supply lasted
//! the full goal, the fraction lasting at least 95% of it, how early the
//! client died, the residue, the energy overhead relative to the clean
//! cell of the same controller, and the fault-path counters (retries,
//! stale decisions, infeasibility alerts).

use machine::{FaultConfig, RpcPolicy};
use odyssey::{GoalConfig, Hardening};
use powerscope::MeterFaultPlan;
use simcore::{Joules, SimDuration, SimRng, TrialStats};

use crate::goalrig::{build_composite_goal, composite_horizon, finish, GoalRig, GoalRun};
use crate::harness::{run_grid, Trials};
use crate::table::Table;

/// The swept fault intensities.
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Battery-duration goal, seconds — the Figure 20 upper goal, where the
/// paper's residue is under 1.2% of the supply. The margin is thin
/// enough that a controller believing an optimistic gauge overspends.
pub const GOAL_S: u64 = 1560;

/// Supply for the sweep, J: Figure 20's 16 600 J plus ~5% headroom, so
/// the goal stays feasible at lowest fidelity even after fault-path
/// energy overheads (retries, outage airtime). Without the headroom the
/// sweep would only measure infeasibility, not controller quality.
pub const CHAOS_ENERGY_J: f64 = 17_400.0;

/// One (intensity, controller) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// True if the hardened controller ran this cell.
    pub hardened: bool,
    /// Fraction of trials where the supply lasted the full goal.
    pub met_fraction: f64,
    /// Fraction of trials lasting at least 95% of the goal.
    pub hit95_fraction: f64,
    /// Shortfall of run duration vs the goal, percent (0 when met).
    pub shortfall_pct: TrialStats,
    /// Residual energy at the end, J.
    pub residual: TrialStats,
    /// Total energy consumed, J.
    pub energy: TrialStats,
    /// Fidelity changes across all applications.
    pub adaptations: TrialStats,
    /// RPC attempts aborted by timeout.
    pub rpc_timeouts: TrialStats,
    /// RPC attempts re-issued after a timeout.
    pub rpc_retries: TrialStats,
    /// Decisions skipped on stale power data (hardened only).
    pub stale_decisions: TrialStats,
    /// Infeasibility alerts raised (the goal-is-hopeless signal).
    pub infeasible_signals: TrialStats,
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Chaos {
    /// Cells in sweep order: for each intensity, naive then hardened.
    pub cells: Vec<ChaosCell>,
    /// Energy supply used.
    pub initial_energy_j: Joules,
    /// Goal duration, seconds.
    pub goal_s: u64,
}

impl Chaos {
    /// The cell for an intensity/controller pair.
    #[expect(
        clippy::expect_used,
        reason = "run_sweep populates every (intensity, hardened) cell"
    )]
    #[expect(
        clippy::float_cmp,
        reason = "intensities are looked up by the exact keys the sweep stored"
    )]
    pub fn cell(&self, intensity: f64, hardened: bool) -> &ChaosCell {
        self.cells
            .iter()
            .find(|c| c.intensity == intensity && c.hardened == hardened)
            .expect("cell present")
    }
}

/// Runs the default sweep.
pub fn run(trials: &Trials) -> Chaos {
    run_sweep(trials, &INTENSITIES, GOAL_S, Joules(CHAOS_ENERGY_J))
}

/// Runs an arbitrary intensity sweep.
///
/// Every trial stream is keyed purely by `(seed, intensity, trial)`, so
/// all `cells × trials.n` runs go out as one [`run_grid`] dispatch, and
/// each cell is reduced from its trials in trial order — byte-identical
/// to the serial run at any thread count.
pub fn run_sweep(
    trials: &Trials,
    intensities: &[f64],
    goal_s: u64,
    initial_energy_j: Joules,
) -> Chaos {
    let specs: Vec<(f64, bool)> = intensities
        .iter()
        .flat_map(|&intensity| [(intensity, false), (intensity, true)])
        .collect();
    let root = SimRng::new(trials.seed);
    let runs = run_grid(trials, &specs, |&(intensity, hardened), i| {
        let (rig, cfg) = build_cell(
            &root,
            intensity,
            hardened,
            i as u64,
            goal_s,
            initial_energy_j,
        );
        finish(rig, cfg, None)
    });
    let cells = specs
        .iter()
        .zip(&runs)
        .map(|(&(intensity, hardened), cell_runs)| {
            reduce_cell(intensity, hardened, goal_s, cell_runs)
        })
        .collect();
    Chaos {
        cells,
        initial_energy_j,
        goal_s,
    }
}

/// Builds one chaos cell: the Figure 20 composite rig on the hostile
/// substrate at `intensity`, and the paper or hardened controller
/// config to run it under.
pub fn build_cell(
    root: &SimRng,
    intensity: f64,
    hardened: bool,
    trial: u64,
    goal_s: u64,
    initial_energy_j: Joules,
) -> (GoalRig, GoalConfig) {
    // Workload and fault streams are keyed by intensity and trial only,
    // so the naive and hardened controllers face the identical
    // substrate — a paired comparison.
    let label = format!("chaos/{intensity:.2}");
    let mut rng = root.fork_indexed(&label, trial);
    let fault_seed = rng.fork("faults").seed();
    let goal = SimDuration::from_secs(goal_s);
    let mut faults = FaultConfig::hostile(fault_seed, intensity, composite_horizon(goal));
    // The composite workload multiplexes several transfers over the
    // shared link; a timeout sized for a lone RPC would fire on
    // legitimately slow concurrent ones.
    faults.rpc = Some(RpcPolicy {
        timeout: SimDuration::from_secs(12),
    });
    let mut cfg = GoalConfig::paper(initial_energy_j.0, goal)
        .with_meter_faults(MeterFaultPlan::degraded(fault_seed, intensity));
    if hardened {
        cfg = cfg.with_hardening(Hardening::standard());
    }
    let rig = build_composite_goal(&cfg, false, faults, &mut rng);
    (rig, cfg)
}

/// Reduces one (intensity, controller) cell from its paired trial runs
/// (in trial order).
fn reduce_cell(intensity: f64, hardened: bool, goal_s: u64, runs: &[GoalRun]) -> ChaosCell {
    let mut met = 0usize;
    let mut hit95 = 0usize;
    let mut infeasible = Vec::new();
    let mut shortfall = Vec::new();
    let mut residual = Vec::new();
    let mut energy = Vec::new();
    let mut adaptations = Vec::new();
    let mut timeouts = Vec::new();
    let mut retries = Vec::new();
    let mut stale = Vec::new();
    for run in runs {
        let dur = run.report.duration_s();
        if run.outcome.goal_met {
            met += 1;
        }
        if run.outcome.goal_met || dur >= 0.95 * goal_s as f64 {
            hit95 += 1;
        }
        infeasible.push(run.outcome.infeasible_signals as f64);
        let short = if run.outcome.goal_met {
            0.0
        } else {
            (goal_s as f64 - dur.min(goal_s as f64)) / goal_s as f64 * 100.0
        };
        shortfall.push(short);
        residual.push(run.report.residual_j.0);
        energy.push(run.report.total_j.0);
        adaptations.push((run.outcome.degrades + run.outcome.upgrades) as f64);
        timeouts.push(run.report.rpc_timeouts as f64);
        retries.push(run.report.rpc_retries as f64);
        stale.push(run.outcome.stale_decisions as f64);
    }
    ChaosCell {
        intensity,
        hardened,
        met_fraction: met as f64 / runs.len() as f64,
        hit95_fraction: hit95 as f64 / runs.len() as f64,
        shortfall_pct: TrialStats::from_values(&shortfall),
        residual: TrialStats::from_values(&residual),
        energy: TrialStats::from_values(&energy),
        adaptations: TrialStats::from_values(&adaptations),
        rpc_timeouts: TrialStats::from_values(&timeouts),
        rpc_retries: TrialStats::from_values(&retries),
        stale_decisions: TrialStats::from_values(&stale),
        infeasible_signals: TrialStats::from_values(&infeasible),
    }
}

/// Renders the sweep table.
pub fn render(trials: &Trials) -> String {
    let c = run(trials);
    let mut t = Table::new(
        format!(
            "Chaos sweep: {} s goal on {:.0} J under substrate faults",
            c.goal_s, c.initial_energy_j
        ),
        &[
            "Intensity",
            "Controller",
            "Goal met",
            "Lasted >=95%",
            "Shortfall %",
            "Residue (J)",
            "Energy +%",
            "Adapts",
            "Retries",
            "Stale",
            "Infeasible",
        ],
    );
    for cell in &c.cells {
        let clean = c.cell(c.cells[0].intensity, cell.hardened);
        let overhead_pct = if clean.energy.mean > 0.0 {
            (cell.energy.mean / clean.energy.mean - 1.0) * 100.0
        } else {
            0.0
        };
        t.push_row(vec![
            format!("{:.2}", cell.intensity),
            if cell.hardened { "hardened" } else { "paper" }.to_string(),
            format!("{:.0}%", cell.met_fraction * 100.0),
            format!("{:.0}%", cell.hit95_fraction * 100.0),
            format!(
                "{:.1} ({:.1})",
                cell.shortfall_pct.mean, cell.shortfall_pct.sd
            ),
            format!("{:.0} ({:.0})", cell.residual.mean, cell.residual.sd),
            format!("{overhead_pct:+.1}"),
            format!("{:.1}", cell.adaptations.mean),
            format!("{:.1}", cell.rpc_retries.mean),
            format!("{:.1}", cell.stale_decisions.mean),
            format!("{:.1}", cell.infeasible_signals.mean),
        ]);
    }
    t.with_caption(
        "Beyond the paper: the paper's controller trusts the gauge and dies early as \
         intensity rises; the hardened controller holds the goal within 5%.",
    )
    .render()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    /// At intensity 0 the sweep reduces to the paper's clean world: both
    /// controllers meet the goal.
    #[test]
    fn clean_cells_meet_the_goal() {
        let c = run_sweep(&Trials::single(), &[0.0], GOAL_S, Joules(CHAOS_ENERGY_J));
        assert_eq!(c.cell(0.0, false).met_fraction, 1.0);
        assert_eq!(c.cell(0.0, true).met_fraction, 1.0);
    }

    /// The headline robustness claim: under moderate faults the hardened
    /// controller keeps the client alive to within 5% of the goal while
    /// the paper's controller, trusting the optimistic gauge, dies short.
    #[test]
    fn hardened_holds_goal_where_naive_dies() {
        let c = run_sweep(&Trials::quick(), &[1.0], GOAL_S, Joules(CHAOS_ENERGY_J));
        let naive = c.cell(1.0, false);
        let hard = c.cell(1.0, true);
        assert_eq!(hard.hit95_fraction, 1.0, "hardened: {hard:?}");
        assert!(
            naive.met_fraction < 1.0,
            "naive unexpectedly survived the lying gauge: {naive:?}"
        );
        assert!(
            hard.shortfall_pct.mean <= naive.shortfall_pct.mean,
            "hardened shortfall {:.2}% worse than naive {:.2}%",
            hard.shortfall_pct.mean,
            naive.shortfall_pct.mean
        );
    }

    /// Same seed, same sweep — byte-identical rendering.
    #[test]
    fn sweep_is_deterministic() {
        let t = Trials {
            n: 1,
            seed: 7,
            threads: 1,
        };
        let a = render_cells(&run_sweep(&t, &[0.5], GOAL_S, Joules(CHAOS_ENERGY_J)));
        let b = render_cells(&run_sweep(&t, &[0.5], GOAL_S, Joules(CHAOS_ENERGY_J)));
        assert_eq!(a, b);
    }

    fn render_cells(c: &Chaos) -> String {
        format!("{:?}", c.cells)
    }
}
