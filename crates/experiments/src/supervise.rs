//! Supervision sweep: the goal workload with misbehaving applications.
//!
//! Reruns the Figure 20 goal workload (composite loop + background video,
//! 1560 s goal on a 17.4 kJ supply) with 0–4 of the applications wrapped
//! in [`Misbehavior`]:
//!
//! | k    | newly misbehaving app                                   |
//! |------|---------------------------------------------------------|
//! | ≥ 1  | video hangs at 200 s: spins at full power, stops polling |
//! | ≥ 2  | map lies: reports degraded fidelity, runs at full        |
//! | ≥ 3  | web ignores every upcall while claiming adaptability     |
//! | ≥ 4  | speech crashes at 300 s, leaking its fidelity slot       |
//!
//! The machine and workload come from [`crate::goalrig`], the one
//! builder of the Section 5 rig; the misbehaviors wrap its applications
//! as they join. With k = 0 and no supervisor a cell is the Figure 20
//! rig run on this supply and goal.
//!
//! Each k runs twice on the identical substrate: once with the paper's
//! unsupervised viceroy (the goal controller alone) and once with the
//! [`Supervisor`] attached. Reported per cell: goal attainment, how far
//! short the client fell, residue, and the supervisor's detection and
//! response counters.

use machine::{FaultConfig, Machine, RunReport};
use odyssey::{
    supervisor, GoalConfig, GoalController, GoalOutcome, PriorityTable, Supervisor, SupervisorStats,
};
use odyssey_apps::Misbehavior;
use simcore::fault::{FaultSchedule, FaultWindow};
use simcore::{SimDuration, SimRng, SimTime, TrialStats, Watts};

use crate::chaos::{CHAOS_ENERGY_J, GOAL_S};
use crate::goalrig::{add_apps, composite_horizon, goal_machine};
use crate::harness::{run_grid, Trials};
use crate::table::Table;
use simcore::Joules;

/// The swept misbehaving-app counts.
pub const KS: [usize; 5] = [0, 1, 2, 3, 4];

/// Instant the video player wedges (k ≥ 1).
const HANG_AT: SimTime = SimTime::from_secs(200);

/// Instant the speech member crashes (k ≥ 4).
const CRASH_AT: SimTime = SimTime::from_secs(300);

/// Declared sustained power per fidelity level, W, index 0 = lowest.
/// Calibrated against the attribution probe (`power_probe` below): each
/// entry sits above the app's honest peak windowed draw at that level
/// (so honest apps never overdraw), while the low entries sit far enough
/// below full-fidelity draw that claiming them while running at full
/// trips the overdraw factor. Speech is the inversion the paper
/// documents: its lowest fidelity is *local* recognition, which draws
/// more CPU power than shipping the utterance to a server.
const DECLARED_SPEECH: [Watts; 2] = [Watts(6.5), Watts(2.5)];
const DECLARED_VIDEO: [Watts; 4] = [Watts(0.5), Watts(0.8), Watts(1.2), Watts(2.0)];
const DECLARED_MAP: [Watts; 4] = [Watts(0.4), Watts(0.7), Watts(1.1), Watts(2.2)];
const DECLARED_WEB: [Watts; 5] = [Watts(0.1), Watts(0.15), Watts(0.2), Watts(0.3), Watts(0.5)];

/// One (k, supervised) cell of the sweep.
#[derive(Clone, Debug)]
pub struct SuperviseCell {
    /// Number of misbehaving applications.
    pub k: usize,
    /// True if the supervisor ran this cell.
    pub supervised: bool,
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
    /// Hang detections (watchdog + power).
    pub hangs: TrialStats,
    /// Ignored-upcall detections.
    pub ignores: TrialStats,
    /// Overdraw (lie) detections.
    pub overdraws: TrialStats,
    /// Forced datapath clamps.
    pub clamps: TrialStats,
    /// Quarantines.
    pub quarantines: TrialStats,
    /// Restarts.
    pub restarts: TrialStats,
    /// Demand-ledger entries collected from crashed apps.
    pub crash_releases: TrialStats,
    /// Declared watts redistributed to surviving apps.
    pub redistributed_w: TrialStats,
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Supervise {
    /// Cells in sweep order: for each k, unsupervised then supervised.
    pub cells: Vec<SuperviseCell>,
    /// Energy supply used.
    pub initial_energy_j: Joules,
    /// Goal duration, seconds.
    pub goal_s: u64,
}

impl Supervise {
    /// The cell for a (k, supervised) pair.
    #[expect(
        clippy::expect_used,
        reason = "the sweep populates every (k, supervised) cell"
    )]
    pub fn cell(&self, k: usize, supervised: bool) -> &SuperviseCell {
        self.cells
            .iter()
            .find(|c| c.k == k && c.supervised == supervised)
            .expect("cell present")
    }
}

struct SuperRun {
    outcome: GoalOutcome,
    report: RunReport,
    stats: SupervisorStats,
}

/// A supervision-cell rig built but not yet run. The trace recorder
/// attaches a `TraceHandle` to the machine before running it.
#[derive(Debug)]
pub struct SuperRig {
    /// Machine with the k-misbehaving composite workload and hooks added.
    pub machine: Machine,
    /// Goal-controller handle for the outcome after the run.
    pub goal: odyssey::GoalHandle,
    /// Supervisor handle when the cell is supervised.
    pub supervisor: Option<odyssey::SupervisorHandle>,
    /// Safety-net horizon to run until.
    pub horizon: SimTime,
}

/// Builds one trial cell: the Figure 20 rig with `k` misbehaving apps,
/// optionally supervised. Both arms of a pair consume the rng
/// identically, so they face the same workload.
pub fn build_one(k: usize, supervised: bool, rng: &mut SimRng) -> SuperRig {
    let cfg = GoalConfig::paper(CHAOS_ENERGY_J, SimDuration::from_secs(GOAL_S));
    let horizon = composite_horizon(cfg.goal);
    let mut m = goal_machine(&cfg, FaultConfig::clean());
    let [speech_pid, video_pid, map_pid, web_pid] =
        add_apps(&mut m, horizon, rng, |i, w| match i {
            0 if k >= 4 => Box::new(Misbehavior::crash_at(w, CRASH_AT).restartable()),
            1 if k >= 3 => Box::new(Misbehavior::ignore_upcalls(w)),
            2 if k >= 2 => Box::new(Misbehavior::lie(w).restartable()),
            3 if k >= 1 => {
                let wedge = FaultSchedule::new(vec![FaultWindow {
                    start: HANG_AT,
                    end: horizon,
                }]);
                Box::new(Misbehavior::hang(w, wedge).restartable())
            }
            _ => w,
        });
    let priorities = PriorityTable::new(vec![speech_pid, video_pid, map_pid, web_pid]);
    let sample_period = cfg.sample_period;
    let (goal_handle, controller) = GoalController::new(cfg, priorities);
    m.add_hook(sample_period, controller);

    let sup_handle = if supervised {
        let (handle, mut sup) = Supervisor::new();
        sup.watch(
            speech_pid,
            DECLARED_SPEECH.to_vec(),
            DECLARED_SPEECH.len() - 1,
        );
        sup.watch(web_pid, DECLARED_WEB.to_vec(), DECLARED_WEB.len() - 1);
        sup.watch(map_pid, DECLARED_MAP.to_vec(), DECLARED_MAP.len() - 1);
        sup.watch(video_pid, DECLARED_VIDEO.to_vec(), DECLARED_VIDEO.len() - 1);
        sup.attach_goal(goal_handle.clone());
        m.add_hook(supervisor::PERIOD, sup);
        Some(handle)
    } else {
        None
    };

    SuperRig {
        machine: m,
        goal: goal_handle,
        supervisor: sup_handle,
        horizon,
    }
}

fn run_one(k: usize, supervised: bool, rng: &mut SimRng) -> SuperRun {
    let mut rig = build_one(k, supervised, rng);
    let report = rig.machine.run_until(rig.horizon);
    SuperRun {
        outcome: rig.goal.outcome(),
        report,
        stats: rig.supervisor.map(|h| h.stats()).unwrap_or_default(),
    }
}

/// Runs the default sweep.
pub fn run(trials: &Trials) -> Supervise {
    run_sweep(trials, &KS)
}

/// Runs an arbitrary sweep over misbehaving-app counts.
///
/// Every trial stream is keyed purely by `(seed, k, trial)`, so all
/// `cells × trials.n` runs go out as one [`run_grid`] dispatch — every
/// worker stays busy even when the sweep has few cells — and each cell
/// is reduced from its trials in trial order, byte-identical to the
/// serial run at any thread count.
pub fn run_sweep(trials: &Trials, ks: &[usize]) -> Supervise {
    let specs: Vec<(usize, bool)> = ks.iter().flat_map(|&k| [(k, false), (k, true)]).collect();
    let root = SimRng::new(trials.seed);
    let runs = run_grid(trials, &specs, |&(k, supervised), i| {
        // Workload streams are keyed by k and trial only, so the
        // unsupervised and supervised cells face the identical
        // applications — a paired comparison.
        let mut rng = root.fork_indexed(&format!("supervise/{k}"), i as u64);
        run_one(k, supervised, &mut rng)
    });
    let cells = specs
        .iter()
        .zip(&runs)
        .map(|(&(k, supervised), cell_runs)| reduce_cell(k, supervised, cell_runs))
        .collect();
    Supervise {
        cells,
        initial_energy_j: Joules(CHAOS_ENERGY_J),
        goal_s: GOAL_S,
    }
}

/// Reduces one (k, supervised) cell from its paired trial runs (in
/// trial order).
fn reduce_cell(k: usize, supervised: bool, runs: &[SuperRun]) -> SuperviseCell {
    let mut met = 0usize;
    let mut hit95 = 0usize;
    let mut shortfall = Vec::new();
    let mut residual = Vec::new();
    let mut energy = Vec::new();
    let mut hangs = Vec::new();
    let mut ignores = Vec::new();
    let mut overdraws = Vec::new();
    let mut clamps = Vec::new();
    let mut quarantines = Vec::new();
    let mut restarts = Vec::new();
    let mut crash_releases = Vec::new();
    let mut redistributed = Vec::new();
    for run in runs {
        let dur = run.report.duration_s();
        if run.outcome.goal_met {
            met += 1;
        }
        if run.outcome.goal_met || dur >= 0.95 * GOAL_S as f64 {
            hit95 += 1;
        }
        shortfall.push(if run.outcome.goal_met {
            0.0
        } else {
            (GOAL_S as f64 - dur.min(GOAL_S as f64)) / GOAL_S as f64 * 100.0
        });
        residual.push(run.report.residual_j.0);
        energy.push(run.report.total_j.0);
        hangs.push(run.stats.hang_strikes as f64);
        ignores.push(run.stats.ignore_strikes as f64);
        overdraws.push(run.stats.overdraw_strikes as f64);
        clamps.push(run.stats.clamps as f64);
        quarantines.push(run.stats.quarantines as f64);
        restarts.push(run.stats.restarts as f64);
        crash_releases.push(run.stats.crash_releases as f64);
        redistributed.push(run.stats.redistributed_w.0);
    }
    SuperviseCell {
        k,
        supervised,
        met_fraction: met as f64 / runs.len() as f64,
        hit95_fraction: hit95 as f64 / runs.len() as f64,
        shortfall_pct: TrialStats::from_values(&shortfall),
        residual: TrialStats::from_values(&residual),
        energy: TrialStats::from_values(&energy),
        hangs: TrialStats::from_values(&hangs),
        ignores: TrialStats::from_values(&ignores),
        overdraws: TrialStats::from_values(&overdraws),
        clamps: TrialStats::from_values(&clamps),
        quarantines: TrialStats::from_values(&quarantines),
        restarts: TrialStats::from_values(&restarts),
        crash_releases: TrialStats::from_values(&crash_releases),
        redistributed_w: TrialStats::from_values(&redistributed),
    }
}

/// Renders the sweep table.
pub fn render(trials: &Trials) -> String {
    let s = run(trials);
    let mut t = Table::new(
        format!(
            "Supervision sweep: {} s goal on {:.0} J with k misbehaving apps",
            s.goal_s, s.initial_energy_j
        ),
        &[
            "k",
            "Viceroy",
            "Goal met",
            "Lasted >=95%",
            "Shortfall %",
            "Residue (J)",
            "Hangs",
            "Ignores",
            "Lies",
            "Clamps",
            "Quar.",
            "Restarts",
            "Crash GC",
            "Freed (W)",
        ],
    );
    for cell in &s.cells {
        t.push_row(vec![
            format!("{}", cell.k),
            if cell.supervised {
                "supervised"
            } else {
                "unsupervised"
            }
            .to_string(),
            format!("{:.0}%", cell.met_fraction * 100.0),
            format!("{:.0}%", cell.hit95_fraction * 100.0),
            format!(
                "{:.1} ({:.1})",
                cell.shortfall_pct.mean, cell.shortfall_pct.sd
            ),
            format!("{:.0} ({:.0})", cell.residual.mean, cell.residual.sd),
            format!("{:.1}", cell.hangs.mean),
            format!("{:.1}", cell.ignores.mean),
            format!("{:.1}", cell.overdraws.mean),
            format!("{:.1}", cell.clamps.mean),
            format!("{:.1}", cell.quarantines.mean),
            format!("{:.1}", cell.restarts.mean),
            format!("{:.1}", cell.crash_releases.mean),
            format!("{:.1}", cell.redistributed_w.mean),
        ]);
    }
    t.with_caption(
        "Beyond the paper: a single wedged app starves the unsupervised viceroy of its \
         energy budget; the supervisor detects hangs, lies, ignored upcalls, and \
         crashes, quarantines or clamps the offenders, and holds the goal within 5%.",
    )
    .render()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    /// With no misbehaving apps both viceroys meet the goal, and the
    /// supervisor never fires: the default path is untouched.
    #[test]
    fn clean_cells_meet_goal_and_supervisor_is_silent() {
        let s = run_sweep(&Trials::single(), &[0]);
        let unsup = s.cell(0, false);
        let sup = s.cell(0, true);
        assert_eq!(unsup.met_fraction, 1.0, "{unsup:?}");
        assert_eq!(sup.met_fraction, 1.0, "{sup:?}");
        assert_eq!(sup.quarantines.mean, 0.0, "{sup:?}");
        assert_eq!(sup.clamps.mean, 0.0, "{sup:?}");
        assert_eq!(sup.hangs.mean, 0.0, "{sup:?}");
        assert_eq!(sup.overdraws.mean, 0.0, "{sup:?}");
    }

    /// The acceptance claim: with up to 4 misbehaving apps the supervised
    /// viceroy holds the battery-duration goal within 5% while the
    /// unsupervised one misses it.
    #[test]
    fn supervised_holds_goal_where_unsupervised_misses() {
        let s = run_sweep(&Trials::single(), &KS);
        for &k in &KS[1..] {
            let unsup = s.cell(k, false);
            let sup = s.cell(k, true);
            assert!(
                unsup.met_fraction < 1.0,
                "k={k}: unsupervised unexpectedly met the goal: {unsup:?}"
            );
            assert_eq!(
                sup.hit95_fraction, 1.0,
                "k={k}: supervised missed 95%: {sup:?}"
            );
            assert!(sup.quarantines.mean >= 1.0, "k={k}: {sup:?}");
        }
        // Each misbehavior class is caught once present. A wedge
        // monopolizes the CPU, so PowerScope attributes near-platform
        // power to it and the overdraw cross-check usually fires seconds
        // before the 30 s watchdog matures — any detector counts here
        // (the watchdog-only path is unit-tested in odyssey).
        let c1 = s.cell(1, true);
        assert!(
            c1.hangs.mean + c1.ignores.mean + c1.overdraws.mean >= 1.0,
            "{c1:?}"
        );
        assert!(s.cell(2, true).overdraws.mean >= 1.0);
        assert!(s.cell(4, true).crash_releases.mean >= 1.0);
    }

    /// Same seed, same sweep — byte-identical cells.
    #[test]
    fn sweep_is_deterministic() {
        let t = Trials {
            n: 1,
            seed: 7,
            threads: 1,
        };
        let a = format!("{:?}", run_sweep(&t, &[1]).cells);
        let b = format!("{:?}", run_sweep(&t, &[1]).cells);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod power_probe {
    use super::*;
    use crate::goalrig::at_lowest;
    use machine::{ControlHook, MachineConfig, MachineView};
    use powerscope::AttributionFeed;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Probe {
        feed: AttributionFeed,
        names: Vec<&'static str>,
        max: Rc<RefCell<Vec<f64>>>,
    }

    impl ControlHook for Probe {
        fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
            for i in 0..self.names.len() {
                let Some(info) = view.process(i) else {
                    continue;
                };
                let e = view.attributed_energy_j(info.pid);
                if let Some(p) = self.feed.observe(i, now, e) {
                    let mut max = self.max.borrow_mut();
                    if p.0 > max[i] {
                        max[i] = p.0;
                    }
                }
            }
        }
    }

    /// Calibration probe: prints each app's peak smoothed attributed
    /// power at full and lowest fidelity. Run with
    /// `cargo test -p experiments power_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn print_attributed_power_envelope() {
        for lowest in [false, true] {
            let mut rng = SimRng::new(17);
            let horizon = SimTime::from_secs(900);
            let mut m = Machine::new(MachineConfig::default());
            let mut names = Vec::new();
            add_apps(&mut m, horizon, &mut rng, |_, w| {
                names.push(w.name());
                if lowest {
                    at_lowest(w)
                } else {
                    w
                }
            });
            let max = Rc::new(RefCell::new(vec![0.0; names.len()]));
            m.add_hook(
                SimDuration::from_secs(1),
                Box::new(Probe {
                    feed: AttributionFeed::new(),
                    names: names.clone(),
                    max: max.clone(),
                }),
            );
            m.run_until(horizon);
            for (n, p) in names.iter().zip(max.borrow().iter()) {
                eprintln!("PROBE lowest={lowest} {n}: peak EMA {p:.2} W");
            }
        }
    }
}
