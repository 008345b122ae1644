//! Shared rig for the goal-directed experiments of Section 5.
//!
//! The workload is the one Section 5.2 describes: the composite
//! application (speech → web → map) started every 25 seconds, running
//! concurrently with the adaptive background video player. Applications
//! are prioritized "with Speech having the lowest priority, and Video,
//! Map, and Web having successively higher priority". The machine runs
//! from a finite battery; the [`odyssey::GoalController`] observes power
//! through the on-line meter and issues upcalls until the goal is reached
//! or the supply is exhausted.
//!
//! This module is the one builder of that machine and workload:
//! [`goal_machine`] and [`add_apps`] serve the goal-directed figures,
//! the ablations, the chaos and supervision sweeps, the served session
//! and the golden traces alike.

use hw560x::EnergySource;
use machine::{AdaptDirection, FaultConfig, Machine, MachineConfig, Pid, RunReport, Workload};
use odyssey::goal::MONITOR_OVERHEAD_W;
use odyssey::{GoalConfig, GoalController, GoalOutcome, PriorityTable};
use odyssey_apps::bursty::{BurstyMember, BurstyRole};
use odyssey_apps::composite::{composite_members, CompositeMode};
use odyssey_apps::datasets::VIDEO_CLIPS;
use odyssey_apps::VideoPlayer;
use simcore::{Joules, SimDuration, SimRng, SimTime, TimeSeries, Watts};

use crate::fig20::APPS;

/// Everything an experiment needs from one goal-directed run.
#[derive(Clone, Debug)]
pub struct GoalRun {
    /// Controller outcome (goal met, adaptation counts).
    pub outcome: GoalOutcome,
    /// Machine report (energy, fidelity series, residual).
    pub report: RunReport,
    /// Residual-energy trace.
    pub supply: TimeSeries,
    /// Predicted-demand trace.
    pub demand: TimeSeries,
}

impl GoalRun {
    /// Number of fidelity changes a workload performed.
    pub fn adaptations_of(&self, name: &str) -> usize {
        self.report.adaptations_of(name)
    }

    /// The plain-data outcome the tabulated figures reduce.
    pub fn trial(&self) -> GoalTrial {
        GoalTrial {
            goal_met: self.outcome.goal_met,
            residual_j: self.report.residual_j,
            adaptations: APPS.iter().map(|a| self.adaptations_of(a)).collect(),
        }
    }
}

/// What a trial-grid job keeps of one goal-directed run: the outcome
/// without the report's ledger and series, so only a few words per run
/// cross threads and wait for the merge.
#[derive(Clone, Debug)]
pub struct GoalTrial {
    /// Whether the supply lasted the goal.
    pub goal_met: bool,
    /// Residual energy at the end.
    pub residual_j: Joules,
    /// Fidelity changes per application, in [`APPS`] order.
    pub adaptations: Vec<usize>,
}

/// The safety-net horizon the composite rig uses for a given goal.
pub fn composite_horizon(goal: SimDuration) -> SimTime {
    SimTime::ZERO + goal * 3 + SimDuration::from_secs(600)
}

/// The Section 5 machine: a battery holding the goal's supply, drawing
/// the on-line monitor's own power, on the `faults` substrate.
pub fn goal_machine(cfg: &GoalConfig, faults: FaultConfig) -> Machine {
    Machine::new(MachineConfig {
        source: EnergySource::battery(cfg.initial_energy_j),
        monitor_overhead_w: MONITOR_OVERHEAD_W,
        faults,
        ..Default::default()
    })
}

/// Adds the Section 5.2 workload to `m`: the adaptive composite members
/// started every 25 s until `horizon`, then the adaptive video looping
/// to `horizon` in the background. Each application passes through
/// `wrap(join_index, workload)` as it joins; the join indices are 0
/// speech, 1 web, 2 map and 3 video. Returns the pids lowest priority
/// first: speech, video, map, web.
pub fn add_apps(
    m: &mut Machine,
    horizon: SimTime,
    rng: &mut SimRng,
    mut wrap: impl FnMut(usize, Box<dyn Workload>) -> Box<dyn Workload>,
) -> [Pid; 4] {
    let mode = CompositeMode::Every {
        period: SimDuration::from_secs(25),
        horizon,
    };
    let members: Vec<Pid> = composite_members(mode, true, rng)
        .into_iter()
        .enumerate()
        .map(|(i, member)| m.add_process(wrap(i, Box::new(member))))
        .collect();
    let video = VideoPlayer::adaptive(VIDEO_CLIPS[0], rng).looping_until(horizon);
    let video = m.add_background_process(wrap(3, Box::new(video)));
    [members[0], video, members[2], members[1]]
}

/// Pins a workload at its lowest fidelity by degrading it until it
/// refuses.
pub(crate) fn at_lowest(mut w: Box<dyn Workload>) -> Box<dyn Workload> {
    while w.on_upcall(AdaptDirection::Degrade, SimTime::ZERO) {}
    w
}

/// Runs the composite + video workload under a goal controller.
pub fn run_composite_goal(cfg: GoalConfig, rng: &mut SimRng) -> GoalRun {
    let rig = build_composite_goal(&cfg, false, FaultConfig::clean(), rng);
    finish(rig, cfg, None)
}

/// A goal rig built but not yet run: the machine with all workloads
/// added, the priority order for the controller, and the safety-net
/// horizon. [`finish`] attaches the controller and runs; the trace
/// recorder attaches a `TraceHandle` in between.
#[derive(Debug)]
pub struct GoalRig {
    /// Machine with the workloads added.
    pub machine: Machine,
    /// Controller priority order, lowest first.
    pub priorities: PriorityTable,
    /// Safety-net horizon against runaway workloads.
    pub horizon: SimTime,
}

/// Builds the Section 5.2 composite + video rig for a goal config,
/// optionally reversing the priority order (web lowest, speech
/// highest): the priority ablation.
pub fn build_composite_goal(
    cfg: &GoalConfig,
    reverse_priorities: bool,
    faults: FaultConfig,
    rng: &mut SimRng,
) -> GoalRig {
    let horizon = composite_horizon(cfg.goal);
    let mut machine = goal_machine(cfg, faults);
    let mut order = add_apps(&mut machine, horizon, rng, |_, w| w);
    if reverse_priorities {
        order.reverse();
    }
    GoalRig {
        machine,
        priorities: PriorityTable::new(order.to_vec()),
        horizon,
    }
}

/// Runs the Section 5.4 bursty workload under a goal controller. A
/// `revision` `(at, goal)` is the user's mid-run extension: from `at` on
/// the goal is the new total duration.
pub fn run_bursty_goal(
    cfg: GoalConfig,
    revision: Option<(SimTime, SimDuration)>,
    rng: &mut SimRng,
) -> GoalRun {
    let horizon = SimTime::ZERO + cfg.goal * 2 + SimDuration::from_secs(600);
    let mut machine = goal_machine(&cfg, FaultConfig::clean());
    // The roles join lowest priority first.
    let order = BurstyRole::all()
        .into_iter()
        .map(|role| machine.add_process(Box::new(BurstyMember::new(role, horizon, rng))))
        .collect();
    let rig = GoalRig {
        machine,
        priorities: PriorityTable::new(order),
        horizon,
    };
    finish(rig, cfg, revision)
}

/// Attaches a [`GoalController`] with the rig's priorities and runs the
/// machine to the goal (or the safety-net horizon). A revision is posted
/// through the controller's handle 1 µs before its instant, so the
/// controller applies it at its first tick at or after that instant.
pub fn finish(rig: GoalRig, cfg: GoalConfig, revision: Option<(SimTime, SimDuration)>) -> GoalRun {
    let mut m = rig.machine;
    let sample_period = cfg.sample_period;
    let (handle, hook) = GoalController::new(cfg, rig.priorities);
    m.add_hook(sample_period, hook);
    if let Some((at, new_goal)) = revision {
        m.drive_until(at - SimDuration::from_micros(1));
        handle.post_goal_revision(new_goal);
    }
    // The controller stops the run at the goal; the horizon is a safety
    // net against runaway workloads.
    let report = m.run_until(rig.horizon);
    GoalRun {
        outcome: handle.outcome(),
        report,
        supply: handle.supply_series(),
        demand: handle.demand_series(),
    }
}

/// Mean power of the workload at pinned fidelity, measured over `secs`
/// seconds without a controller — used to find feasible goal ranges.
pub fn uncontrolled_power_w(lowest: bool, secs: u64, rng: &mut SimRng) -> Watts {
    let horizon = SimTime::from_secs(secs);
    let mut m = Machine::new(MachineConfig::default());
    add_apps(
        &mut m,
        horizon,
        rng,
        |_, w| if lowest { at_lowest(w) } else { w },
    );
    let report = m.run_until(horizon);
    report.total_j / report.end.since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_power_brackets_are_sane() {
        let mut rng = SimRng::new(1);
        let full = uncontrolled_power_w(false, 120, &mut rng).0;
        let low = uncontrolled_power_w(true, 120, &mut rng).0;
        assert!(
            low < full,
            "lowest fidelity power {low} not below full {full}"
        );
        assert!((6.0..16.0).contains(&full), "full power {full}");
        assert!((5.0..12.0).contains(&low), "lowest power {low}");
    }

    #[test]
    fn composite_goal_runs_and_reports() {
        let mut rng = SimRng::new(2);
        let cfg = GoalConfig::paper(3000.0, SimDuration::from_secs(240));
        let run = run_composite_goal(cfg, &mut rng);
        assert!(run.supply.len() > 50);
        assert_eq!(run.supply.len(), run.demand.len());
        // Either the goal was met or the battery drained; both terminate.
        assert!(run.outcome.goal_met || run.report.exhausted);
    }

    /// A revision takes effect at the controller tick of its instant: the
    /// bursty rig with and without one predicts the same demand at every
    /// decision before the instant, and a different one at it.
    #[test]
    fn revision_lands_on_the_tick_of_its_instant() {
        let at = SimTime::from_secs(100);
        let run = |revision| {
            let cfg = GoalConfig::paper(4000.0, SimDuration::from_secs(300));
            run_bursty_goal(cfg, revision, &mut SimRng::new(5)).demand
        };
        let (plain, revised) = (run(None), run(Some((at, SimDuration::from_secs(400)))));
        let before = |s: &TimeSeries| -> Vec<(SimTime, f64)> {
            s.points().iter().copied().filter(|p| p.0 < at).collect()
        };
        assert!(!before(&plain).is_empty());
        assert_eq!(before(&plain), before(&revised));
        let at_at = |s: &TimeSeries| s.points().iter().find(|p| p.0 == at).map(|p| p.1);
        let (p, r) = (at_at(&plain), at_at(&revised));
        assert!(p.is_some() && p != r, "demand at {at:?}: {p:?} and {r:?}");
    }

    #[test]
    fn video_degrades_fully() {
        let mut rng = SimRng::new(3);
        let mut v = VideoPlayer::adaptive(VIDEO_CLIPS[0], &mut rng);
        let mut n = 0;
        while v.on_upcall(machine::AdaptDirection::Degrade, SimTime::ZERO) {
            n += 1;
        }
        assert_eq!(n, 3, "video ladder has 4 levels");
        assert_eq!(v.fidelity().level, 0);
    }
}

#[cfg(test)]
mod envelope_probe {
    use super::*;

    #[test]
    #[ignore]
    fn print_bursty_long() {
        use odyssey_apps::bursty::{BurstyMember, BurstyRole};
        let root = SimRng::new(42);
        for i in 0..3u64 {
            for lowest in [false, true] {
                let mut rng = root.fork_indexed("sec54", i);
                let horizon = SimTime::from_secs(9900);
                let mut m = Machine::new(MachineConfig::default());
                for role in BurstyRole::all() {
                    let mut member = BurstyMember::new(role, horizon, &mut rng);
                    if lowest {
                        while member.on_upcall(machine::AdaptDirection::Degrade, SimTime::ZERO) {}
                    }
                    m.add_process(Box::new(member));
                }
                let report = m.run_until(horizon);
                eprintln!(
                    "LONG seed={i} lowest={lowest} power={:.2} W",
                    report.total_j / report.duration_s()
                );
            }
        }
    }

    #[test]
    #[ignore]
    fn print_bursty_seed_spread() {
        use odyssey_apps::bursty::{BurstyMember, BurstyRole};
        let root = SimRng::new(42);
        for i in 0..5u64 {
            for lowest in [false, true] {
                let mut rng = root.fork_indexed("fig22", i);
                let horizon = SimTime::from_secs(1560);
                let mut m = Machine::new(MachineConfig::default());
                for role in BurstyRole::all() {
                    let mut member = BurstyMember::new(role, horizon, &mut rng);
                    if lowest {
                        while member.on_upcall(machine::AdaptDirection::Degrade, SimTime::ZERO) {}
                    }
                    m.add_process(Box::new(member));
                }
                let report = m.run_until(horizon);
                eprintln!(
                    "SEED {i} lowest={lowest} power={:.2} W ({:.0} J over 1560 s)",
                    report.total_j / report.duration_s(),
                    report.total_j
                );
            }
        }
    }

    #[test]
    #[ignore]
    fn print_bursty_envelope() {
        use odyssey_apps::bursty::{BurstyMember, BurstyRole};
        for lowest in [false, true] {
            let mut rng = SimRng::new(11);
            let horizon = SimTime::from_secs(1200);
            let mut m = Machine::new(MachineConfig::default());
            for role in BurstyRole::all() {
                let mut member = BurstyMember::new(role, horizon, &mut rng);
                if lowest {
                    while member.on_upcall(machine::AdaptDirection::Degrade, SimTime::ZERO) {}
                }
                m.add_process(Box::new(member));
            }
            let report = m.run_until(horizon);
            eprintln!(
                "BURSTY lowest={lowest} power={:.2} W",
                report.total_j / report.duration_s()
            );
        }
    }

    #[test]
    #[ignore]
    fn print_power_envelope() {
        let mut rng = SimRng::new(7);
        let full = uncontrolled_power_w(false, 300, &mut rng).0;
        let low = uncontrolled_power_w(true, 300, &mut rng).0;
        eprintln!(
            "ENVELOPE full={full:.2} W low={low:.2} W ratio={:.3}",
            full / low
        );
        eprintln!(
            "12 kJ durations: full {:.0} s, low {:.0} s",
            12000.0 / full,
            12000.0 / low
        );
    }
}
