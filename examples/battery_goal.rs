//! Goal-directed adaptation: make the battery last exactly as long as the
//! flight.
//!
//! A user with 16.6 kJ of battery asks Odyssey for 24 minutes of runtime
//! while using the composite speech/web/map workload with a background
//! video. Odyssey monitors supply and demand twice a second and degrades
//! (or restores) application fidelity to land on the goal.
//!
//! Run with: `cargo run --release --example battery_goal [goal-seconds]`

use energy_adaptation::apps::composite::{composite_members, CompositeMode};
use energy_adaptation::apps::datasets::VIDEO_CLIPS;
use energy_adaptation::apps::VideoPlayer;
use energy_adaptation::hw560x::EnergySource;
use energy_adaptation::machine::{Machine, MachineConfig};
use energy_adaptation::odyssey::{GoalConfig, GoalController, PriorityTable};
use energy_adaptation::simcore::{Joules, SimDuration, SimRng, SimTime};

const INITIAL_ENERGY_J: f64 = 16_600.0;

fn main() {
    let goal_s: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1440);
    println!("Goal: {goal_s} s from {INITIAL_ENERGY_J} J\n");

    let mut rng = SimRng::new(7);
    let horizon = SimTime::from_secs(goal_s * 3);
    let mut machine = Machine::new(MachineConfig {
        source: EnergySource::battery(Joules(INITIAL_ENERGY_J)),
        ..Default::default()
    });
    // The composite members arrive as [speech, web, map].
    let mut pids = Vec::new();
    for member in composite_members(
        CompositeMode::Every {
            period: SimDuration::from_secs(25),
            horizon,
        },
        true,
        &mut rng,
    ) {
        pids.push(machine.add_process(Box::new(member)));
    }
    let video = VideoPlayer::adaptive(VIDEO_CLIPS[0], &mut rng).looping_until(horizon);
    let video_pid = machine.add_background_process(Box::new(video));

    // Lowest priority first: speech, video, map, web.
    let priorities = PriorityTable::new(vec![pids[0], video_pid, pids[2], pids[1]]);
    let cfg = GoalConfig::paper(INITIAL_ENERGY_J, SimDuration::from_secs(goal_s));
    let sample_period = cfg.sample_period;
    let (handle, controller) = GoalController::new(cfg, priorities);
    machine.add_hook(sample_period, controller);

    let report = machine.run_until(horizon);
    let outcome = handle.outcome();

    println!(
        "Ran {:.0} s; goal met: {}; residual energy {:.0} J ({:.1}% of supply)",
        report.duration_s(),
        outcome.goal_met,
        report.residual_j,
        report.residual_j.0 / INITIAL_ENERGY_J * 100.0
    );
    println!(
        "Adaptations: {} degrades, {} upgrades ({} infeasibility alerts)\n",
        outcome.degrades, outcome.upgrades, outcome.infeasible_signals
    );
    println!("Average fidelity level per application (0 = lowest):");
    for series in &report.fidelity {
        let pts = series.resample(SimDuration::from_secs(10), report.end);
        if pts.is_empty() {
            continue;
        }
        let mean = pts.iter().map(|(_, v)| v).sum::<f64>() / pts.len() as f64;
        println!(
            "  {:<10} mean {:.2}, {} fidelity changes",
            series.name(),
            mean,
            series.change_count()
        );
    }
}
