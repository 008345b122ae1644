//! The original Odyssey loop: bandwidth adaptation.
//!
//! Before the energy work, Odyssey adapted to network bandwidth: an
//! application registers an expectation window on its throughput, the
//! viceroy passively estimates what each application actually achieves,
//! and a leave-window event triggers an upcall. Here the adaptive video
//! player shares the 2 Mb/s WaveLAN with a large background download;
//! when the download starts the player's throughput collapses, the
//! bandwidth monitor degrades it (smaller track), and when the link
//! clears the player is upgraded back.
//!
//! Run with: `cargo run --release --example bandwidth_adaptation`

use energy_adaptation::apps::datasets::{VideoClip, VIDEO_CLIPS};
use energy_adaptation::apps::VideoPlayer;
use energy_adaptation::machine::workload::ScriptedWorkload;
use energy_adaptation::machine::{Activity, Machine, MachineConfig};
use energy_adaptation::odyssey::{BandwidthMonitor, Expectation};
use energy_adaptation::simcore::{SimDuration, SimRng, SimTime};

#[expect(clippy::expect_used, reason = "an example fails loudly")]
fn main() {
    let mut rng = SimRng::new(11);
    let clip = VideoClip {
        duration_s: 60.0,
        ..VIDEO_CLIPS[0]
    };
    let mut machine = Machine::new(MachineConfig::default());
    let player = machine.add_process(Box::new(VideoPlayer::adaptive(clip, &mut rng)));
    // An 5 MB download arrives at t = 15 s and contends for the link.
    machine.add_background_process(Box::new(ScriptedWorkload::new(
        "download",
        vec![
            Activity::Wait {
                until: SimTime::from_secs(15),
            },
            Activity::BulkFetch {
                bytes: 5_000_000,
                procedure: "big_download",
            },
        ],
    )));
    // The player needs ≥1.1 Mb/s to sustain its current track; the upper
    // edge sits below the clear-link goodput so recovered headroom is
    // visible and triggers upgrades.
    let mut monitor = BandwidthMonitor::new(SimDuration::from_secs(1), SimDuration::from_secs(3));
    monitor.register(player, Expectation::new(1.1e6, 1.95e6));
    let period = monitor.period();
    machine.add_hook(period, Box::new(monitor));

    let report = machine.run();
    println!(
        "Played {:.0} s; total energy {:.1} J; {} fidelity changes\n",
        report.duration_s(),
        report.total_j,
        report.adaptations_of("xanim"),
    );
    let series = report
        .fidelity
        .iter()
        .find(|s| s.name() == "xanim")
        .expect("player series");
    println!("Player fidelity level over time (3 = full, 0 = lowest):");
    for (t, level) in series.resample(SimDuration::from_secs(5), report.end) {
        let bar = "#".repeat(level as usize + 1);
        println!("  t={:>4.0}s  level {level:.0}  {bar}", t.as_secs_f64());
    }
}
