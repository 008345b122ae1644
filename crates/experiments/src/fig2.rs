//! Figure 2: a sample PowerScope energy profile.
//!
//! The paper's example profiles a video playback: the summary table lists
//! xanim, the X server, WaveLAN interrupts, Odyssey and the kernel idle
//! loop; the detail table breaks one process into procedures. We
//! regenerate the same artefact by profiling 30 seconds of full-fidelity
//! video playback with the simulated multimeter and correlating offline.

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{VideoClip, VIDEO_CLIPS};
use odyssey_apps::{VideoPlayer, VideoVariant};
use powerscope::{correlate, EnergyProfile, PowerScope};
use simcore::SimRng;

use crate::harness::Trials;

/// Profiled playback length, seconds (long enough for ~18k samples).
const PROFILE_SECS: f64 = 30.0;

/// Builds the profiling rig: the baseline machine playing 30 s of
/// full-fidelity video with a PowerScope session attached. The trace
/// recorder uses this too, so the rng draw order here defines the run.
pub fn build(seed: u64) -> (PowerScope, Machine) {
    build_with(seed, 1.0)
}

/// [`build`] with a seeded inflation of the decode block's CPU time —
/// the energy-regression gate's negative control. Production callers
/// pass 1.0 (and get byte-identical behavior to [`build`]).
pub fn build_with(seed: u64, decode_inflation: f64) -> (PowerScope, Machine) {
    let mut rng = SimRng::new(seed).fork("fig2");
    let clip = VideoClip {
        duration_s: PROFILE_SECS,
        ..VIDEO_CLIPS[0]
    };
    let (mut scope, observer) = PowerScope::new(seed);
    scope.set_resolver(odyssey_apps::call_path);
    let mut m = Machine::new(MachineConfig::baseline());
    m.add_observer(observer);
    m.add_process(Box::new(
        VideoPlayer::fixed(clip, VideoVariant::Full, &mut rng)
            .with_decode_inflation(decode_inflation),
    ));
    (scope, m)
}

/// Runs the profiling session and returns the correlated profile.
pub fn run(trials: &Trials) -> EnergyProfile {
    let (scope, mut m) = build(trials.seed);
    let _ = m.run();
    drop(m);
    correlate(&scope.into_run())
}

/// Renders the profile in the paper's Figure 2 layout.
pub fn render(trials: &Trials) -> String {
    format!(
        "== Figure 2: PowerScope energy profile (video playback) ==\n{}",
        run(trials).format()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_contains_expected_processes() {
        let p = run(&Trials::single());
        let names: Vec<&str> = p.processes.iter().map(|r| r.process.as_str()).collect();
        for expected in ["xanim", "Idle", "X Server", "WaveLAN", "Odyssey"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
    }

    #[test]
    fn sampled_totals_match_exact_energy_within_noise() {
        let p = run(&Trials::single());
        // 30 s of full-fidelity baseline playback at ~12 W.
        let total = p.total_energy_j().0;
        assert!(
            (250.0..=450.0).contains(&total),
            "sampled total {total} J implausible"
        );
    }

    #[test]
    fn render_produces_both_tables() {
        let s = render(&Trials::single());
        assert!(s.contains("Process"));
        assert!(s.contains("Energy Usage Detail"));
    }
}
