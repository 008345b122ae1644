//! Cross-crate integration tests: the full measurement pipeline.
//!
//! These tests exercise the public API end to end — machine + apps +
//! powerscope + odyssey together — the way a downstream user would.

use energy_adaptation::apps::composite::{composite_members, CompositeMode};
use energy_adaptation::apps::datasets::{
    VideoClip, DEFAULT_THINK_S, MAPS, UTTERANCES, VIDEO_CLIPS,
};
use energy_adaptation::apps::{map, speech};
use energy_adaptation::apps::{MapFidelity, SpeechStrategy, VideoPlayer, VideoVariant};
use energy_adaptation::hw560x::EnergySource;
use energy_adaptation::machine::{Machine, MachineConfig};
use energy_adaptation::odyssey::{GoalConfig, GoalController, PriorityTable};
use energy_adaptation::powerscope::{correlate, PowerScope};
use energy_adaptation::simcore::Joules;
use energy_adaptation::simcore::{SimDuration, SimRng, SimTime};

fn short_clip() -> VideoClip {
    VideoClip {
        duration_s: 15.0,
        ..VIDEO_CLIPS[0]
    }
}

/// The sampled PowerScope profile converges to the machine's exact energy
/// ledger: same total within sampling noise, same ranking of the big
/// consumers.
#[test]
fn sampled_profile_matches_exact_ledger() {
    let mut rng = SimRng::new(1);
    let (scope, observer) = PowerScope::new(1);
    let mut m = Machine::new(MachineConfig::baseline());
    m.add_observer(observer);
    m.add_process(Box::new(VideoPlayer::fixed(
        short_clip(),
        VideoVariant::Full,
        &mut rng,
    )));
    let report = m.run();
    drop(m);
    let profile = correlate(&scope.into_run());
    let err = (profile.total_energy_j() - report.total_j).abs() / report.total_j;
    assert!(err < 0.02, "sampling error {:.3}", err);
    // Each significant bucket's share should match within a few percent.
    for (bucket, exact) in report.buckets.iter().filter(|(_, j)| *j > Joules(10.0)) {
        let sampled = profile.process_energy_j(bucket);
        let rel = (sampled - *exact).abs() / *exact;
        assert!(rel < 0.15, "{bucket}: sampled {sampled} vs exact {exact}");
    }
}

/// Deterministic replay: identical seeds give bit-identical runs.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut rng = SimRng::new(77);
        let mut m = Machine::new(MachineConfig::default());
        m.add_process(Box::new(speech::recognizer(
            &UTTERANCES,
            SpeechStrategy::Hybrid,
            false,
            &mut rng,
        )));
        m.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_j.0.to_bits(), b.total_j.0.to_bits());
    assert_eq!(a.end, b.end);
    assert_eq!(a.buckets, b.buckets);
}

/// The three headline energy regimes order correctly for every
/// application (paper Sections 3.3-3.6): baseline > hardware-only PM >
/// lowest fidelity with PM.
#[test]
fn regimes_order_for_every_app() {
    let energies = |build: &dyn Fn(&mut SimRng, bool, bool) -> Machine| {
        let mut out = Vec::new();
        for (pm, lowest) in [(false, false), (true, false), (true, true)] {
            let mut rng = SimRng::new(5);
            let mut m = build(&mut rng, pm, lowest);
            out.push(m.run().total_j);
        }
        out
    };
    let video = energies(&|rng, pm, lowest| {
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let variant = if lowest {
            VideoVariant::Combined
        } else {
            VideoVariant::Full
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(VideoPlayer::fixed(short_clip(), variant, rng)));
        m
    });
    let map = energies(&|rng, pm, lowest| {
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let fid = if lowest {
            MapFidelity::LADDER[0]
        } else {
            MapFidelity::full()
        };
        let mut m = Machine::new(cfg);
        let think = SimDuration::from_secs_f64(DEFAULT_THINK_S);
        m.add_process(Box::new(map::viewer(&[MAPS[0]], fid, think, rng)));
        m
    });
    for (name, e) in [("video", video), ("map", map)] {
        assert!(
            e[0] > e[1] && e[1] > e[2],
            "{name} regimes out of order: {e:?}"
        );
    }
}

/// Goal-directed adaptation end to end: the controller lands the battery
/// on a 6-minute goal that full fidelity could not reach.
#[test]
fn goal_controller_end_to_end() {
    let initial = 4_300.0;
    let goal = SimDuration::from_secs(360);
    let mut rng = SimRng::new(3);
    let horizon = SimTime::from_secs(1_200);
    let mut m = Machine::new(MachineConfig {
        source: EnergySource::battery(Joules(initial)),
        ..Default::default()
    });
    let mut pids = Vec::new();
    for member in composite_members(
        CompositeMode::Every {
            period: SimDuration::from_secs(25),
            horizon,
        },
        true,
        &mut rng,
    ) {
        pids.push(m.add_process(Box::new(member)));
    }
    let video = VideoPlayer::adaptive(VIDEO_CLIPS[0], &mut rng).looping_until(horizon);
    let video_pid = m.add_background_process(Box::new(video));
    let priorities = PriorityTable::new(vec![pids[0], video_pid, pids[2], pids[1]]);
    let cfg = GoalConfig::paper(initial, goal);
    let period = cfg.sample_period;
    let (handle, hook) = GoalController::new(cfg, priorities);
    m.add_hook(period, hook);
    let report = m.run_until(horizon);
    // Sanity: full fidelity would burn ~14 W → ~5100 J over 360 s; the
    // 4300 J budget demands degradation.
    assert!(handle.outcome().goal_met, "goal missed: {report:?}");
    assert!(handle.outcome().degrades > 0);
    assert!((report.duration_s() - 360.0).abs() < 2.0);
    assert!(report.residual_j < Joules(initial * 0.12));
}

/// Concurrent applications share the machine consistently: energy of the
/// pair is more than either alone but less than the sum (background
/// amortization), and bucket totals still balance.
#[test]
fn concurrency_accounting_balances() {
    let solo = |seed: u64, which: u8| {
        let mut rng = SimRng::new(seed);
        let mut m = Machine::new(MachineConfig::default());
        match which {
            0 => {
                m.add_process(Box::new(VideoPlayer::fixed(
                    short_clip(),
                    VideoVariant::Full,
                    &mut rng,
                )));
            }
            _ => {
                m.add_process(Box::new(speech::recognizer(
                    &[UTTERANCES[2]],
                    SpeechStrategy::Local,
                    false,
                    &mut rng,
                )));
            }
        }
        m.run().total_j
    };
    let both = {
        let mut rng = SimRng::new(9);
        let mut m = Machine::new(MachineConfig::default());
        m.add_process(Box::new(VideoPlayer::fixed(
            short_clip(),
            VideoVariant::Full,
            &mut rng,
        )));
        m.add_process(Box::new(speech::recognizer(
            &[UTTERANCES[2]],
            SpeechStrategy::Local,
            false,
            &mut rng,
        )));
        let report = m.run();
        let sum: f64 = report.buckets.iter().map(|(_, j)| j.0).sum();
        assert!((sum - report.total_j.0).abs() < 1e-6);
        report.total_j
    };
    let video = solo(9, 0);
    let speech = solo(9, 1);
    assert!(both > video.max(speech));
    assert!(
        both < video + speech,
        "no amortization: {both} >= {video} + {speech}"
    );
}
