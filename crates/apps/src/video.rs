//! The Odyssey video player (Xanim), Section 3.3.
//!
//! Xanim fetches videos from a server through Odyssey and displays them on
//! the client. Per frame it streams compressed data over the WaveLAN
//! (nearly saturating it at full fidelity), decodes it, hands the frame to
//! the X server, and sleeps until the next frame deadline.
//!
//! Two fidelity dimensions (Figure 6): the level of lossy compression
//! used to encode the track (Full, Premiere-B, Premiere-C) and the window
//! size (full, or half height and width — served as a quarter-area track,
//! so both network volume and X work shrink).

use hw560x::cpu::intensity;
use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use simcore::time::round_to_u64;
use simcore::{Codec, SimDuration, SimRng, SimTime, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::datasets::{
    VideoClip, VIDEO_DECODE_S_PER_BYTE, VIDEO_FPS, VIDEO_REDUCED_WINDOW_AREA,
    VIDEO_REDUCED_WINDOW_DATA_RATIO, VIDEO_RENDER_S_FULL,
};
use crate::units::draw_jitter;

/// One point in the video fidelity space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VideoVariant {
    /// Full-fidelity track, full window.
    Full,
    /// Premiere-B lossy compression, full window.
    PremiereB,
    /// Premiere-C lossy compression, full window.
    PremiereC,
    /// Full-quality encoding at half height and width.
    ReducedWindow,
    /// Premiere-C at half height and width.
    Combined,
}

impl VideoVariant {
    /// Display name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            VideoVariant::Full => "Baseline fidelity",
            VideoVariant::PremiereB => "Premiere-B",
            VideoVariant::PremiereC => "Premiere-C",
            VideoVariant::ReducedWindow => "Reduced Window",
            VideoVariant::Combined => "Combined",
        }
    }

    /// Stream size relative to the full-fidelity track of `clip`.
    pub fn data_ratio(self, clip: &VideoClip) -> f64 {
        match self {
            VideoVariant::Full => 1.0,
            VideoVariant::PremiereB => clip.premiere_b_ratio,
            VideoVariant::PremiereC => clip.premiere_c_ratio,
            VideoVariant::ReducedWindow => VIDEO_REDUCED_WINDOW_DATA_RATIO,
            VideoVariant::Combined => VIDEO_REDUCED_WINDOW_DATA_RATIO * clip.premiere_c_ratio,
        }
    }

    /// Display-window area relative to the full window.
    pub fn area(self) -> f64 {
        match self {
            VideoVariant::Full | VideoVariant::PremiereB | VideoVariant::PremiereC => 1.0,
            VideoVariant::ReducedWindow | VideoVariant::Combined => VIDEO_REDUCED_WINDOW_AREA,
        }
    }

    /// The adaptation ladder used for goal-directed experiments, lowest
    /// fidelity first.
    pub const LADDER: [VideoVariant; 4] = [
        VideoVariant::Combined,
        VideoVariant::PremiereC,
        VideoVariant::PremiereB,
        VideoVariant::Full,
    ];
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Fetch = 0,
    Decode = 1,
    Render = 2,
    Pace = 3,
}

impl Codec for Phase {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(*self as u64));
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u64>()? {
            0 => Phase::Fetch,
            1 => Phase::Decode,
            2 => Phase::Render,
            3 => Phase::Pace,
            _ => return Err(SnapshotError::Corrupt("video phase tag")),
        })
    }
}

/// The Xanim workload.
pub struct VideoPlayer {
    clip: VideoClip,
    ladder: Vec<VideoVariant>,
    fidelity: FidelityView,
    phase: Phase,
    frame: u64,
    frames_total: u64,
    next_frame_at: SimTime,
    jitter: f64,
    /// When set, the clip loops until this horizon (Section 5's
    /// background newsfeed); otherwise one playback finishes the workload.
    horizon: Option<SimTime>,
    /// Multiplier on the decode block's CPU time. Always 1.0 in
    /// production; the energy-regression harness seeds a small inflation
    /// here to prove its gate bites ([`Self::with_decode_inflation`]).
    decode_inflation: f64,
}

impl std::fmt::Debug for VideoPlayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VideoPlayer").finish_non_exhaustive()
    }
}

impl VideoPlayer {
    /// A player pinned to one variant, for the controlled measurements of
    /// Figure 6 ("we disabled Odyssey's dynamic adaptation capability").
    pub fn fixed(clip: VideoClip, variant: VideoVariant, rng: &mut SimRng) -> Self {
        Self::build(clip, vec![variant], 0, rng)
    }

    /// An adaptive player starting at full fidelity with the standard
    /// four-level ladder.
    pub fn adaptive(clip: VideoClip, rng: &mut SimRng) -> Self {
        let top = VideoVariant::LADDER.len() - 1;
        Self::build(clip, VideoVariant::LADDER.to_vec(), top, rng)
    }

    /// Loops the clip until `horizon` instead of stopping at its end.
    pub fn looping_until(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Test-only hook: scales the decode block's CPU time by `ratio`.
    /// The energy-regression gate uses this to inject a known per-path
    /// energy drift and assert the gate names the diverging path; it is
    /// never set on a production rig.
    ///
    /// # Panics
    ///
    /// Panics unless the ratio is finite and positive.
    #[doc(hidden)]
    pub fn with_decode_inflation(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "invalid decode inflation: {ratio}"
        );
        self.decode_inflation = ratio;
        self
    }

    fn build(clip: VideoClip, ladder: Vec<VideoVariant>, level: usize, rng: &mut SimRng) -> Self {
        let frames_total = round_to_u64(clip.duration_s * VIDEO_FPS);
        VideoPlayer {
            clip,
            fidelity: FidelityView::new(level, ladder.len()),
            ladder,
            phase: Phase::Fetch,
            frame: 0,
            frames_total,
            next_frame_at: SimTime::ZERO,
            jitter: draw_jitter(rng),
            horizon: None,
            decode_inflation: 1.0,
        }
    }

    fn variant(&self) -> VideoVariant {
        self.ladder[self.fidelity.level]
    }

    fn bytes_per_frame(&self) -> u64 {
        let full = self.clip.bitrate_bps / 8.0 / VIDEO_FPS;
        round_to_u64(full * self.variant().data_ratio(&self.clip) * self.jitter)
    }

    fn frame_period() -> SimDuration {
        SimDuration::from_secs_f64(1.0 / VIDEO_FPS)
    }
}

impl Workload for VideoPlayer {
    fn name(&self) -> &'static str {
        "xanim"
    }

    fn names(&self) -> Vec<&'static str> {
        crate::units::VIDEO_UNIT_NAMES.to_vec()
    }

    fn display_need(&self) -> DisplayState {
        DisplayState::Bright
    }

    fn poll(&mut self, now: SimTime) -> Step {
        match self.phase {
            Phase::Fetch => {
                if let Some(h) = self.horizon {
                    if now >= h {
                        return Step::Done;
                    }
                }
                self.phase = Phase::Decode;
                Step::Run(Activity::BulkFetch {
                    bytes: self.bytes_per_frame(),
                    procedure: "sftp_DataArrived",
                })
            }
            Phase::Decode => {
                self.phase = Phase::Render;
                Step::Run(Activity::Cpu {
                    duration: SimDuration::from_secs_f64(
                        self.bytes_per_frame() as f64
                            * VIDEO_DECODE_S_PER_BYTE
                            * self.decode_inflation,
                    ),
                    intensity: intensity::VIDEO_DECODE,
                    procedure: "decode_frame",
                })
            }
            Phase::Render => {
                self.phase = Phase::Pace;
                Step::Run(Activity::XRender {
                    cost: SimDuration::from_secs_f64(
                        VIDEO_RENDER_S_FULL * self.variant().area() * self.jitter,
                    ),
                })
            }
            Phase::Pace => {
                self.frame += 1;
                if self.frame >= self.frames_total && self.horizon.is_none() {
                    return Step::Done;
                }
                if self.frame >= self.frames_total {
                    self.frame = 0; // loop the clip
                }
                self.phase = Phase::Fetch;
                self.next_frame_at = (self.next_frame_at + Self::frame_period()).max(now);
                Step::Run(Activity::Wait {
                    until: self.next_frame_at,
                })
            }
        }
    }

    fn fidelity(&self) -> FidelityView {
        self.fidelity
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        self.fidelity.step(dir)
    }

    fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put(&self.fidelity.level);
        w.put(&self.phase);
        w.put(&self.frame);
        w.put(&self.next_frame_at);
        Ok(())
    }

    fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let level = r.take()?;
        if level >= self.fidelity.levels {
            return Err(SnapshotError::Corrupt("video fidelity level"));
        }
        self.fidelity.level = level;
        self.phase = r.take()?;
        self.frame = r.take()?;
        if self.frame > self.frames_total {
            return Err(SnapshotError::Corrupt("video frame counter"));
        }
        self.next_frame_at = r.take()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::VIDEO_CLIPS;
    use machine::{Machine, MachineConfig};
    use simcore::Joules;

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use crate::datasets::UTTERANCES;
        use crate::speech::SpeechStrategy;
        use crate::units::{speech_unit, UnitStep, SPEECH_UNIT_NAMES};
        use simcore::snapshot::{check_codec, check_codec_in};
        for phase in [Phase::Fetch, Phase::Decode, Phase::Render, Phase::Pace] {
            check_codec(&phase);
        }
        check_codec_in(
            &std::collections::VecDeque::from(speech_unit(
                &UTTERANCES[..1],
                SpeechStrategy::Local,
                false,
                1.0,
            )),
            &simcore::Names::new(SPEECH_UNIT_NAMES),
        );
        check_codec(&UnitStep::Pause(SimDuration::from_millis(200)));
    }

    fn short_clip() -> VideoClip {
        VideoClip {
            duration_s: 5.0,
            ..VIDEO_CLIPS[0]
        }
    }

    fn play(variant: VideoVariant, pm: bool) -> machine::RunReport {
        let mut rng = SimRng::new(1);
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(VideoPlayer::fixed(
            short_clip(),
            variant,
            &mut rng,
        )));
        m.run()
    }

    #[test]
    fn playback_takes_clip_duration() {
        let report = play(VideoVariant::Full, false);
        assert!(
            (report.duration_s() - 5.0).abs() < 0.3,
            "played for {}",
            report.duration_s()
        );
    }

    #[test]
    fn network_is_nearly_saturated_at_full_fidelity() {
        let report = play(VideoVariant::Full, false);
        let bits = report.bytes_carried as f64 * 8.0;
        let util = bits / (2.0e6 * report.duration_s());
        assert!((0.6..0.99).contains(&util), "utilization {util}");
    }

    #[test]
    fn compression_reduces_energy_and_leaves_x_unchanged() {
        let full = play(VideoVariant::Full, true);
        let c = play(VideoVariant::PremiereC, true);
        assert!(c.total_j < full.total_j);
        // "the energy used by the X server is almost completely unaffected
        // by compression".
        let x_full = full.bucket_j("X Server");
        let x_c = c.bucket_j("X Server");
        assert!(
            (x_full - x_c).abs() / x_full < 0.12,
            "X energy moved: {x_full} vs {x_c}"
        );
    }

    #[test]
    fn window_reduction_cuts_x_energy() {
        let full = play(VideoVariant::Full, true);
        let small = play(VideoVariant::ReducedWindow, true);
        let x_full = full.bucket_j("X Server");
        let x_small = small.bucket_j("X Server");
        assert!(
            x_small < x_full * 0.5,
            "X energy {x_small} not much below {x_full}"
        );
    }

    #[test]
    fn combined_is_cheapest() {
        let rows: Vec<Joules> = [
            VideoVariant::Full,
            VideoVariant::PremiereB,
            VideoVariant::PremiereC,
            VideoVariant::Combined,
        ]
        .iter()
        .map(|v| play(*v, true).total_j)
        .collect();
        for w in rows.windows(2) {
            assert!(w[1] < w[0], "fidelity order violated: {rows:?}");
        }
    }

    #[test]
    fn idle_dominates_baseline_shading() {
        let report = play(VideoVariant::Full, false);
        let idle = report.bucket_j("Idle");
        for (name, j) in &report.buckets {
            if name != "Idle" {
                assert!(idle >= *j, "{name} ({j} J) exceeds Idle ({idle} J)");
            }
        }
    }

    #[test]
    fn adaptation_ladder_moves() {
        let mut rng = SimRng::new(2);
        let mut p = VideoPlayer::adaptive(short_clip(), &mut rng);
        assert!(p.fidelity().is_full());
        assert!(p.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert_eq!(p.fidelity().level, 2);
        assert!(p.on_upcall(AdaptDirection::Upgrade, SimTime::ZERO));
        assert!(p.fidelity().is_full());
        assert!(!p.on_upcall(AdaptDirection::Upgrade, SimTime::ZERO));
    }

    #[test]
    fn thaw_rejects_an_out_of_range_level() {
        let mut rng = SimRng::new(2);
        let mut p = VideoPlayer::adaptive(short_clip(), &mut rng);
        let mut w = SnapshotWriter::new();
        w.put(&VideoVariant::LADDER.len());
        w.put(&Phase::Fetch);
        w.put(&0u64);
        w.put(&SimTime::ZERO);
        let sealed = w.seal();
        let mut r = SnapshotReader::open(&sealed).unwrap();
        assert_eq!(
            p.thaw(&mut r),
            Err(SnapshotError::Corrupt("video fidelity level"))
        );
        assert!(p.fidelity().is_full());
    }

    #[test]
    fn looping_player_runs_to_horizon() {
        let mut rng = SimRng::new(3);
        let mut m = Machine::new(MachineConfig::default());
        let p = VideoPlayer::fixed(short_clip(), VideoVariant::Full, &mut rng)
            .looping_until(SimTime::from_secs(12));
        m.add_process(Box::new(p));
        let report = m.run();
        assert!(
            (report.duration_s() - 12.0).abs() < 0.2,
            "looped for {}",
            report.duration_s()
        );
    }
}
