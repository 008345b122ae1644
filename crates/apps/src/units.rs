//! Shared workload units: the one encoding of each application's work.
//!
//! One *unit* is a flat list of steps: recognize some utterances;
//! fetch-and-view one web page; fetch-and-view one map; play one minute
//! of video. The standalone browser, map viewer and recognizer
//! (Sections 3.4–3.6) play the concatenated units of their objects
//! through a [`UnitPlayer`]; the composite application (Section 3.7) and
//! the bursty workload (Section 5.4) pop the same units one at a time
//! through [`next_step`]. Units use relative think times so they can be
//! built before their execution instant is known.
//!
//! The standalone [`VideoPlayer`](crate::VideoPlayer) keeps its own
//! pacing: it waits for each frame's absolute deadline rather than a
//! relative pause, loops its clip until a horizon, and can inflate its
//! decode cost for the energy-regression gate. [`video_unit`] is the
//! bursty workload's nominally paced minute.
//!
//! Plain-`f64` quantities here name their unit in a suffix (`_s`,
//! `_bps`, …); energies and powers elsewhere carry the `simcore` unit
//! types instead (DESIGN.md §11).

use std::collections::VecDeque;

use hw560x::cpu::intensity;
use hw560x::DisplayState;
use machine::{Activity, Step, Workload};
use netsim::RpcSpec;
use simcore::time::round_to_u64;
use simcore::{Codec, SimDuration, SimRng, SimTime, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::datasets::{
    MapObject, Utterance, WebImage, MAP_RENDER_S_PER_BYTE, MAP_SERVER_FIXED_S,
    MAP_SERVER_S_PER_BYTE, MAP_X_RENDER_S, SPEECH_FRONTEND_FACTOR, SPEECH_HYBRID_DATA_RATIO,
    SPEECH_HYBRID_LOCAL_RATIO, SPEECH_HYBRID_SERVER_FACTOR, SPEECH_SERVER_FACTOR,
    SPEECH_WAVEFORM_BPS, TRIAL_JITTER, VIDEO_DECODE_S_PER_BYTE, VIDEO_FPS, VIDEO_RENDER_S_FULL,
    WEB_RENDER_S_PER_BYTE, WEB_SERVER_FIXED_S, WEB_SERVER_S_PER_BYTE, WEB_X_RENDER_S,
};
use crate::map::MapFidelity;
use crate::speech::SpeechStrategy;
use crate::video::VideoVariant;
use crate::web::WebFidelity;

/// One step of a unit: a machine activity, or a relative pause.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnitStep {
    /// Run this activity.
    Act(Activity),
    /// Wait this long from the instant the step is reached (think time or
    /// frame pacing).
    Pause(SimDuration),
}

impl Codec for UnitStep {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            UnitStep::Act(a) => w.put(&(0u64, *a)),
            UnitStep::Pause(d) => w.put(&(1u64, *d)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u64>()? {
            0 => Ok(UnitStep::Act(r.take()?)),
            1 => Ok(UnitStep::Pause(r.take()?)),
            _ => Err(SnapshotError::Corrupt("unit step tag")),
        }
    }
}

/// The procedures and buckets a local [`speech_unit`] books.
pub const SPEECH_UNIT_NAMES: [&str; 3] = ["frontend_dsp", "janus", "viterbi_search"];
/// The procedures a remote or hybrid [`speech_unit`] books beyond
/// [`SPEECH_UNIT_NAMES`].
pub const SPEECH_OFFLOAD_NAMES: [&str; 3] = ["remote_recognize", "first_phase", "hybrid_recognize"];
/// The procedures and buckets a [`web_unit`] books.
pub const WEB_UNIT_NAMES: [&str; 4] = ["http_get", "proxy", "relay_reply", "render_image"];
/// The procedures a [`map_unit`] books.
pub const MAP_UNIT_NAMES: [&str; 2] = ["fetch_map", "rasterise"];
/// The procedures a [`video_unit`] books.
pub const VIDEO_UNIT_NAMES: [&str; 2] = ["sftp_DataArrived", "decode_frame"];

/// One run's draw of the per-trial cost jitter, `1 ± TRIAL_JITTER`.
pub fn draw_jitter(rng: &mut SimRng) -> f64 {
    1.0 + rng.uniform(-TRIAL_JITTER, TRIAL_JITTER)
}

/// Pops the next pending step as the machine's [`Step`]; a pause waits
/// from `now`. `None` once the unit is spent.
pub fn next_step(pending: &mut VecDeque<UnitStep>, now: SimTime) -> Option<Step> {
    pending.pop_front().map(|step| match step {
        UnitStep::Act(a) => Step::Run(a),
        UnitStep::Pause(d) => Step::Run(Activity::Wait { until: now + d }),
    })
}

/// A standalone application pinned to one fidelity: it plays a fixed
/// list of unit steps, then finishes. Built by
/// [`web::browser`](crate::web::browser), [`map::viewer`](crate::map::viewer)
/// and [`speech::recognizer`](crate::speech::recognizer).
#[derive(Debug)]
pub struct UnitPlayer {
    name: &'static str,
    names: Vec<&'static str>,
    display: DisplayState,
    steps: VecDeque<UnitStep>,
}

impl UnitPlayer {
    /// A player named `name` that books `names` and plays `steps` with
    /// the display at `display`.
    pub(crate) fn new(
        name: &'static str,
        names: Vec<&'static str>,
        display: DisplayState,
        steps: Vec<UnitStep>,
    ) -> Self {
        UnitPlayer {
            name,
            names,
            display,
            steps: steps.into(),
        }
    }
}

impl Workload for UnitPlayer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn names(&self) -> Vec<&'static str> {
        self.names.clone()
    }

    fn display_need(&self) -> DisplayState {
        self.display
    }

    fn poll(&mut self, now: SimTime) -> Step {
        next_step(&mut self.steps, now).unwrap_or(Step::Done)
    }
}

/// Recognition of a list of utterances with `strategy`: local on the
/// client, shipped whole to a remote server, or a local first phase
/// whose compact output ships for the rest.
pub fn speech_unit(
    utterances: &[Utterance],
    strategy: SpeechStrategy,
    reduced: bool,
    jitter: f64,
) -> Vec<UnitStep> {
    let mut steps = Vec::new();
    for u in utterances {
        steps.push(UnitStep::Act(Activity::Cpu {
            duration: SimDuration::from_secs_f64(u.speech_s * SPEECH_FRONTEND_FACTOR * jitter),
            intensity: intensity::SPEECH_FRONTEND,
            procedure: "frontend_dsp",
        }));
        let mut cpu = u.speech_s * u.local_cpu_factor * jitter;
        if reduced {
            cpu *= u.reduced_ratio;
        }
        // Full local recognition time; the server scales its residence
        // from it.
        let cpu = SimDuration::from_secs_f64(cpu);
        let waveform_bytes = round_to_u64(u.speech_s * SPEECH_WAVEFORM_BPS / 8.0);
        let search = |duration, procedure| {
            UnitStep::Act(Activity::CpuAs {
                bucket: "janus",
                duration,
                intensity: intensity::SPEECH_SEARCH,
                procedure,
            })
        };
        let ship = |request_bytes, server_factor, procedure| {
            UnitStep::Act(Activity::Rpc {
                spec: RpcSpec {
                    request_bytes,
                    reply_bytes: 2_048,
                    server_time: cpu.mul_f64(server_factor),
                },
                procedure,
            })
        };
        match strategy {
            SpeechStrategy::Local => steps.push(search(cpu, "viterbi_search")),
            SpeechStrategy::Remote => {
                steps.push(ship(
                    waveform_bytes,
                    SPEECH_SERVER_FACTOR,
                    "remote_recognize",
                ));
            }
            SpeechStrategy::Hybrid => {
                steps.push(search(
                    cpu.mul_f64(SPEECH_HYBRID_LOCAL_RATIO),
                    "first_phase",
                ));
                steps.push(ship(
                    round_to_u64(waveform_bytes as f64 * SPEECH_HYBRID_DATA_RATIO),
                    SPEECH_HYBRID_SERVER_FACTOR,
                    "hybrid_recognize",
                ));
            }
        }
    }
    steps
}

/// Fetch and view one web image, then think.
pub fn web_unit(
    image: &WebImage,
    fidelity: WebFidelity,
    jitter: f64,
    think: SimDuration,
) -> Vec<UnitStep> {
    let bytes = fidelity.transcoded_bytes(image);
    // Tiny images bypass transcoding (it would not shrink them).
    let distill = if bytes >= image.bytes {
        0.0
    } else {
        image.bytes as f64 * WEB_SERVER_S_PER_BYTE
    };
    let mut steps = vec![
        UnitStep::Act(Activity::Rpc {
            spec: RpcSpec {
                request_bytes: 800,
                reply_bytes: bytes,
                server_time: SimDuration::from_secs_f64(WEB_SERVER_FIXED_S + distill),
            },
            procedure: "http_get",
        }),
        // The client-side proxy unpacks the reply and hands it to
        // Netscape; the paper's profiles show it as its own process.
        UnitStep::Act(Activity::CpuAs {
            bucket: "proxy",
            duration: SimDuration::from_secs_f64(0.01 + bytes as f64 * 0.08e-6),
            intensity: intensity::WEB_RENDER,
            procedure: "relay_reply",
        }),
        UnitStep::Act(Activity::Cpu {
            duration: SimDuration::from_secs_f64(bytes as f64 * WEB_RENDER_S_PER_BYTE * jitter),
            intensity: intensity::WEB_RENDER,
            procedure: "render_image",
        }),
        UnitStep::Act(Activity::XRender {
            cost: SimDuration::from_secs_f64(WEB_X_RENDER_S * jitter),
        }),
    ];
    if !think.is_zero() {
        steps.push(UnitStep::Pause(think));
    }
    steps
}

/// Fetch and view one map, then think.
pub fn map_unit(
    map: &MapObject,
    fidelity: MapFidelity,
    jitter: f64,
    think: SimDuration,
) -> Vec<UnitStep> {
    let bytes = round_to_u64(map.full_bytes as f64 * fidelity.data_ratio(map) * jitter);
    let mut steps = vec![
        // The server filters and crops the full map before sending.
        UnitStep::Act(Activity::Rpc {
            spec: RpcSpec {
                request_bytes: 512,
                reply_bytes: bytes,
                server_time: SimDuration::from_secs_f64(
                    MAP_SERVER_FIXED_S + map.full_bytes as f64 * MAP_SERVER_S_PER_BYTE,
                ),
            },
            procedure: "fetch_map",
        }),
        UnitStep::Act(Activity::Cpu {
            duration: SimDuration::from_secs_f64(bytes as f64 * MAP_RENDER_S_PER_BYTE),
            intensity: intensity::MAP_RENDER,
            procedure: "rasterise",
        }),
        UnitStep::Act(Activity::XRender {
            cost: SimDuration::from_secs_f64(MAP_X_RENDER_S * jitter),
        }),
    ];
    if !think.is_zero() {
        steps.push(UnitStep::Pause(think));
    }
    steps
}

/// Play `seconds` of video frames at a variant (the bursty workload's
/// one-minute clip). Pacing is by nominal frame budget; under link
/// contention frames simply arrive late.
pub fn video_unit(
    bitrate_bps: f64,
    premiere_c_ratio: f64,
    variant: VideoVariant,
    jitter: f64,
    seconds: f64,
) -> Vec<UnitStep> {
    // Build a clip descriptor on the fly for ratio lookups.
    let clip = crate::datasets::VideoClip {
        name: "unit",
        duration_s: seconds,
        bitrate_bps,
        premiere_b_ratio: (premiere_c_ratio + 1.0) / 2.0,
        premiere_c_ratio,
    };
    let frames = round_to_u64(seconds * VIDEO_FPS);
    let bytes = round_to_u64(bitrate_bps / 8.0 / VIDEO_FPS * variant.data_ratio(&clip) * jitter);
    let decode = SimDuration::from_secs_f64(bytes as f64 * VIDEO_DECODE_S_PER_BYTE);
    let render = SimDuration::from_secs_f64(VIDEO_RENDER_S_FULL * variant.area() * jitter);
    let fetch_est = SimDuration::from_secs_f64(bytes as f64 * 8.0 / 2.0e6);
    let period = SimDuration::from_secs_f64(1.0 / VIDEO_FPS);
    let pace = period.saturating_sub(fetch_est + decode);
    let mut steps = Vec::with_capacity(frames as usize * 4);
    for _ in 0..frames {
        steps.push(UnitStep::Act(Activity::BulkFetch {
            bytes,
            procedure: "sftp_DataArrived",
        }));
        steps.push(UnitStep::Act(Activity::Cpu {
            duration: decode,
            intensity: intensity::VIDEO_DECODE,
            procedure: "decode_frame",
        }));
        steps.push(UnitStep::Act(Activity::XRender { cost: render }));
        if !pace.is_zero() {
            steps.push(UnitStep::Pause(pace));
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{MAPS, UTTERANCES, VIDEO_CLIPS, WEB_IMAGES};

    #[test]
    fn speech_unit_has_two_steps_per_utterance() {
        let unit = speech_unit(&UTTERANCES[..2], SpeechStrategy::Local, false, 1.0);
        assert_eq!(unit.len(), 4);
        let reduced = speech_unit(&UTTERANCES[..2], SpeechStrategy::Local, true, 1.0);
        // Reduced search bursts are shorter.
        let dur = |s: &UnitStep| match s {
            UnitStep::Act(Activity::CpuAs { duration, .. }) => duration.as_secs_f64(),
            _ => 0.0,
        };
        assert!(dur(&reduced[1]) < dur(&unit[1]));
    }

    #[test]
    fn offloaded_speech_ships_each_utterance() {
        let procedures = |strategy| -> Vec<&str> {
            speech_unit(&UTTERANCES[..1], strategy, false, 1.0)
                .iter()
                .map(|s| match s {
                    UnitStep::Act(Activity::Cpu { procedure, .. })
                    | UnitStep::Act(Activity::CpuAs { procedure, .. })
                    | UnitStep::Act(Activity::Rpc { procedure, .. }) => *procedure,
                    other => panic!("unexpected speech step {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            procedures(SpeechStrategy::Remote),
            ["frontend_dsp", "remote_recognize"]
        );
        assert_eq!(
            procedures(SpeechStrategy::Hybrid),
            ["frontend_dsp", "first_phase", "hybrid_recognize"]
        );
    }

    #[test]
    fn web_unit_honours_think_time() {
        let with = web_unit(
            &WEB_IMAGES[0],
            WebFidelity::Full,
            1.0,
            SimDuration::from_secs(5),
        );
        let without = web_unit(&WEB_IMAGES[0], WebFidelity::Full, 1.0, SimDuration::ZERO);
        assert_eq!(with.len(), without.len() + 1);
        assert!(matches!(with.last(), Some(UnitStep::Pause(_))));
    }

    #[test]
    fn map_unit_scales_with_fidelity() {
        let full = map_unit(&MAPS[0], MapFidelity::full(), 1.0, SimDuration::ZERO);
        let low = map_unit(
            &MAPS[0],
            MapFidelity {
                filter: crate::map::MapFilter::Secondary,
                cropped: true,
            },
            1.0,
            SimDuration::ZERO,
        );
        let bytes = |s: &UnitStep| match s {
            UnitStep::Act(Activity::Rpc { spec, .. }) => spec.reply_bytes,
            _ => 0,
        };
        assert!(bytes(&low[0]) < bytes(&full[0]) / 5);
    }

    #[test]
    fn video_unit_paces_to_duration() {
        let c = &VIDEO_CLIPS[0];
        let unit = video_unit(
            c.bitrate_bps,
            c.premiere_c_ratio,
            VideoVariant::Full,
            1.0,
            10.0,
        );
        let frames = unit
            .iter()
            .filter(|s| matches!(s, UnitStep::Act(Activity::BulkFetch { .. })))
            .count();
        assert_eq!(frames, 120);
    }
}
