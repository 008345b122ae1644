//! Shared workload units.
//!
//! The composite application (Section 3.7) and the bursty workload
//! (Section 5.4) are assembled from the same building blocks as the
//! standalone applications: one *unit* is a flat list of steps (recognize
//! two utterances; fetch-and-view one web page; fetch-and-view one map;
//! play one minute of video). Units use relative think times so they can
//! be built before their execution instant is known.
//!
//! Plain-`f64` quantities here name their unit in a suffix (`_s`,
//! `_bps`, …); energies and powers elsewhere carry the `simcore` unit
//! types instead (DESIGN.md §11).

use hw560x::cpu::intensity;
use machine::Activity;
use netsim::RpcSpec;
use simcore::time::round_to_u64;
use simcore::{Codec, SimDuration, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::datasets::{
    MapObject, Utterance, WebImage, MAP_RENDER_S_PER_BYTE, MAP_SERVER_FIXED_S,
    MAP_SERVER_S_PER_BYTE, MAP_X_RENDER_S, SPEECH_FRONTEND_FACTOR, VIDEO_DECODE_S_PER_BYTE,
    VIDEO_FPS, VIDEO_RENDER_S_FULL, WEB_RENDER_S_PER_BYTE, WEB_SERVER_FIXED_S,
    WEB_SERVER_S_PER_BYTE, WEB_X_RENDER_S,
};
use crate::map::MapFidelity;
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

/// The procedures and buckets a [`speech_unit`] books.
pub const SPEECH_UNIT_NAMES: [&str; 3] = ["frontend_dsp", "janus", "viterbi_search"];
/// The procedures and buckets a [`web_unit`] books.
pub const WEB_UNIT_NAMES: [&str; 4] = ["http_get", "proxy", "relay_reply", "render_image"];
/// The procedures a [`map_unit`] books.
pub const MAP_UNIT_NAMES: [&str; 2] = ["fetch_map", "rasterise"];
/// The procedures a [`video_unit`] books.
pub const VIDEO_UNIT_NAMES: [&str; 2] = ["sftp_DataArrived", "decode_frame"];

/// Local recognition of a list of utterances (the composite's speech leg).
pub fn speech_unit(utterances: &[Utterance], reduced: bool, jitter: f64) -> Vec<UnitStep> {
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
        steps.push(UnitStep::Act(Activity::CpuAs {
            bucket: "janus",
            duration: SimDuration::from_secs_f64(cpu),
            intensity: intensity::SPEECH_SEARCH,
            procedure: "viterbi_search",
        }));
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
        let unit = speech_unit(&UTTERANCES[..2], false, 1.0);
        assert_eq!(unit.len(), 4);
        let reduced = speech_unit(&UTTERANCES[..2], true, 1.0);
        // Reduced search bursts are shorter.
        let dur = |s: &UnitStep| match s {
            UnitStep::Act(Activity::CpuAs { duration, .. }) => duration.as_secs_f64(),
            _ => 0.0,
        };
        assert!(dur(&reduced[1]) < dur(&unit[1]));
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
