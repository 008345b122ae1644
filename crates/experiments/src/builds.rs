//! One machine build per application.
//!
//! Every application figure runs its workload alone on the 560X, pinned
//! to one fidelity, with hardware power management on or off (Section
//! 3.1's protocol). These builders are the only place that choice is
//! written out; the figures differ only in which objects, fidelities and
//! think times they pass.

use machine::{Machine, MachineConfig};
use odyssey_apps::datasets::{MapObject, Utterance, VideoClip, WebImage};
use odyssey_apps::{map, speech, web};
use odyssey_apps::{MapFidelity, SpeechStrategy, VideoPlayer, VideoVariant, WebFidelity};
use simcore::{SimDuration, SimRng};

/// An empty machine: hardware power management on when `pm`, else the
/// paper's no-management baseline.
pub fn machine(pm: bool) -> Machine {
    Machine::new(if pm {
        MachineConfig::default()
    } else {
        MachineConfig::baseline()
    })
}

/// One end of an application's adaptation ladder (lowest first): its
/// lowest fidelity when `lowest`, else its full fidelity.
pub fn ladder_end<T: Copy>(ladder: &[T], lowest: bool) -> T {
    ladder[if lowest { 0 } else { ladder.len() - 1 }]
}

/// The video player showing `clip` at `variant`.
pub fn video(clip: VideoClip, variant: VideoVariant, pm: bool, rng: &mut SimRng) -> Machine {
    let mut m = machine(pm);
    m.add_process(Box::new(VideoPlayer::fixed(clip, variant, rng)));
    m
}

/// The speech recognizer on `utterance` with `strategy`, on the reduced
/// model when `reduced`.
pub fn speech(
    utterance: Utterance,
    strategy: SpeechStrategy,
    reduced: bool,
    pm: bool,
    rng: &mut SimRng,
) -> Machine {
    let mut m = machine(pm);
    m.add_process(Box::new(speech::recognizer(
        &[utterance],
        strategy,
        reduced,
        rng,
    )));
    m
}

/// The map viewer on `map` at `fidelity`, thinking `think_s` seconds
/// after each map.
pub fn map(
    object: MapObject,
    fidelity: MapFidelity,
    pm: bool,
    think_s: f64,
    rng: &mut SimRng,
) -> Machine {
    let mut m = machine(pm);
    let think = SimDuration::from_secs_f64(think_s);
    m.add_process(Box::new(map::viewer(&[object], fidelity, think, rng)));
    m
}

/// The web browser on `images` at `fidelity`, thinking `think_s` seconds
/// after each image.
pub fn web(
    images: Vec<WebImage>,
    fidelity: WebFidelity,
    pm: bool,
    think_s: f64,
    rng: &mut SimRng,
) -> Machine {
    let mut m = machine(pm);
    let think = SimDuration::from_secs_f64(think_s);
    m.add_process(Box::new(web::browser(&images, fidelity, think, rng)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_apps::map::MapFilter;

    /// The ladder ends are the paper's lowest and full fidelities.
    #[test]
    fn ladder_ends_are_lowest_and_full_fidelity() {
        let video = VideoVariant::LADDER;
        assert_eq!(ladder_end(&video, true), VideoVariant::Combined);
        assert_eq!(ladder_end(&video, false), VideoVariant::Full);
        let map = MapFidelity::LADDER;
        let lowest_map = MapFidelity {
            filter: MapFilter::Secondary,
            cropped: true,
        };
        assert_eq!(ladder_end(&map, true), lowest_map);
        assert_eq!(ladder_end(&map, false), MapFidelity::full());
        let web = WebFidelity::LADDER;
        assert_eq!(ladder_end(&web, true), WebFidelity::Jpeg5);
        assert_eq!(ladder_end(&web, false), WebFidelity::Full);
    }
}
