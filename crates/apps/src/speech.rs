//! The Odyssey speech recognizer, Section 3.4.
//!
//! A front-end generates a speech waveform from an utterance and submits
//! it via Odyssey to a local or remote instance of the Janus recognition
//! system. Three strategies:
//!
//! - **local** — recognition on the client: compute-bound, unavoidable
//!   when disconnected;
//! - **remote** — ship the waveform to a server and wait (the client is
//!   mostly idle, radio awake, which is where its energy goes);
//! - **hybrid** — run the first phase locally as a type-specific
//!   compressor (5x smaller shipment), finish remotely.
//!
//! Fidelity is lowered "by using a reduced vocabulary and a less complex
//! acoustic model", scaling both local CPU and server residence time.
//! With hardware power management the display is off — "this assumes that
//! user interactions occur solely through speech".

use hw560x::DisplayState;
use simcore::SimRng;

use crate::datasets::Utterance;
use crate::units::{draw_jitter, speech_unit, UnitPlayer, SPEECH_OFFLOAD_NAMES, SPEECH_UNIT_NAMES};

/// Where recognition runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpeechStrategy {
    /// Entirely on the client.
    Local,
    /// Waveform shipped to a remote Janus server.
    Remote,
    /// First phase local, remainder remote.
    Hybrid,
}

impl SpeechStrategy {
    /// Display name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            SpeechStrategy::Local => "Local",
            SpeechStrategy::Remote => "Remote",
            SpeechStrategy::Hybrid => "Hybrid",
        }
    }
}

/// The speech front-end pinned to one configuration (Figure 8):
/// recognizes each of `utterances` in turn with `strategy`, on the
/// reduced model when `reduced`.
pub fn recognizer(
    utterances: &[Utterance],
    strategy: SpeechStrategy,
    reduced: bool,
    rng: &mut SimRng,
) -> UnitPlayer {
    let jitter = draw_jitter(rng);
    UnitPlayer::new(
        "speech",
        [SPEECH_UNIT_NAMES, SPEECH_OFFLOAD_NAMES].concat(),
        DisplayState::Off,
        speech_unit(utterances, strategy, reduced, jitter),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::UTTERANCES;
    use machine::{Machine, MachineConfig};

    fn recognize(strategy: SpeechStrategy, reduced: bool, pm: bool) -> machine::RunReport {
        let mut rng = SimRng::new(1);
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(recognizer(
            &UTTERANCES,
            strategy,
            reduced,
            &mut rng,
        )));
        m.run()
    }

    /// Hardware-only PM saves ~33-34% on local full recognition: the
    /// display goes off and disk/network sleep while the CPU grinds.
    #[test]
    fn hardware_pm_band_for_local_recognition() {
        let base = recognize(SpeechStrategy::Local, false, false);
        let hw = recognize(SpeechStrategy::Local, false, true);
        let saving = 1.0 - hw.total_j / base.total_j;
        assert!(
            (0.28..=0.40).contains(&saving),
            "hw-only saving {saving} outside the paper band"
        );
    }

    /// Reduced fidelity cuts local recognition energy.
    #[test]
    fn reduced_model_saves_energy() {
        let full = recognize(SpeechStrategy::Local, false, true);
        let red = recognize(SpeechStrategy::Local, true, true);
        let saving = 1.0 - red.total_j / full.total_j;
        assert!(
            (0.20..=0.55).contains(&saving),
            "reduced saving {saving} outside band"
        );
    }

    /// Remote recognition leaves the client mostly idle.
    #[test]
    fn remote_energy_is_mostly_idle() {
        let remote = recognize(SpeechStrategy::Remote, false, true);
        let idle = remote.bucket_j("Idle");
        assert!(
            idle > remote.total_j * 0.4,
            "idle {} of {}",
            idle,
            remote.total_j
        );
        assert!(remote.bucket_j("janus") < remote.total_j * 0.1);
    }

    /// Hybrid beats remote, remote beats local (all with PM).
    #[test]
    fn strategy_ordering_matches_paper() {
        let local = recognize(SpeechStrategy::Local, false, true).total_j;
        let remote = recognize(SpeechStrategy::Remote, false, true).total_j;
        let hybrid = recognize(SpeechStrategy::Hybrid, false, true).total_j;
        assert!(remote < local, "remote {remote} >= local {local}");
        assert!(hybrid < remote, "hybrid {hybrid} >= remote {remote}");
    }

    /// Janus shows up as its own profile bucket in local mode.
    #[test]
    fn janus_bucket_dominates_local_profile() {
        let local = recognize(SpeechStrategy::Local, false, true);
        let janus = local.bucket_j("janus");
        assert!(
            janus > local.total_j * 0.5,
            "janus slice {} of {}",
            janus,
            local.total_j
        );
    }
}
