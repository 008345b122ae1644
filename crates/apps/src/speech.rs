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

use hw560x::cpu::intensity;
use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use netsim::RpcSpec;
use simcore::time::round_to_u64;
use simcore::{SimDuration, SimRng, SimTime};

use crate::datasets::{
    Utterance, SPEECH_FRONTEND_FACTOR, SPEECH_HYBRID_DATA_RATIO, SPEECH_HYBRID_LOCAL_RATIO,
    SPEECH_HYBRID_SERVER_FACTOR, SPEECH_SERVER_FACTOR, SPEECH_WAVEFORM_BPS, TRIAL_JITTER,
};

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

#[derive(Clone, Copy, Debug)]
enum Phase {
    FrontEnd,
    Recognize,
    NextUtterance,
}

/// The speech front-end workload.
pub struct SpeechApp {
    utterances: Vec<Utterance>,
    strategy: SpeechStrategy,
    /// Level 1 = full vocabulary, level 0 = reduced (when adaptive).
    level: usize,
    levels: usize,
    /// Vocabulary selection for non-adaptive (single-level) instances.
    fixed_reduced: bool,
    idx: usize,
    phase: Phase,
    jitter: f64,
}

impl std::fmt::Debug for SpeechApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeechApp").finish_non_exhaustive()
    }
}

impl SpeechApp {
    /// A recognizer pinned to one configuration, for Figure 8.
    pub fn fixed(
        utterances: Vec<Utterance>,
        strategy: SpeechStrategy,
        reduced: bool,
        rng: &mut SimRng,
    ) -> Self {
        SpeechApp {
            utterances,
            strategy,
            level: 0,
            levels: 1,
            fixed_reduced: reduced,
            idx: 0,
            phase: Phase::FrontEnd,
            jitter: 1.0 + rng.uniform(-TRIAL_JITTER, TRIAL_JITTER),
        }
    }

    /// An adaptive recognizer: two levels (reduced, full), starting full.
    pub fn adaptive(
        utterances: Vec<Utterance>,
        strategy: SpeechStrategy,
        rng: &mut SimRng,
    ) -> Self {
        let mut app = Self::fixed(utterances, strategy, false, rng);
        app.levels = 2;
        app.level = 1;
        app
    }

    fn utterance(&self) -> &Utterance {
        &self.utterances[self.idx]
    }

    fn reduced(&self) -> bool {
        if self.levels == 1 {
            self.fixed_reduced
        } else {
            self.level == 0
        }
    }

    /// Full local recognition CPU time for the current utterance, at the
    /// current fidelity.
    fn local_cpu(&self) -> SimDuration {
        let u = self.utterance();
        let mut secs = u.speech_s * u.local_cpu_factor * self.jitter;
        if self.reduced() {
            secs *= u.reduced_ratio;
        }
        SimDuration::from_secs_f64(secs)
    }

    fn waveform_bytes(&self) -> u64 {
        round_to_u64(self.utterance().speech_s * SPEECH_WAVEFORM_BPS / 8.0)
    }
}

impl Workload for SpeechApp {
    fn name(&self) -> &'static str {
        "speech"
    }

    fn names(&self) -> Vec<&'static str> {
        let mut names = crate::units::SPEECH_UNIT_NAMES.to_vec();
        names.extend(["remote_recognize", "first_phase", "hybrid_recognize"]);
        names
    }

    fn display_need(&self) -> DisplayState {
        DisplayState::Off
    }

    fn poll(&mut self, _now: SimTime) -> Step {
        if self.idx >= self.utterances.len() {
            return Step::Done;
        }
        match self.phase {
            Phase::FrontEnd => {
                self.phase = Phase::Recognize;
                Step::Run(Activity::Cpu {
                    duration: SimDuration::from_secs_f64(
                        self.utterance().speech_s * SPEECH_FRONTEND_FACTOR * self.jitter,
                    ),
                    intensity: intensity::SPEECH_FRONTEND,
                    procedure: "frontend_dsp",
                })
            }
            Phase::Recognize => match self.strategy {
                SpeechStrategy::Local => {
                    self.phase = Phase::NextUtterance;
                    Step::Run(Activity::CpuAs {
                        bucket: "janus",
                        duration: self.local_cpu(),
                        intensity: intensity::SPEECH_SEARCH,
                        procedure: "viterbi_search",
                    })
                }
                SpeechStrategy::Remote => {
                    self.phase = Phase::NextUtterance;
                    Step::Run(Activity::Rpc {
                        spec: RpcSpec {
                            request_bytes: self.waveform_bytes(),
                            reply_bytes: 2_048,
                            server_time: self.local_cpu().mul_f64(SPEECH_SERVER_FACTOR),
                        },
                        procedure: "remote_recognize",
                    })
                }
                SpeechStrategy::Hybrid => {
                    // First phase locally; the compact intermediate
                    // representation ships in the next poll.
                    self.phase = Phase::NextUtterance;
                    Step::Run(Activity::CpuAs {
                        bucket: "janus",
                        duration: self.local_cpu().mul_f64(SPEECH_HYBRID_LOCAL_RATIO),
                        intensity: intensity::SPEECH_SEARCH,
                        procedure: "first_phase",
                    })
                }
            },
            Phase::NextUtterance => {
                if self.strategy == SpeechStrategy::Hybrid {
                    // Finish the hybrid RPC before moving on.
                    let rpc = Activity::Rpc {
                        spec: RpcSpec {
                            request_bytes: round_to_u64(
                                self.waveform_bytes() as f64 * SPEECH_HYBRID_DATA_RATIO,
                            ),
                            reply_bytes: 2_048,
                            server_time: self.local_cpu().mul_f64(SPEECH_HYBRID_SERVER_FACTOR),
                        },
                        procedure: "hybrid_recognize",
                    };
                    self.phase = Phase::FrontEnd;
                    self.idx += 1;
                    return Step::Run(rpc);
                }
                self.phase = Phase::FrontEnd;
                self.idx += 1;
                self.poll(_now)
            }
        }
    }

    fn fidelity(&self) -> FidelityView {
        FidelityView::new(self.level, self.levels)
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        match dir {
            AdaptDirection::Degrade if self.level > 0 => {
                self.level -= 1;
                true
            }
            AdaptDirection::Upgrade if self.level + 1 < self.levels => {
                self.level += 1;
                true
            }
            _ => false,
        }
    }
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
        m.add_process(Box::new(SpeechApp::fixed(
            UTTERANCES.to_vec(),
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

    /// Adaptive app exposes two fidelity levels.
    #[test]
    fn adaptive_levels() {
        let mut rng = SimRng::new(5);
        let mut app = SpeechApp::adaptive(UTTERANCES.to_vec(), SpeechStrategy::Local, &mut rng);
        assert_eq!(app.fidelity(), FidelityView::new(1, 2));
        assert!(app.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert!(!app.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert!(app.on_upcall(AdaptDirection::Upgrade, SimTime::ZERO));
    }
}
