//! The bursty stochastic workload (Section 5.4).
//!
//! "We used a simple stochastic model to construct an irregular workload
//! ... each of the four applications may independently be active or idle.
//! An active application executes a fixed workload for one minute ...
//! After each minute, there is a 10% chance of switching states." The
//! video application shows a one-minute video and the map application
//! fetches five maps; we give speech six utterances and the web browser
//! five pages per active minute.

use std::collections::VecDeque;

use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use simcore::{SimDuration, SimRng, SimTime};

use crate::datasets::{DEFAULT_THINK_S, MAPS, UTTERANCES, VIDEO_CLIPS, WEB_IMAGES};
use crate::map::MapFidelity;
use crate::speech::SpeechStrategy;
use crate::units::{
    draw_jitter, map_unit, next_step, speech_unit, video_unit, web_unit, UnitStep, MAP_UNIT_NAMES,
    SPEECH_UNIT_NAMES, VIDEO_UNIT_NAMES, WEB_UNIT_NAMES,
};
use crate::video::VideoVariant;
use crate::web::WebFidelity;

/// Probability of flipping between active and idle at each minute
/// boundary.
pub const SWITCH_PROBABILITY: f64 = 0.10;

/// Probability that an application starts active. The symmetric 10%
/// switching chance makes the chain's stationary activity level 50%
/// regardless of the start, so we begin at the stationary level.
pub const INITIAL_ACTIVE_PROBABILITY: f64 = 0.50;

/// Length of one activity slot.
pub const SLOT: SimDuration = SimDuration::from_secs(60);

/// Which application a bursty member models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BurstyRole {
    /// Two utterances of local recognition per active minute.
    Speech,
    /// A one-minute video per active minute.
    Video,
    /// Five map fetches per active minute.
    Map,
    /// Five page fetches per active minute.
    Web,
}

impl BurstyRole {
    /// All four roles.
    pub fn all() -> [BurstyRole; 4] {
        [
            BurstyRole::Speech,
            BurstyRole::Video,
            BurstyRole::Map,
            BurstyRole::Web,
        ]
    }
}

/// One stochastic on/off application.
pub struct BurstyMember {
    role: BurstyRole,
    rng: SimRng,
    active: bool,
    /// True while a unit's steps are still being consumed — the display
    /// is needed only then, not during the idle tail of an active minute.
    lit: bool,
    next_decision: SimTime,
    pending: VecDeque<UnitStep>,
    fidelity: FidelityView,
    item_idx: usize,
    jitter: f64,
    horizon: SimTime,
}

impl std::fmt::Debug for BurstyMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BurstyMember").finish_non_exhaustive()
    }
}

impl BurstyMember {
    /// Creates a member; initial state is drawn from the member's stream
    /// (50/50), decisions land on minute boundaries, and the workload
    /// finishes at `horizon`.
    pub fn new(role: BurstyRole, horizon: SimTime, rng: &mut SimRng) -> Self {
        let mut stream = rng.fork(match role {
            BurstyRole::Speech => "bursty-speech",
            BurstyRole::Video => "bursty-video",
            BurstyRole::Map => "bursty-map",
            BurstyRole::Web => "bursty-web",
        });
        let active = stream.bernoulli(INITIAL_ACTIVE_PROBABILITY);
        let jitter = draw_jitter(&mut stream);
        let levels = match role {
            BurstyRole::Speech => 2,
            BurstyRole::Video => VideoVariant::LADDER.len(),
            BurstyRole::Map => MapFidelity::LADDER.len(),
            BurstyRole::Web => WebFidelity::LADDER.len(),
        };
        BurstyMember {
            role,
            rng: stream,
            active,
            lit: false,
            next_decision: SimTime::ZERO,
            pending: VecDeque::new(),
            fidelity: FidelityView::new(levels - 1, levels),
            item_idx: 0,
            jitter,
            horizon,
        }
    }

    fn build_minute(&mut self) -> VecDeque<UnitStep> {
        let think = SimDuration::from_secs_f64(DEFAULT_THINK_S);
        let level = self.fidelity.level;
        let steps = match self.role {
            BurstyRole::Speech => {
                let a = self.item_idx % UTTERANCES.len();
                let b = (self.item_idx + 1) % UTTERANCES.len();
                self.item_idx += 2;
                speech_unit(
                    &[UTTERANCES[a], UTTERANCES[b]],
                    SpeechStrategy::Local,
                    level == 0,
                    self.jitter,
                )
            }
            BurstyRole::Video => {
                let clip = &VIDEO_CLIPS[self.item_idx % VIDEO_CLIPS.len()];
                self.item_idx += 1;
                video_unit(
                    clip.bitrate_bps,
                    clip.premiere_c_ratio,
                    VideoVariant::LADDER[level],
                    self.jitter,
                    SLOT.as_secs_f64(),
                )
            }
            BurstyRole::Map => {
                let mut all = Vec::new();
                for _ in 0..5 {
                    let map = MAPS[self.item_idx % MAPS.len()];
                    self.item_idx += 1;
                    all.extend(map_unit(
                        &map,
                        MapFidelity::LADDER[level],
                        self.jitter,
                        think,
                    ));
                }
                all
            }
            BurstyRole::Web => {
                let mut all = Vec::new();
                for _ in 0..5 {
                    let img = WEB_IMAGES[self.item_idx % WEB_IMAGES.len()];
                    self.item_idx += 1;
                    all.extend(web_unit(
                        &img,
                        WebFidelity::LADDER[level],
                        self.jitter,
                        think,
                    ));
                }
                all
            }
        };
        steps.into()
    }
}

impl Workload for BurstyMember {
    fn name(&self) -> &'static str {
        match self.role {
            BurstyRole::Speech => "speech",
            BurstyRole::Video => "xanim",
            BurstyRole::Map => "anvil",
            BurstyRole::Web => "netscape",
        }
    }

    fn names(&self) -> Vec<&'static str> {
        match self.role {
            BurstyRole::Speech => SPEECH_UNIT_NAMES.to_vec(),
            BurstyRole::Video => VIDEO_UNIT_NAMES.to_vec(),
            BurstyRole::Map => MAP_UNIT_NAMES.to_vec(),
            BurstyRole::Web => WEB_UNIT_NAMES.to_vec(),
        }
    }

    fn display_need(&self) -> DisplayState {
        match self.role {
            BurstyRole::Speech => DisplayState::Off,
            // The display is needed while a unit's steps (fetches, renders,
            // think pauses) are in progress; the idle tail of an active
            // minute demands nothing.
            _ => {
                if self.lit {
                    DisplayState::Bright
                } else {
                    DisplayState::Off
                }
            }
        }
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if let Some(step) = next_step(&mut self.pending, now) {
            return step;
        }
        self.lit = false;
        if now >= self.horizon {
            return Step::Done;
        }
        if now >= self.next_decision {
            // Minute boundary: maybe flip state, then act.
            let at_start = self.next_decision == SimTime::ZERO && now == SimTime::ZERO;
            if !at_start && self.rng.bernoulli(SWITCH_PROBABILITY) {
                self.active = !self.active;
            }
            self.next_decision = now.max(self.next_decision) + SLOT;
            if self.active {
                self.pending = self.build_minute();
                self.lit = true;
                return self.poll(now);
            }
        }
        // Idle (or the active minute finished early): sleep to the next
        // decision point.
        Step::Run(Activity::Wait {
            until: self.next_decision.min(self.horizon),
        })
    }

    fn fidelity(&self) -> FidelityView {
        self.fidelity
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        self.fidelity.step(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{Machine, MachineConfig};
    use simcore::Joules;

    fn run_bursty(seed: u64, horizon_s: u64) -> machine::RunReport {
        let mut rng = SimRng::new(seed);
        let mut m = Machine::new(MachineConfig::default());
        for role in BurstyRole::all() {
            m.add_process(Box::new(BurstyMember::new(
                role,
                SimTime::from_secs(horizon_s),
                &mut rng,
            )));
        }
        m.run()
    }

    #[test]
    fn runs_to_horizon() {
        let report = run_bursty(1, 300);
        assert!(
            (report.duration_s() - 300.0).abs() < 70.0,
            "ended at {}",
            report.duration_s()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_bursty(1, 240);
        let b = run_bursty(2, 240);
        assert!(
            (a.total_j - b.total_j).abs() > Joules(1.0),
            "seeds produced identical energy: {} vs {}",
            a.total_j,
            b.total_j
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = run_bursty(3, 240);
        let b = run_bursty(3, 240);
        assert!((a.total_j - b.total_j).abs() < Joules(1e-9));
    }

    #[test]
    fn members_are_adaptive() {
        let mut rng = SimRng::new(4);
        let mut v = BurstyMember::new(BurstyRole::Video, SimTime::from_secs(60), &mut rng);
        assert!(v.fidelity().is_full());
        assert!(v.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert!(v.fidelity().level < v.fidelity().levels - 1);
    }
}
