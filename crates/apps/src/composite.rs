//! The composite application (Sections 3.7 and 5.2).
//!
//! "The composite application models a user searching for Web and map
//! information using speech commands. The loop consists of local
//! recognition of two speech utterances, access of a Web page, access of
//! a map, and five seconds of think time" after each access.
//!
//! The three legs are separate Odyssey applications (speech, web, map) —
//! each individually adaptive with its own priority in Section 5 — that
//! take turns via a shared baton. Two modes:
//!
//! - [`CompositeMode::Iterations`] — run the loop N times (Section 3.7
//!   uses six);
//! - [`CompositeMode::Every`] — start an iteration every fixed period
//!   until a horizon ("we ran the composite application every 25 seconds
//!   rather than for six iterations", Section 5.2).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use simcore::{SimDuration, SimRng, SimTime};

use crate::datasets::{MapObject, Utterance, WebImage, COMPOSITE_UTTERANCES, DEFAULT_THINK_S};
use crate::map::MapFidelity;
use crate::speech::SpeechStrategy;
use crate::units::{
    draw_jitter, map_unit, next_step, speech_unit, web_unit, UnitStep, MAP_UNIT_NAMES,
    SPEECH_UNIT_NAMES, WEB_UNIT_NAMES,
};
use crate::web::WebFidelity;

/// Which leg of the loop a member executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompositeRole {
    /// Two utterances of local speech recognition.
    Speech,
    /// One web page access plus think time.
    Web,
    /// One map access plus think time.
    Map,
}

impl CompositeRole {
    fn index(self) -> usize {
        match self {
            CompositeRole::Speech => 0,
            CompositeRole::Web => 1,
            CompositeRole::Map => 2,
        }
    }

    /// All roles in loop order.
    pub fn all() -> [CompositeRole; 3] {
        [
            CompositeRole::Speech,
            CompositeRole::Web,
            CompositeRole::Map,
        ]
    }
}

/// Loop termination policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompositeMode {
    /// Run the loop exactly this many times.
    Iterations(usize),
    /// Start an iteration every `period`, until `horizon`.
    Every {
        /// Iteration start spacing.
        period: SimDuration,
        /// No iteration starts at or after this instant.
        horizon: SimTime,
    },
}

/// Shared turn-taking state between the three members.
#[derive(Debug)]
pub struct Baton {
    holder: usize,
    iteration: usize,
    next_iteration_at: SimTime,
}

impl Baton {
    /// Creates the baton and hands it to the speech member.
    pub fn new() -> Rc<RefCell<Baton>> {
        Rc::new(RefCell::new(Baton {
            holder: 0,
            iteration: 0,
            next_iteration_at: SimTime::ZERO,
        }))
    }
}

/// One leg of the composite application.
pub struct CompositeMember {
    role: CompositeRole,
    baton: Rc<RefCell<Baton>>,
    mode: CompositeMode,
    pending: VecDeque<UnitStep>,
    running_unit: bool,
    fidelity: FidelityView,
    adaptive: bool,
    item_idx: usize,
    jitter: f64,
    think: SimDuration,
    // Datasets cycled by the member.
    utterances: Vec<Utterance>,
    images: Vec<WebImage>,
    maps: Vec<MapObject>,
}

impl std::fmt::Debug for CompositeMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeMember").finish_non_exhaustive()
    }
}

impl CompositeMember {
    /// Creates one leg. All three legs must share the same `baton` and
    /// `mode`. Members start at full fidelity; `adaptive` controls whether
    /// upcalls can move them.
    pub fn new(
        role: CompositeRole,
        baton: Rc<RefCell<Baton>>,
        mode: CompositeMode,
        adaptive: bool,
        rng: &mut SimRng,
    ) -> Self {
        let levels = match role {
            CompositeRole::Speech => 2,
            CompositeRole::Web => WebFidelity::LADDER.len(),
            CompositeRole::Map => MapFidelity::LADDER.len(),
        };
        CompositeMember {
            role,
            baton,
            mode,
            pending: VecDeque::new(),
            running_unit: false,
            fidelity: FidelityView::new(levels - 1, levels),
            adaptive,
            item_idx: 0,
            jitter: draw_jitter(rng),
            think: SimDuration::from_secs_f64(DEFAULT_THINK_S),
            utterances: COMPOSITE_UTTERANCES.to_vec(),
            images: crate::datasets::WEB_IMAGES.to_vec(),
            maps: crate::datasets::MAPS.to_vec(),
        }
    }

    /// Pins the member to its lowest fidelity (Figure 15's "Lowest
    /// Fidelity" bars).
    pub fn at_lowest_fidelity(mut self) -> Self {
        self.fidelity.level = 0;
        self
    }

    fn build_unit(&mut self) -> VecDeque<UnitStep> {
        let level = self.fidelity.level;
        let steps = match self.role {
            CompositeRole::Speech => {
                // Spoken commands are short: the loop uses the dedicated
                // command utterances, keeping six iterations inside the
                // paper's 80-160 s envelope.
                self.item_idx += 2;
                speech_unit(
                    &self.utterances,
                    SpeechStrategy::Local,
                    level == 0,
                    self.jitter,
                )
            }
            CompositeRole::Web => {
                let img = self.images[self.item_idx % self.images.len()];
                self.item_idx += 1;
                let fid = WebFidelity::LADDER[level];
                web_unit(&img, fid, self.jitter, self.think)
            }
            CompositeRole::Map => {
                let map = self.maps[self.item_idx % self.maps.len()];
                self.item_idx += 1;
                let fid = MapFidelity::LADDER[level];
                map_unit(&map, fid, self.jitter, self.think)
            }
        };
        steps.into()
    }

    fn finished(&self, baton: &Baton, now: SimTime) -> bool {
        match self.mode {
            CompositeMode::Iterations(n) => baton.iteration >= n,
            CompositeMode::Every { horizon, .. } => now >= horizon,
        }
    }
}

impl Workload for CompositeMember {
    fn name(&self) -> &'static str {
        match self.role {
            CompositeRole::Speech => "speech",
            CompositeRole::Web => "netscape",
            CompositeRole::Map => "anvil",
        }
    }

    fn names(&self) -> Vec<&'static str> {
        match self.role {
            CompositeRole::Speech => SPEECH_UNIT_NAMES.to_vec(),
            CompositeRole::Web => WEB_UNIT_NAMES.to_vec(),
            CompositeRole::Map => MAP_UNIT_NAMES.to_vec(),
        }
    }

    fn display_need(&self) -> DisplayState {
        match self.role {
            CompositeRole::Speech => DisplayState::Off,
            _ => DisplayState::Bright,
        }
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if let Some(step) = next_step(&mut self.pending, now) {
            return step;
        }
        let mut baton = self.baton.borrow_mut();
        if self.running_unit {
            // Unit complete: pass the baton.
            self.running_unit = false;
            baton.holder = (baton.holder + 1) % 3;
            if baton.holder == 0 {
                baton.iteration += 1;
                if let CompositeMode::Every { period, .. } = self.mode {
                    baton.next_iteration_at += period;
                }
            }
        }
        if self.finished(&baton, now) {
            return Step::Done;
        }
        if baton.holder == self.role.index() {
            // Gate the first member of each iteration in paced mode.
            if baton.holder == 0 && now < baton.next_iteration_at {
                let until = baton.next_iteration_at;
                return Step::Run(Activity::Wait { until });
            }
            drop(baton);
            self.pending = self.build_unit();
            self.running_unit = true;
            self.poll(now)
        } else {
            // Not our turn: check back shortly.
            Step::Run(Activity::Wait {
                until: now + SimDuration::from_millis(200),
            })
        }
    }

    fn fidelity(&self) -> FidelityView {
        self.fidelity
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        self.adaptive && self.fidelity.step(dir)
    }

    fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
        w.put(&self.pending);
        w.put(&self.running_unit);
        w.put(&self.fidelity.level);
        w.put(&self.item_idx);
        // The three legs share one baton; the speech leg, first in loop
        // order, carries it for all of them.
        if self.role == CompositeRole::Speech {
            let baton = self.baton.borrow();
            w.put(&baton.holder);
            w.put(&baton.iteration);
            w.put(&baton.next_iteration_at);
        }
        Ok(())
    }

    fn thaw(&mut self, r: &mut simcore::SnapshotReader<'_>) -> Result<(), simcore::SnapshotError> {
        self.pending = r.take()?;
        self.running_unit = r.take()?;
        let level = r.take()?;
        if level >= self.fidelity.levels {
            return Err(simcore::SnapshotError::Corrupt("composite fidelity level"));
        }
        self.fidelity.level = level;
        self.item_idx = r.take()?;
        if self.role == CompositeRole::Speech {
            let mut baton = self.baton.borrow_mut();
            baton.holder = r.take()?;
            if baton.holder >= 3 {
                return Err(simcore::SnapshotError::Corrupt("baton holder"));
            }
            baton.iteration = r.take()?;
            baton.next_iteration_at = r.take()?;
        }
        Ok(())
    }
}

/// Builds the three members sharing one baton, in loop order.
pub fn composite_members(
    mode: CompositeMode,
    adaptive: bool,
    rng: &mut SimRng,
) -> Vec<CompositeMember> {
    let baton = Baton::new();
    CompositeRole::all()
        .into_iter()
        .map(|role| CompositeMember::new(role, baton.clone(), mode, adaptive, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{Machine, MachineConfig};
    use simcore::Joules;

    fn run_composite(iterations: usize, pm: bool, lowest: bool) -> machine::RunReport {
        let mut rng = SimRng::new(7);
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        for member in composite_members(CompositeMode::Iterations(iterations), false, &mut rng) {
            let member = if lowest {
                member.at_lowest_fidelity()
            } else {
                member
            };
            m.add_process(Box::new(member));
        }
        m.run()
    }

    /// Six iterations take 80-160 s, the paper's range.
    #[test]
    fn six_iterations_duration_band() {
        let report = run_composite(6, false, false);
        assert!(
            (80.0..=170.0).contains(&report.duration_s()),
            "composite took {}",
            report.duration_s()
        );
    }

    /// All three legs contribute energy.
    #[test]
    fn all_legs_appear_in_profile() {
        let report = run_composite(2, false, false);
        for bucket in ["janus", "netscape", "anvil"] {
            assert!(report.bucket_j(bucket) > Joules(0.0), "missing {bucket}");
        }
    }

    /// Lowest fidelity is cheaper and faster than full.
    #[test]
    fn lowest_fidelity_saves_energy() {
        let full = run_composite(3, true, false);
        let low = run_composite(3, true, true);
        assert!(
            low.total_j < full.total_j * 0.85,
            "full {} low {}",
            full.total_j,
            low.total_j
        );
    }

    /// Paced mode starts iterations on the 25 s grid.
    #[test]
    fn paced_mode_spacing() {
        let mut rng = SimRng::new(9);
        let mut m = Machine::new(MachineConfig::default());
        for member in composite_members(
            CompositeMode::Every {
                period: SimDuration::from_secs(25),
                horizon: SimTime::from_secs(100),
            },
            false,
            &mut rng,
        ) {
            m.add_process(Box::new(member));
        }
        let report = m.run();
        // Four iterations (t=0,25,50,75) then the loop winds down past 100.
        assert!(
            report.duration_s() >= 100.0 && report.duration_s() < 130.0,
            "paced run took {}",
            report.duration_s()
        );
    }

    /// A thawed level past the member's ladder is corrupt.
    #[test]
    fn thaw_rejects_an_out_of_range_level() {
        let mut rng = SimRng::new(3);
        let mut map = composite_members(CompositeMode::Iterations(1), true, &mut rng)
            .pop()
            .unwrap();
        let mut w = simcore::SnapshotWriter::new();
        w.put(&VecDeque::<UnitStep>::new());
        w.put(&false);
        w.put(&MapFidelity::LADDER.len());
        w.put(&0usize);
        let sealed = w.seal();
        let mut r = simcore::SnapshotReader::open(&sealed).unwrap();
        assert_eq!(
            map.thaw(&mut r),
            Err(simcore::SnapshotError::Corrupt("composite fidelity level"))
        );
        assert!(map.fidelity().is_full());
    }

    /// Members expose their ladders for the goal controller.
    #[test]
    fn members_are_adaptive_when_asked() {
        let mut rng = SimRng::new(3);
        let mut members = composite_members(CompositeMode::Iterations(1), true, &mut rng);
        let map = members.pop().unwrap();
        let mut web = members.pop().unwrap();
        assert_eq!(map.fidelity().levels, 4);
        assert_eq!(web.fidelity().levels, 5);
        assert!(web.on_upcall(AdaptDirection::Degrade, SimTime::ZERO));
        assert_eq!(web.fidelity().level, 3);
    }
}
