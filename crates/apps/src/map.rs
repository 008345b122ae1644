//! The Anvil map viewer, Section 3.5.
//!
//! Anvil fetches maps from a remote server via Odyssey and displays them.
//! The client annotates the request with the desired amount of filtering
//! and cropping; the server performs the operations before transmitting.
//! Fidelity is lowered two ways: *filtering* (omit minor roads, or minor
//! and secondary roads) and *cropping* (half height and width). After a
//! map is displayed, the user spends *think time* absorbing it — energy
//! the paper attributes to the application, since it keeps the display
//! backlit and the client powered.

use hw560x::cpu::intensity;
use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use netsim::RpcSpec;
use simcore::time::round_to_u64;
use simcore::{SimDuration, SimRng, SimTime};

use crate::datasets::{
    MapObject, DEFAULT_THINK_S, MAP_RENDER_S_PER_BYTE, MAP_SERVER_FIXED_S, MAP_SERVER_S_PER_BYTE,
    MAP_X_RENDER_S, TRIAL_JITTER,
};

/// Road filtering level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapFilter {
    /// No filtering.
    None,
    /// Omit minor roads.
    Minor,
    /// Omit minor and secondary roads.
    Secondary,
}

/// One point in the map fidelity space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MapFidelity {
    /// Filtering level.
    pub filter: MapFilter,
    /// Crop to half height and width.
    pub cropped: bool,
}

impl MapFidelity {
    /// Full fidelity: no filter, no crop.
    pub fn full() -> Self {
        MapFidelity {
            filter: MapFilter::None,
            cropped: false,
        }
    }

    /// Display name used in figure rows.
    pub fn name(self) -> &'static str {
        match (self.filter, self.cropped) {
            (MapFilter::None, false) => "Baseline fidelity",
            (MapFilter::Minor, false) => "Minor Road Filter",
            (MapFilter::Secondary, false) => "Secondary Road Filter",
            (MapFilter::None, true) => "Cropped",
            (MapFilter::Minor, true) => "Cropped-Minor Road Filter",
            (MapFilter::Secondary, true) => "Cropped-Secondary Road Filter",
        }
    }

    /// Received bytes relative to the full map. Filtering and cropping
    /// compose multiplicatively (they remove independent subsets).
    pub fn data_ratio(self, map: &MapObject) -> f64 {
        let filter = match self.filter {
            MapFilter::None => 1.0,
            MapFilter::Minor => map.minor_filter_ratio,
            MapFilter::Secondary => map.secondary_filter_ratio,
        };
        let crop = if self.cropped { map.crop_ratio } else { 1.0 };
        filter * crop
    }

    /// The adaptation ladder for goal-directed experiments, lowest first.
    pub fn ladder() -> Vec<MapFidelity> {
        vec![
            MapFidelity {
                filter: MapFilter::Secondary,
                cropped: true,
            },
            MapFidelity {
                filter: MapFilter::Secondary,
                cropped: false,
            },
            MapFidelity {
                filter: MapFilter::Minor,
                cropped: false,
            },
            MapFidelity::full(),
        ]
    }
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    Fetch,
    Rasterise,
    Paint,
    Think,
}

/// The Anvil workload: views a sequence of maps.
pub struct MapViewer {
    maps: Vec<MapObject>,
    ladder: Vec<MapFidelity>,
    level: usize,
    think: SimDuration,
    idx: usize,
    phase: Phase,
    jitter: f64,
    received_bytes: u64,
}

impl std::fmt::Debug for MapViewer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapViewer").finish_non_exhaustive()
    }
}

impl MapViewer {
    /// A viewer pinned to one fidelity, for Figure 10.
    pub fn fixed(maps: Vec<MapObject>, fidelity: MapFidelity, rng: &mut SimRng) -> Self {
        Self::build(maps, vec![fidelity], 0, rng)
    }

    /// An adaptive viewer starting at full fidelity.
    pub fn adaptive(maps: Vec<MapObject>, rng: &mut SimRng) -> Self {
        let ladder = MapFidelity::ladder();
        let top = ladder.len() - 1;
        Self::build(maps, ladder, top, rng)
    }

    /// Overrides the default 5-second think time (Figure 11's sensitivity
    /// analysis uses 0, 5, 10 and 20 seconds).
    pub fn with_think_time(mut self, think: SimDuration) -> Self {
        self.think = think;
        self
    }

    fn build(
        maps: Vec<MapObject>,
        ladder: Vec<MapFidelity>,
        level: usize,
        rng: &mut SimRng,
    ) -> Self {
        MapViewer {
            maps,
            ladder,
            level,
            think: SimDuration::from_secs_f64(DEFAULT_THINK_S),
            idx: 0,
            phase: Phase::Fetch,
            jitter: 1.0 + rng.uniform(-TRIAL_JITTER, TRIAL_JITTER),
            received_bytes: 0,
        }
    }

    fn fidelity_point(&self) -> MapFidelity {
        self.ladder[self.level]
    }

    fn map(&self) -> &MapObject {
        &self.maps[self.idx]
    }
}

impl Workload for MapViewer {
    fn name(&self) -> &'static str {
        "anvil"
    }

    fn names(&self) -> Vec<&'static str> {
        crate::units::MAP_UNIT_NAMES.to_vec()
    }

    fn display_need(&self) -> DisplayState {
        DisplayState::Bright
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if self.idx >= self.maps.len() {
            return Step::Done;
        }
        match self.phase {
            Phase::Fetch => {
                let map = *self.map();
                let bytes = round_to_u64(
                    map.full_bytes as f64 * self.fidelity_point().data_ratio(&map) * self.jitter,
                );
                self.received_bytes = bytes;
                // The server filters/crops the *full* map before sending.
                let server_time = SimDuration::from_secs_f64(
                    MAP_SERVER_FIXED_S + map.full_bytes as f64 * MAP_SERVER_S_PER_BYTE,
                );
                self.phase = Phase::Rasterise;
                Step::Run(Activity::Rpc {
                    spec: RpcSpec {
                        request_bytes: 512,
                        reply_bytes: bytes,
                        server_time,
                    },
                    procedure: "fetch_map",
                })
            }
            Phase::Rasterise => {
                self.phase = Phase::Paint;
                Step::Run(Activity::Cpu {
                    duration: SimDuration::from_secs_f64(
                        self.received_bytes as f64 * MAP_RENDER_S_PER_BYTE,
                    ),
                    intensity: intensity::MAP_RENDER,
                    procedure: "rasterise",
                })
            }
            Phase::Paint => {
                self.phase = Phase::Think;
                Step::Run(Activity::XRender {
                    cost: SimDuration::from_secs_f64(MAP_X_RENDER_S * self.jitter),
                })
            }
            Phase::Think => {
                self.phase = Phase::Fetch;
                self.idx += 1;
                if self.think.is_zero() {
                    return self.poll(now);
                }
                Step::Run(Activity::Wait {
                    until: now + self.think,
                })
            }
        }
    }

    fn fidelity(&self) -> FidelityView {
        FidelityView::new(self.level, self.ladder.len())
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        match dir {
            AdaptDirection::Degrade if self.level > 0 => {
                self.level -= 1;
                true
            }
            AdaptDirection::Upgrade if self.level + 1 < self.ladder.len() => {
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
    use crate::datasets::MAPS;
    use machine::{Machine, MachineConfig};
    use simcore::Joules;

    fn view(fidelity: MapFidelity, pm: bool, think_s: f64) -> machine::RunReport {
        let mut rng = SimRng::new(1);
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        m.add_process(Box::new(
            MapViewer::fixed(vec![MAPS[0]], fidelity, &mut rng)
                .with_think_time(SimDuration::from_secs_f64(think_s)),
        ));
        m.run()
    }

    #[test]
    fn hardware_pm_band_for_map_viewing() {
        let base = view(MapFidelity::full(), false, 5.0);
        let hw = view(MapFidelity::full(), true, 5.0);
        let saving = 1.0 - hw.total_j / base.total_j;
        // Paper: 9-19% across maps at 5 s think time.
        assert!(
            (0.07..=0.25).contains(&saving),
            "hw-only saving {saving} outside band"
        );
    }

    #[test]
    fn filters_cut_fetch_energy() {
        let hw = view(MapFidelity::full(), true, 5.0);
        let minor = view(
            MapFidelity {
                filter: MapFilter::Minor,
                cropped: false,
            },
            true,
            5.0,
        );
        let secondary = view(
            MapFidelity {
                filter: MapFilter::Secondary,
                cropped: false,
            },
            true,
            5.0,
        );
        assert!(minor.total_j < hw.total_j);
        assert!(secondary.total_j < minor.total_j);
    }

    #[test]
    fn combined_filter_and_crop_is_cheapest() {
        let rows: Vec<Joules> = MapFidelity::ladder()
            .into_iter()
            .rev()
            .map(|f| view(f, true, 5.0).total_j)
            .collect();
        for w in rows.windows(2) {
            assert!(w[1] < w[0], "ladder not monotone: {rows:?}");
        }
    }

    #[test]
    fn think_time_scales_linearly_at_baseline() {
        // E_t = E_0 + t * P_B: three think times must be collinear.
        let e0 = view(MapFidelity::full(), false, 0.0).total_j;
        let e10 = view(MapFidelity::full(), false, 10.0).total_j;
        let e20 = view(MapFidelity::full(), false, 20.0).total_j;
        let slope1 = (e10 - e0) / 10.0;
        let slope2 = (e20 - e10) / 10.0;
        assert!(
            (slope1 - slope2).abs() < 0.05 * slope1,
            "nonlinear: {slope1} vs {slope2}"
        );
        // The baseline slope is the full-on idle power.
        assert!(
            (slope1 - Joules(10.28)).abs() < Joules(0.3),
            "slope {slope1}"
        );
    }

    #[test]
    fn zero_think_time_works() {
        let report = view(MapFidelity::full(), true, 0.0);
        assert!(report.total_j > Joules(0.0));
        assert!(report.duration_s() < 12.0);
    }

    #[test]
    fn fetch_dominates_wall_time() {
        let report = view(MapFidelity::full(), false, 0.0);
        // 1.3 MB at 2 Mb/s → > 5 s of transfer.
        assert!(report.duration_s() > 5.0);
    }
}
