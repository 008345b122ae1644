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

use hw560x::DisplayState;
use simcore::{SimDuration, SimRng};

use crate::datasets::MapObject;
use crate::units::{draw_jitter, map_unit, UnitPlayer, MAP_UNIT_NAMES};

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
    pub const fn full() -> Self {
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
    pub const LADDER: [MapFidelity; 4] = [
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
    ];
}

/// The Anvil workload pinned to `fidelity` (Figures 10 and 11): views
/// each of `maps` in turn, thinking `think` after each.
pub fn viewer(
    maps: &[MapObject],
    fidelity: MapFidelity,
    think: SimDuration,
    rng: &mut SimRng,
) -> UnitPlayer {
    let jitter = draw_jitter(rng);
    let steps = maps
        .iter()
        .flat_map(|map| map_unit(map, fidelity, jitter, think))
        .collect();
    UnitPlayer::new(
        "anvil",
        MAP_UNIT_NAMES.to_vec(),
        DisplayState::Bright,
        steps,
    )
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
        let think = SimDuration::from_secs_f64(think_s);
        m.add_process(Box::new(viewer(&[MAPS[0]], fidelity, think, &mut rng)));
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
        let rows: Vec<Joules> = MapFidelity::LADDER
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
