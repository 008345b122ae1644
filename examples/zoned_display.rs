//! Zoned backlighting: what would a smarter display buy?
//!
//! Measures the map viewer at full and lowest fidelity, then projects the
//! runs onto the paper's hypothetical 4-zone and 8-zone displays where
//! zones the map window does not cover fall back to the dim level
//! (Section 4).
//!
//! Run with: `cargo run --release --example zoned_display`

use energy_adaptation::apps::datasets::{DEFAULT_THINK_S, MAPS};
use energy_adaptation::apps::map::{self, MapFilter};
use energy_adaptation::apps::MapFidelity;
use energy_adaptation::backlight::{project_report, ZoneGrid, MAP_FULL_WINDOW, MAP_LOWEST_WINDOW};
use energy_adaptation::machine::{Machine, MachineConfig, RunReport};
use energy_adaptation::simcore::{SimDuration, SimRng};

fn view(fidelity: MapFidelity, seed: u64) -> RunReport {
    let mut rng = SimRng::new(seed);
    let mut machine = Machine::new(MachineConfig::default());
    machine.add_process(Box::new(map::viewer(
        &MAPS,
        fidelity,
        SimDuration::from_secs_f64(DEFAULT_THINK_S),
        &mut rng,
    )));
    machine.run()
}

fn main() {
    let full = view(MapFidelity::full(), 5);
    let lowest = view(
        MapFidelity {
            filter: MapFilter::Secondary,
            cropped: true,
        },
        5,
    );

    println!("Viewing all four maps with 5 s of think time each:\n");
    for (label, report, window) in [
        ("Full fidelity", &full, MAP_FULL_WINDOW),
        ("Lowest fidelity", &lowest, MAP_LOWEST_WINDOW),
    ] {
        println!(
            "{label}: {:.1} J total, {:.1} J of it display",
            report.total_j, report.components.display_j
        );
        for grid in [ZoneGrid::four_zone(), ZoneGrid::eight_zone()] {
            let p = project_report(report, grid, window);
            println!(
                "  {} zones: window lights {}/{}, projected {:.1} J (saves {:.1} J, {:.0}%)",
                grid.total(),
                p.zones_lit,
                p.zones_total,
                p.energy_j,
                p.saved_j,
                p.saved_j / report.total_j * 100.0
            );
        }
        println!();
    }
    println!(
        "Lowering fidelity shrinks the window, so zoning helps more at low \
         fidelity — the paper's Section 4 result."
    );
}
