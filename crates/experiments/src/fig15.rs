//! Figure 15: effect of concurrent applications.
//!
//! The composite application (six loop iterations) runs in isolation and
//! then concurrently with the background video player, under three
//! regimes: baseline, hardware-only power management, and lowest
//! fidelity. The paper's key message: concurrency amortizes background
//! power, so the *added* cost of the video shrinks as power management
//! and fidelity reduction bite — and concurrency can therefore magnify
//! the relative benefit of lowering fidelity.

use machine::Machine;
use odyssey_apps::composite::{composite_members, CompositeMode};
use odyssey_apps::datasets::VIDEO_CLIPS;
use odyssey_apps::{VideoPlayer, VideoVariant};
use simcore::{SimRng, SimTime};

use crate::barchart::BarChart;
use crate::builds;
use crate::harness::{run_grid, Trials};

/// Loop iterations (paper: six).
pub const ITERATIONS: usize = 6;

/// The three regimes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// Full fidelity, no power management.
    Baseline,
    /// Full fidelity with hardware power management.
    HwOnly,
    /// Lowest fidelity with hardware power management.
    Lowest,
}

impl Regime {
    /// All regimes in figure order.
    pub fn all() -> [Regime; 3] {
        [Regime::Baseline, Regime::HwOnly, Regime::Lowest]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Baseline => "Baseline",
            Regime::HwOnly => "Hardware-Only Power Mgmt.",
            Regime::Lowest => "Lowest Fidelity",
        }
    }
}

fn build(regime: Regime, with_video: bool, rng: &mut SimRng) -> Machine {
    let lowest = regime == Regime::Lowest;
    let mut m = builds::machine(regime != Regime::Baseline);
    for member in composite_members(CompositeMode::Iterations(ITERATIONS), false, rng) {
        let member = if lowest {
            member.at_lowest_fidelity()
        } else {
            member
        };
        m.add_process(Box::new(member));
    }
    if with_video {
        let variant = builds::ladder_end(&VideoVariant::LADDER, lowest);
        let player = VideoPlayer::fixed(VIDEO_CLIPS[0], variant, rng)
            .looping_until(SimTime::from_secs(100_000));
        m.add_background_process(Box::new(player));
    }
    m
}

/// The bar for the composite application alone.
pub const ISOLATION: &str = "Isolation";
/// The bar for the composite application beside the background video.
pub const CONCURRENT: &str = "Concurrent with video";

/// Result: the six bars, three regimes × {isolation, concurrent}.
#[derive(Clone, Debug)]
pub struct Fig15 {
    /// The bar chart, one object per regime.
    pub chart: BarChart,
}

impl Fig15 {
    /// Extra energy the video adds, as a fraction of isolation energy.
    pub fn added_fraction(&self, regime: Regime) -> f64 {
        let energy = |condition| self.chart.energy_j(regime.name(), condition);
        energy(CONCURRENT) / energy(ISOLATION) - 1.0
    }
}

/// Runs the figure. Every `(regime, isolation or concurrent, trial)` run
/// is one job of a single [`run_grid`] dispatch; trial `i` of a bar runs
/// on `fork_indexed("fig15/<regime>/iso", i)` or `.../conc` and returns
/// only its total energy.
pub fn run(trials: &Trials) -> Fig15 {
    let cells: Vec<(Regime, bool)> = Regime::all()
        .into_iter()
        .flat_map(|regime| [(regime, false), (regime, true)])
        .collect();
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |&(regime, with_video), i| {
        let mode = if with_video { "conc" } else { "iso" };
        let label = format!("fig15/{}/{mode}", regime.name());
        let rng = &mut root.fork_indexed(&label, i as u64);
        build(regime, with_video, rng).run().total_j.0
    });
    let mut chart = BarChart::new("Figure 15: Effect of concurrent applications (J)");
    for (&(regime, with_video), totals) in cells.iter().zip(&totals) {
        let condition = if with_video { CONCURRENT } else { ISOLATION };
        chart.push(regime.name(), condition, totals);
    }
    Fig15 { chart }
}

/// Renders the figure.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut s = f.chart.to_table_plain().render();
    s.push('\n');
    for regime in Regime::all() {
        s.push_str(&format!(
            "{}: video adds {:.0}% energy\n",
            regime.name(),
            f.added_fraction(regime) * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig15 {
        run(&Trials::quick())
    }

    /// Concurrency always costs something, but less than doubling.
    #[test]
    fn video_adds_bounded_energy() {
        let f = fig();
        for regime in Regime::all() {
            let added = f.added_fraction(regime);
            assert!(
                (0.05..1.0).contains(&added),
                "{}: added {added}",
                regime.name()
            );
        }
    }

    /// The paper's amortization effect: at lowest fidelity the video adds
    /// a smaller fraction than at baseline.
    #[test]
    fn amortization_shrinks_added_cost() {
        let f = fig();
        let base = f.added_fraction(Regime::Baseline);
        let low = f.added_fraction(Regime::Lowest);
        assert!(
            low < base,
            "lowest-fidelity added {low} not below baseline {base}"
        );
    }

    /// Concurrency magnifies the benefit of lowering fidelity: the
    /// concurrent lowest/baseline ratio is below the isolated ratio.
    #[test]
    fn concurrency_magnifies_fidelity_benefit() {
        let f = fig();
        let iso = |r: Regime| f.chart.energy_j(r.name(), ISOLATION);
        let conc = |r: Regime| f.chart.energy_j(r.name(), CONCURRENT);
        let iso_ratio = iso(Regime::Lowest) / iso(Regime::Baseline);
        let conc_ratio = conc(Regime::Lowest) / conc(Regime::Baseline);
        assert!(
            conc_ratio < iso_ratio,
            "concurrent ratio {conc_ratio} not below isolated {iso_ratio}"
        );
    }
}
