//! Figure 15: effect of concurrent applications.
//!
//! The composite application (six loop iterations) runs in isolation and
//! then concurrently with the background video player, under three
//! regimes: baseline, hardware-only power management, and lowest
//! fidelity. The paper's key message: concurrency amortizes background
//! power, so the *added* cost of the video shrinks as power management
//! and fidelity reduction bite — and concurrency can therefore magnify
//! the relative benefit of lowering fidelity.

use machine::{Machine, MachineConfig};
use odyssey_apps::composite::{composite_members, CompositeMode};
use odyssey_apps::datasets::VIDEO_CLIPS;
use odyssey_apps::{VideoPlayer, VideoVariant};
use simcore::{SimRng, SimTime, TrialStats};

use crate::barchart::BarChart;
use crate::harness::{energy_stats, run_grid, Trials};

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
    let cfg = match regime {
        Regime::Baseline => MachineConfig::baseline(),
        _ => MachineConfig::default(),
    };
    let mut m = Machine::new(cfg);
    for member in composite_members(CompositeMode::Iterations(ITERATIONS), false, rng) {
        let member = if regime == Regime::Lowest {
            member.at_lowest_fidelity()
        } else {
            member
        };
        m.add_process(Box::new(member));
    }
    if with_video {
        let variant = if regime == Regime::Lowest {
            VideoVariant::Combined
        } else {
            VideoVariant::Full
        };
        let player = VideoPlayer::fixed(VIDEO_CLIPS[0], variant, rng)
            .looping_until(SimTime::from_secs(100_000));
        m.add_background_process(Box::new(player));
    }
    m
}

/// Result: the six bars plus derived concurrency metrics.
#[derive(Clone, Debug)]
pub struct Fig15 {
    /// The bar chart: three regimes × {isolation, concurrent}.
    pub chart: BarChart,
    /// Per-regime (isolation stats, concurrent stats).
    pub pairs: Vec<(Regime, TrialStats, TrialStats)>,
}

impl Fig15 {
    /// Extra energy the video adds, as a fraction of isolation energy.
    pub fn added_fraction(&self, regime: Regime) -> f64 {
        #[expect(clippy::expect_used, reason = "run() always measures both regimes")]
        let (_, iso, conc) = self
            .pairs
            .iter()
            .find(|(r, _, _)| *r == regime)
            .expect("regime present");
        conc.mean / iso.mean - 1.0
    }
}

/// Runs the figure. Every `(regime, isolation or concurrent, trial)` run
/// is one job of a single [`run_grid`] dispatch; trial `i` of a bar runs
/// on `fork_indexed("fig15/<regime>/iso", i)` or `.../conc`.
pub fn run(trials: &Trials) -> Fig15 {
    let cells: Vec<(Regime, bool)> = Regime::all()
        .into_iter()
        .flat_map(|regime| [(regime, false), (regime, true)])
        .collect();
    let root = SimRng::new(trials.seed);
    let reports = run_grid(trials, &cells, |&(regime, with_video), i| {
        let mode = if with_video { "conc" } else { "iso" };
        let label = format!("fig15/{}/{mode}", regime.name());
        build(regime, with_video, &mut root.fork_indexed(&label, i as u64)).run()
    });
    let mut chart = BarChart::new("Figure 15: Effect of concurrent applications (J)");
    let mut pairs = Vec::new();
    for (regime, runs) in Regime::all().into_iter().zip(reports.chunks_exact(2)) {
        let (iso, conc) = (&runs[0], &runs[1]);
        chart.push(regime.name(), "Isolation", iso);
        chart.push(regime.name(), "Concurrent with video", conc);
        pairs.push((regime, energy_stats(iso), energy_stats(conc)));
    }
    Fig15 { chart, pairs }
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
        let iso = |r: Regime| f.pairs.iter().find(|(x, _, _)| *x == r).unwrap().1.mean;
        let conc = |r: Regime| f.pairs.iter().find(|(x, _, _)| *x == r).unwrap().2.mean;
        let iso_ratio = iso(Regime::Lowest) / iso(Regime::Baseline);
        let conc_ratio = conc(Regime::Lowest) / conc(Regime::Baseline);
        assert!(
            conc_ratio < iso_ratio,
            "concurrent ratio {conc_ratio} not below isolated {iso_ratio}"
        );
    }
}
