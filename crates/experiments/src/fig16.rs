//! Figure 16: summary of the energy impact of fidelity.
//!
//! For every application (and think time, where applicable) the table
//! shows min-max energy across the four data objects, normalized to each
//! object's baseline: hardware power management alone, fidelity reduction
//! alone (lowest fidelity, no power management), and both combined.
//! The paper's headline statistics come from this table: fidelity
//! reduction saves 7-72% (mean 36%), combined 31-76% (mean ~50%).

use odyssey_apps::datasets::{MAPS, UTTERANCES, VIDEO_CLIPS, WEB_IMAGES};
use odyssey_apps::{MapFidelity, SpeechStrategy, VideoVariant, WebFidelity};
use simcore::{SimRng, TrialStats};

use crate::builds;
use crate::harness::{run_grid, Trials};
use crate::table::{band, Table};
use crate::thinktime::THINK_TIMES;

/// The four normalized conditions of the summary table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Condition {
    /// Full fidelity, no power management (the 1.00 column).
    Baseline,
    /// Full fidelity with hardware power management.
    HardwarePm,
    /// Lowest fidelity without hardware power management.
    FidelityReduction,
    /// Lowest fidelity with hardware power management.
    Combined,
}

impl Condition {
    /// All conditions in column order.
    pub fn all() -> [Condition; 4] {
        [
            Condition::Baseline,
            Condition::HardwarePm,
            Condition::FidelityReduction,
            Condition::Combined,
        ]
    }

    /// Column header.
    pub fn name(self) -> &'static str {
        match self {
            Condition::Baseline => "Baseline",
            Condition::HardwarePm => "Hardware Power Mgmt.",
            Condition::FidelityReduction => "Fidelity Reduction",
            Condition::Combined => "Combined",
        }
    }

    fn lowest(self) -> bool {
        matches!(self, Condition::FidelityReduction | Condition::Combined)
    }

    fn pm(self) -> bool {
        matches!(self, Condition::HardwarePm | Condition::Combined)
    }
}

/// One row of the summary: an application at one think time.
#[derive(Clone, Debug)]
pub struct SummaryRow {
    /// Application name.
    pub app: &'static str,
    /// Think time, seconds (`None` for video and speech).
    pub think_s: Option<f64>,
    /// Per-condition (min, max) normalized energy across data objects.
    pub bands: Vec<(Condition, f64, f64)>,
    /// Per-condition mean normalized energy across data objects.
    pub means: Vec<(Condition, f64)>,
}

/// The full summary.
#[derive(Clone, Debug)]
pub struct Fig16 {
    /// All rows in figure order.
    pub rows: Vec<SummaryRow>,
}

impl Fig16 {
    /// Mean normalized energy over every row for a condition (the paper's
    /// "mean of 36% savings" style aggregate).
    pub fn grand_mean(&self, c: Condition) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.means.iter().filter(|(rc, _)| *rc == c).map(|(_, m)| *m))
            .collect();
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An application row of the summary, carrying its think time where the
/// workload has one.
#[derive(Clone, Copy, Debug)]
enum RowKind {
    Video,
    Speech,
    Map(f64),
    Web(f64),
}

/// Total energy of trial `i` of one `(row, object, condition)` cell, J.
///
/// The trial runs on `fork_indexed(label, i)` with a label that is a pure
/// function of the cell, so every trial is a pure function of
/// `(seed, cell, i)` — which is what lets the whole summary fan its
/// trials across the pool in any order.
fn trial_energy_j(root: &SimRng, (kind, o, c): (RowKind, usize, Condition), i: usize) -> f64 {
    let label = match kind {
        RowKind::Video => format!("fig16/video/{o}/{c:?}"),
        RowKind::Speech => format!("fig16/speech/{o}/{c:?}"),
        RowKind::Map(think) => format!("fig16/map/{o}/{c:?}/{think}"),
        RowKind::Web(think) => format!("fig16/web/{o}/{c:?}/{think}"),
    };
    let rng = &mut root.fork_indexed(&label, i as u64);
    let (lowest, pm) = (c.lowest(), c.pm());
    let mut machine = match kind {
        RowKind::Video => {
            let variant = builds::ladder_end(&VideoVariant::LADDER, lowest);
            builds::video(VIDEO_CLIPS[o], variant, pm, rng)
        }
        // Lowest speech fidelity: hybrid strategy with the reduced model —
        // the cheapest configuration of Figure 8.
        RowKind::Speech if lowest => {
            builds::speech(UTTERANCES[o], SpeechStrategy::Hybrid, true, pm, rng)
        }
        RowKind::Speech => builds::speech(UTTERANCES[o], SpeechStrategy::Local, false, pm, rng),
        RowKind::Map(think) => {
            let fidelity = builds::ladder_end(&MapFidelity::LADDER, lowest);
            builds::map(MAPS[o], fidelity, pm, think, rng)
        }
        RowKind::Web(think) => {
            let fidelity = builds::ladder_end(&WebFidelity::LADDER, lowest);
            builds::web(vec![WEB_IMAGES[o]], fidelity, pm, think, rng)
        }
    };
    machine.run().total_j.0
}

/// Runs the full summary (the paper's think-time rows: 0, 5, 10, 20 s for
/// map and web).
pub fn run(trials: &Trials) -> Fig16 {
    run_with_thinks(trials, &THINK_TIMES)
}

/// Runs the summary with a chosen set of think times (tests use fewer).
///
/// Every `(row, object, condition, trial)` run is one job of a single
/// [`run_grid`] dispatch that returns only the run's total energy. Each
/// object's baseline-condition cell is computed once and reused as the
/// normalizer of its row.
pub fn run_with_thinks(trials: &Trials, thinks: &[f64]) -> Fig16 {
    let mut kinds: Vec<(&'static str, Option<f64>, RowKind)> = vec![
        ("Video", None, RowKind::Video),
        ("Speech", None, RowKind::Speech),
    ];
    for &think in thinks {
        kinds.push(("Map", Some(think), RowKind::Map(think)));
    }
    for &think in thinks {
        kinds.push(("Web", Some(think), RowKind::Web(think)));
    }

    let conditions = Condition::all();
    let mut cells: Vec<(RowKind, usize, Condition)> = Vec::new();
    for (_, _, kind) in &kinds {
        for o in 0..4 {
            for c in conditions {
                cells.push((*kind, o, c));
            }
        }
    }
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |&cell, i| trial_energy_j(&root, cell, i));
    let energies: Vec<f64> = totals
        .iter()
        .map(|runs| TrialStats::from_values(runs).mean)
        .collect();
    // Cell value lookup: cells are row-major, object-major, condition-
    // minor, so the flat index is a pure function of the coordinates.
    let value = |row: usize, o: usize, ci: usize| energies[(row * 4 + o) * conditions.len() + ci];

    let mut rows = Vec::new();
    for (row, &(app, think_s, _)) in kinds.iter().enumerate() {
        // Baseline energies per object, the normalizers (Baseline is
        // condition index 0 in `Condition::all()` order).
        let baselines: Vec<f64> = (0..4).map(|o| value(row, o, 0)).collect();
        let mut bands = Vec::new();
        let mut means = Vec::new();
        for (ci, c) in conditions.into_iter().enumerate() {
            let normalized: Vec<f64> = (0..4).map(|o| value(row, o, ci) / baselines[o]).collect();
            let lo = normalized.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = normalized.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = normalized.iter().sum::<f64>() / normalized.len() as f64;
            bands.push((c, lo, hi));
            means.push((c, mean));
        }
        rows.push(SummaryRow {
            app,
            think_s,
            bands,
            means,
        });
    }
    Fig16 { rows }
}

/// Renders the normalized summary table.
pub fn render(trials: &Trials) -> String {
    let f = run(trials);
    let mut t = Table::new(
        "Figure 16: Summary of energy impact of fidelity (normalized to baseline)",
        &[
            "Application",
            "Think (s)",
            "Baseline",
            "Hardware Power Mgmt.",
            "Fidelity Reduction",
            "Combined",
        ],
    );
    for r in &f.rows {
        let mut row = vec![
            r.app.to_string(),
            r.think_s.map(|s| format!("{s}")).unwrap_or("N/A".into()),
        ];
        for (_, lo, hi) in &r.bands {
            row.push(band(*lo, *hi));
        }
        t.push_row(row);
    }
    let fr = 1.0 - f.grand_mean(Condition::FidelityReduction);
    let comb = 1.0 - f.grand_mean(Condition::Combined);
    t.with_caption(format!(
        "Mean savings: fidelity reduction {:.0}% (paper: 36%), combined {:.0}% (paper: ~50%).",
        fr * 100.0,
        comb * 100.0
    ))
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig16 {
        // One trial, one think time: this module aggregates many runs.
        run_with_thinks(&Trials::single(), &[5.0])
    }

    #[test]
    fn baseline_column_is_unity() {
        for r in fig().rows {
            let (lo, hi) = r
                .bands
                .iter()
                .find(|(c, _, _)| *c == Condition::Baseline)
                .map(|(_, lo, hi)| (*lo, *hi))
                .unwrap();
            assert!((lo - 1.0).abs() < 1e-9 && (hi - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn combined_beats_either_alone() {
        let f = fig();
        for r in &f.rows {
            let mean = |c: Condition| r.means.iter().find(|(rc, _)| *rc == c).unwrap().1;
            assert!(
                mean(Condition::Combined) <= mean(Condition::HardwarePm) + 1e-9,
                "{}: combined worse than PM alone",
                r.app
            );
            assert!(
                mean(Condition::Combined) <= mean(Condition::FidelityReduction) + 1e-9,
                "{}: combined worse than fidelity alone",
                r.app
            );
        }
    }

    /// Headline aggregate bands: fidelity-reduction mean savings near the
    /// paper's 36%, combined near 50%.
    #[test]
    fn headline_means_in_band() {
        let f = fig();
        let fr = 1.0 - f.grand_mean(Condition::FidelityReduction);
        let comb = 1.0 - f.grand_mean(Condition::Combined);
        assert!((0.20..=0.55).contains(&fr), "fidelity-reduction mean {fr}");
        assert!((0.33..=0.65).contains(&comb), "combined mean {comb}");
        assert!(comb > fr, "combined must beat fidelity alone");
    }
}
