//! Grouped-bar results, the shape of Figures 6, 8, 10, 13 and 15.
//!
//! Each figure is a set of data objects (clips, utterances, maps, images)
//! × a set of conditions (baseline, hardware-only, fidelity levels), and
//! each bar is the mean total energy over trials with its 90% confidence
//! interval. [`run`] runs the application bar figures.

use machine::Machine;
use simcore::{SimRng, TrialStats};

use crate::harness::{run_grid, Trials};
use crate::table::{self, Table};

/// One bar: a (data object, condition) cell.
#[derive(Clone, Debug)]
pub struct Bar {
    /// Data object (e.g. `"Video 1"`).
    pub object: String,
    /// Condition (e.g. `"Premiere-C"`).
    pub condition: String,
    /// Energy statistics over trials.
    pub stats: TrialStats,
}

/// A full grouped-bar chart.
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    /// Chart title.
    pub title: String,
    /// All bars, grouped by object in insertion order.
    pub bars: Vec<Bar>,
}

/// Runs a bar figure: every named object under every named condition,
/// each trial a machine from `build` run to completion.
///
/// Every `(object, condition, trial)` run is one job of a single
/// [`run_grid`] dispatch; trial `i` of a bar runs on
/// `fork_indexed("<prefix>/<object>/<condition>", i)` and returns only
/// its total energy. Bars are pushed object-major, in argument order.
pub fn run<O: Sync, C: Sync>(
    trials: &Trials,
    title: &str,
    prefix: &str,
    objects: &[(&str, O)],
    conditions: &[(&str, C)],
    build: impl Fn(&O, &C, &mut SimRng) -> Machine + Sync,
) -> BarChart {
    let cells: Vec<_> = objects
        .iter()
        .flat_map(|object| conditions.iter().map(move |condition| (object, condition)))
        .collect();
    let root = SimRng::new(trials.seed);
    let totals = run_grid(trials, &cells, |((object, o), (condition, c)), i| {
        let label = format!("{prefix}/{object}/{condition}");
        build(o, c, &mut root.fork_indexed(&label, i as u64))
            .run()
            .total_j
            .0
    });
    let mut chart = BarChart::new(title);
    for (((object, _), (condition, _)), totals) in cells.iter().zip(&totals) {
        chart.push(object, condition, totals);
    }
    chart
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            bars: Vec::new(),
        }
    }

    /// Reduces per-trial total energies, J, into one bar.
    pub fn push(&mut self, object: &str, condition: &str, totals_j: &[f64]) {
        self.bars.push(Bar {
            object: object.to_string(),
            condition: condition.to_string(),
            stats: TrialStats::from_values(totals_j),
        });
    }

    /// Mean energy of a bar, J.
    ///
    /// # Panics
    ///
    /// Panics if the bar is absent.
    pub fn energy_j(&self, object: &str, condition: &str) -> f64 {
        self.bar(object, condition).stats.mean
    }

    /// Looks up a bar.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn bar(&self, object: &str, condition: &str) -> &Bar {
        self.bars
            .iter()
            .find(|b| b.object == object && b.condition == condition)
            .unwrap_or_else(|| panic!("no bar ({object}, {condition})"))
    }

    /// Percentage saving of `condition` relative to `reference` for one
    /// object.
    pub fn saving_pct(&self, object: &str, condition: &str, reference: &str) -> f64 {
        crate::harness::saving_pct(
            self.energy_j(object, reference),
            self.energy_j(object, condition),
        )
    }

    /// Min and max percentage saving across all objects.
    pub fn saving_band(&self, condition: &str, reference: &str) -> (f64, f64) {
        let objects: Vec<String> = self.objects();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for o in &objects {
            let s = self.saving_pct(o, condition, reference);
            min = min.min(s);
            max = max.max(s);
        }
        (min, max)
    }

    /// Distinct data objects, in insertion order.
    pub fn objects(&self) -> Vec<String> {
        let mut v = Vec::new();
        for b in &self.bars {
            if !v.contains(&b.object) {
                v.push(b.object.clone());
            }
        }
        v
    }

    /// Distinct conditions, in insertion order.
    pub fn conditions(&self) -> Vec<String> {
        let mut v = Vec::new();
        for b in &self.bars {
            if !v.contains(&b.condition) {
                v.push(b.condition.clone());
            }
        }
        v
    }

    /// Renders objects × conditions as mean ± CI90 cells, without savings
    /// rows (used where the conditions are not fidelity levels).
    pub fn to_table_plain(&self) -> Table {
        let conditions = self.conditions();
        let mut header = vec!["Object".to_string()];
        header.extend(conditions.iter().cloned());
        let mut t = Table::new(self.title.clone(), &[]);
        t.header = header;
        for o in self.objects() {
            let mut row = vec![o.clone()];
            for c in &conditions {
                let bar = self.bar(&o, c);
                row.push(table::pm(bar.stats.mean, bar.stats.ci90));
            }
            t.push_row(row);
        }
        t
    }

    /// Renders objects × conditions as mean ± CI90 cells, with a savings
    /// row against the first two conditions.
    pub fn to_table(&self) -> Table {
        let conditions = self.conditions();
        let mut t = self.to_table_plain();
        if conditions.len() >= 2 {
            let baseline = &conditions[0];
            let reference = &conditions[1];
            for (label, refc) in [
                ("saving vs baseline", baseline),
                ("saving vs hw-only", reference),
            ] {
                let mut row = vec![label.to_string()];
                for c in &conditions {
                    if c == baseline {
                        row.push(String::new());
                        continue;
                    }
                    let (lo, hi) = self.saving_band(c, refc);
                    row.push(format!("{lo:.0}-{hi:.0}%"));
                }
                t.push_row(row);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use simcore::SimDuration;

    fn chart() -> BarChart {
        let mut c = BarChart::new("test");
        c.push("obj1", "Baseline", &[100.0]);
        c.push("obj1", "HW-Only", &[90.0]);
        c.push("obj2", "Baseline", &[200.0]);
        c.push("obj2", "HW-Only", &[160.0]);
        c
    }

    #[test]
    fn lookups() {
        let c = chart();
        assert!((c.energy_j("obj1", "Baseline") - 100.0).abs() < 1e-9);
        assert_eq!(c.objects(), vec!["obj1", "obj2"]);
        assert_eq!(c.conditions(), vec!["Baseline", "HW-Only"]);
    }

    #[test]
    fn savings_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("HW-Only", "Baseline");
        assert!((lo - 10.0).abs() < 1e-9, "lo {lo}");
        assert!((hi - 20.0).abs() < 1e-9, "hi {hi}");
    }

    #[test]
    #[should_panic(expected = "no bar")]
    fn missing_bar_panics() {
        chart().energy_j("nope", "Baseline");
    }

    #[test]
    fn table_renders() {
        let s = chart().to_table().render();
        assert!(s.contains("obj1"));
        assert!(s.contains("saving vs baseline"));
    }

    /// `run` pushes one bar per (object, condition), object-major,
    /// each the mean of its trials' total energy.
    #[test]
    fn run_measures_every_object_under_every_condition() {
        let idle = |secs: &u64, pm: &bool, _: &mut SimRng| {
            let mut m = crate::builds::machine(*pm);
            m.add_process(Box::new(ScriptedWorkload::idle_for(
                "w",
                SimDuration::from_secs(*secs),
            )));
            m
        };
        let c = run(
            &Trials::quick(),
            "idle",
            "test",
            &[("10 s", 10), ("20 s", 20)],
            &[("Baseline", false), ("HW-Only", true)],
            idle,
        );
        assert_eq!(c.objects(), vec!["10 s", "20 s"]);
        assert_eq!(c.conditions(), vec!["Baseline", "HW-Only"]);
        assert!((c.energy_j("10 s", "Baseline") - 102.8).abs() < 0.1);
        assert!((c.energy_j("20 s", "Baseline") - 205.6).abs() < 0.1);
        assert!(
            c.bar("20 s", "HW-Only").stats.sd < 0.01,
            "idle is deterministic"
        );
    }
}
