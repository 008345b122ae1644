//! Grouped-bar results, the shape of Figures 6, 8, 10, 13 and 15.
//!
//! Each figure is a set of data objects (clips, utterances, maps, images)
//! × a set of conditions (baseline, hardware-only, fidelity levels), with
//! per-bar energy statistics and the per-bucket shading the paper stacks
//! inside each bar.

use machine::RunReport;
use simcore::{Joules, TrialStats};

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
    /// Mean energy per software bucket (the bar's shading).
    pub buckets: Vec<(String, Joules)>,
    /// Mean display energy (used by the zoned-backlight projection).
    pub display_j: Joules,
}

/// A full grouped-bar chart.
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    /// Chart title.
    pub title: String,
    /// All bars, grouped by object in insertion order.
    pub bars: Vec<Bar>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            bars: Vec::new(),
        }
    }

    /// Reduces trial reports into one bar.
    pub fn push(&mut self, object: &str, condition: &str, reports: &[RunReport]) {
        let stats = crate::harness::energy_stats(reports);
        // Union of bucket names, mean energy each.
        let mut names: Vec<String> = Vec::new();
        for r in reports {
            for (b, _) in &r.buckets {
                if !names.contains(b) {
                    names.push(b.clone());
                }
            }
        }
        let buckets = names
            .into_iter()
            .map(|b| {
                let mean = crate::harness::mean_bucket_j(reports, &b);
                (b, mean)
            })
            .collect();
        self.bars.push(Bar {
            object: object.to_string(),
            condition: condition.to_string(),
            stats,
            buckets,
            display_j: crate::harness::mean_display_j(reports),
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
    use machine::{Machine, MachineConfig};
    use simcore::SimDuration;

    fn reports(secs: u64) -> Vec<RunReport> {
        let mut m = Machine::new(MachineConfig::baseline());
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(secs),
        )));
        vec![m.run()]
    }

    fn chart() -> BarChart {
        let mut c = BarChart::new("test");
        c.push("obj1", "Baseline", &reports(10));
        c.push("obj1", "HW-Only", &reports(8));
        c.push("obj2", "Baseline", &reports(20));
        c.push("obj2", "HW-Only", &reports(18));
        c
    }

    #[test]
    fn lookups() {
        let c = chart();
        assert!((c.energy_j("obj1", "Baseline") - 102.8).abs() < 0.1);
        assert_eq!(c.objects(), vec!["obj1", "obj2"]);
        assert_eq!(c.conditions(), vec!["Baseline", "HW-Only"]);
    }

    #[test]
    fn savings_band() {
        let c = chart();
        let (lo, hi) = c.saving_band("HW-Only", "Baseline");
        assert!((lo - 10.0).abs() < 0.5, "lo {lo}");
        assert!((hi - 20.0).abs() < 0.5, "hi {hi}");
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

    #[test]
    fn buckets_are_averaged() {
        let c = chart();
        let bar = c.bar("obj1", "Baseline");
        let idle = bar.buckets.iter().find(|(n, _)| n == "Idle").unwrap().1;
        assert!((idle - Joules(102.8)).abs() < Joules(0.1));
    }
}
