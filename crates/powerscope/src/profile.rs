//! Energy profiles — the output of PowerScope's offline stage.
//!
//! A profile is two tables, as in the paper's Figure 2: a summary with one
//! row per process (CPU time, total energy, average power), and a detail
//! table per process with one row per procedure. [`EnergyProfile::format`]
//! renders them in the figure's layout.

use std::fmt::Write as _;

use simcore::{Joules, Watts};

/// One procedure's row in the detail table.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcedureRow {
    /// Procedure name.
    pub procedure: String,
    /// Attributed CPU time, seconds.
    pub cpu_secs: f64,
    /// Attributed energy.
    pub energy_j: Joules,
}

impl ProcedureRow {
    /// Average power while this procedure was running.
    pub fn avg_power_w(&self) -> Watts {
        if self.cpu_secs > 0.0 {
            Watts(self.energy_j.0 / self.cpu_secs)
        } else {
            Watts::ZERO
        }
    }
}

/// One process's row in the summary table.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessRow {
    /// Process name.
    pub process: String,
    /// Attributed CPU time, seconds.
    pub cpu_secs: f64,
    /// Attributed energy.
    pub energy_j: Joules,
    /// Per-procedure detail, sorted by descending energy.
    pub procedures: Vec<ProcedureRow>,
}

impl ProcessRow {
    /// Average power while this process was running.
    pub fn avg_power_w(&self) -> Watts {
        if self.cpu_secs > 0.0 {
            Watts(self.energy_j.0 / self.cpu_secs)
        } else {
            Watts::ZERO
        }
    }
}

/// A complete energy profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyProfile {
    /// Per-process rows, sorted by descending energy.
    pub processes: Vec<ProcessRow>,
    /// Total profiled duration, seconds.
    pub duration_s: f64,
}

impl EnergyProfile {
    /// Total energy across all processes.
    pub fn total_energy_j(&self) -> Joules {
        self.processes.iter().map(|p| p.energy_j).sum()
    }

    /// Total attributed CPU time, seconds.
    pub fn total_cpu_secs(&self) -> f64 {
        self.processes.iter().map(|p| p.cpu_secs).sum()
    }

    /// Energy attributed to `process` (0 when absent).
    pub fn process_energy_j(&self, process: &str) -> Joules {
        self.processes
            .iter()
            .find(|p| p.process == process)
            .map(|p| p.energy_j)
            .unwrap_or(Joules::ZERO)
    }

    /// Renders the summary table and the detail table of the top process,
    /// in the layout of the paper's Figure 2.
    pub fn format(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>10}",
            "Process", "CPU(s)", "Energy(J)", "Power(W)"
        );
        let _ = writeln!(out, "{}", "-".repeat(64));
        for p in &self.processes {
            let _ = writeln!(
                out,
                "{:<28} {:>10.2} {:>12.2} {:>10.2}",
                p.process,
                p.cpu_secs,
                p.energy_j,
                p.avg_power_w()
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(64));
        let _ = writeln!(
            out,
            "{:<28} {:>10.2} {:>12.2}",
            "Total",
            self.total_cpu_secs(),
            self.total_energy_j()
        );
        if let Some(top) = self.processes.first() {
            let _ = writeln!(out);
            let _ = writeln!(out, "Energy Usage Detail for process {}", top.process);
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>10}",
                "Procedure", "CPU(s)", "Energy(J)", "Power(W)"
            );
            let _ = writeln!(out, "{}", "-".repeat(64));
            for f in &top.procedures {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10.2} {:>12.2} {:>10.2}",
                    f.procedure,
                    f.cpu_secs,
                    f.energy_j,
                    f.avg_power_w()
                );
            }
        }
        out
    }
}

/// One call-path row of a path profile: a node of one process's
/// call-tree with inclusive (node plus descendants) and exclusive
/// (samples landing exactly here) accounting. Field names follow the D4
/// unit-suffix discipline so the rendered tables carry their dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct PathRow {
    /// Slash-joined call path from the process root, e.g.
    /// `video_playback/frame_pipeline/decode_frame`.
    pub path: String,
    /// Samples whose leaf landed exactly on this node (0 for a pure
    /// interior node).
    pub samples: u64,
    /// Exclusive attributed time, s: quanta of samples landing here.
    pub self_time_s: f64,
    /// Exclusive attributed energy.
    pub self_energy_j: Joules,
    /// Inclusive attributed time, s: this node plus all descendants.
    pub inclusive_time_s: f64,
    /// Inclusive attributed energy.
    pub inclusive_energy_j: Joules,
}

/// One process's call-path table, rows in lexicographic path order
/// (every parent sorts immediately before its subtree).
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessPaths {
    /// Process name.
    pub process: String,
    /// Path rows, sorted by path.
    pub rows: Vec<PathRow>,
    /// Total attributed energy (the sum of root rows' inclusive energy,
    /// equal to the sum of leaf rows' exclusive energy).
    pub energy_j: Joules,
}

/// A per-path energy profile — the procedure-level rollup of one
/// collected run, with parent/child inclusive–exclusive accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathProfile {
    /// Per-process tables, sorted by process name (stable independent
    /// of energy ties, unlike the flat profile's energy ordering).
    pub processes: Vec<ProcessPaths>,
    /// Total profiled duration, seconds.
    pub duration_s: f64,
}

impl PathProfile {
    /// Total energy across all processes.
    pub fn total_energy_j(&self) -> Joules {
        self.processes.iter().map(|p| p.energy_j).sum()
    }

    /// One process's table (`None` when absent).
    pub fn process(&self, name: &str) -> Option<&ProcessPaths> {
        self.processes.iter().find(|p| p.process == name)
    }

    /// Renders the profile as a tab-separated table with a D4
    /// unit-suffixed header — the `energymap` artifact format. Row order
    /// is (process, path), both lexicographic, so the bytes are stable
    /// across runs and thread counts.
    pub fn format_table(&self) -> String {
        let mut out = String::from(
            "process\tpath\tsamples\tself_time_s\tself_energy_j\t\
             inclusive_time_s\tinclusive_energy_j\n",
        );
        for p in &self.processes {
            for r in &p.rows {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
                    p.process,
                    r.path,
                    r.samples,
                    r.self_time_s,
                    r.self_energy_j,
                    r.inclusive_time_s,
                    r.inclusive_energy_j
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> EnergyProfile {
        EnergyProfile {
            processes: vec![
                ProcessRow {
                    process: "/usr/odyssey/bin/xanim".into(),
                    cpu_secs: 66.57,
                    energy_j: Joules(643.17),
                    procedures: vec![
                        ProcedureRow {
                            procedure: "_Dispatcher".into(),
                            cpu_secs: 1.2,
                            energy_j: Joules(12.6),
                        },
                        ProcedureRow {
                            procedure: "_rpc2_RecvPacket".into(),
                            cpu_secs: 0.7,
                            energy_j: Joules(7.4),
                        },
                    ],
                },
                ProcessRow {
                    process: "Kernel".into(),
                    cpu_secs: 35.28,
                    energy_j: Joules(331.91),
                    procedures: vec![],
                },
            ],
            duration_s: 120.0,
        }
    }

    #[test]
    fn totals() {
        let p = sample_profile();
        assert!((p.total_energy_j() - Joules(975.08)).abs() < Joules(1e-9));
        assert!((p.total_cpu_secs() - 101.85).abs() < 1e-9);
        assert!((p.process_energy_j("Kernel") - Joules(331.91)).abs() < Joules(1e-9));
        assert_eq!(p.process_energy_j("missing"), Joules(0.0));
    }

    #[test]
    fn avg_power() {
        let p = sample_profile();
        let row = &p.processes[0];
        assert!((row.avg_power_w() - Watts(643.17 / 66.57)).abs() < Watts(1e-9));
        let empty = ProcessRow {
            process: "zero".into(),
            cpu_secs: 0.0,
            energy_j: Joules(0.0),
            procedures: vec![],
        };
        assert_eq!(empty.avg_power_w(), Watts(0.0));
    }

    #[test]
    fn format_contains_figure2_elements() {
        let text = sample_profile().format();
        assert!(text.contains("Process"));
        assert!(text.contains("Energy(J)"));
        assert!(text.contains("xanim"));
        assert!(text.contains("Total"));
        assert!(text.contains("Energy Usage Detail for process"));
        assert!(text.contains("_Dispatcher"));
    }

    #[test]
    fn empty_profile_formats() {
        let p = EnergyProfile::default();
        let text = p.format();
        assert!(text.contains("Total"));
        assert!(!text.contains("Detail"));
    }
}
