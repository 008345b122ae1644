//! The golden harness: one builder for the canonical scenarios and one
//! check/record engine over every golden file.
//!
//! The reproduction's behaviour spec is three kinds of golden file under
//! `tests/golden/`, all rendered from the four scenarios in
//! [`SCENARIOS`] at [`GOLDEN_SEED`]:
//!
//! | kind     | files                      | comparison                                    |
//! |----------|----------------------------|-----------------------------------------------|
//! | `trace`  | `<scenario>.jsonl`         | byte-exact, first diverging line              |
//! | `energy` | `energymap_<scenario>.txt` | exact path set and samples, energy in a band  |
//! | `seeds`  | `seed_matrix.txt`          | byte-exact, first diverging line              |
//!
//! [`check`] renders every file fresh and compares it with the copy in a
//! golden directory, saving each failing file's fresh copy under
//! `target/golden/<kind>/`; [`render`] and [`Rendered::diff`] do the
//! same for one file. [`record`] rewrites the directory. The
//! `golden --check` and `golden --rec` CLI verbs wrap these.

use std::fs;
use std::path::{Path, PathBuf};

use machine::{FaultConfig, Machine};
use odyssey::{GoalConfig, Hardening, PriorityTable};
use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::WebFidelity;
use powerscope::{CollectedRun, PowerScope};
use simcore::{SimDuration, SimRng, SimTime, SnapshotHasher, TraceHandle};

use crate::tracerec::{self, GOLDEN_SEED, SCENARIOS};
use crate::{energymap, fig13, fig2, goalrig, supervise};

/// Goal-scenario scale: a hardened controller holding a 240 s goal on a
/// 3 kJ battery (the checkpoint-resume rig's scale, minutes not hours).
const GOAL_ENERGY_J: f64 = 3000.0;

/// Goal-scenario duration, seconds.
const GOAL_SECS: u64 = 240;

/// Seeds the cross-seed matrix spans: tiny, small, canonical, and one
/// above 2^40 to catch truncation. The golden traces pin behaviour at
/// the canonical seed only; the matrix catches a wall-clock read or an
/// iteration-order bug that perturbs the other seeds.
pub const SEEDS: [u64; 4] = [1, 7, 42, (1 << 40) + 9];

/// How a built scenario runs to its end.
enum End {
    /// Until every process exits.
    Exit,
    /// Under a goal controller, which stops the run at the goal.
    Goal(GoalConfig, PriorityTable, SimTime),
    /// Until a fixed horizon.
    Until(SimTime),
}

/// One canonical scenario, built at a seed and not yet run.
pub(crate) struct Scenario {
    machine: Machine,
    /// The profiling session the builder attached itself (fig2 only).
    scope: Option<PowerScope>,
    end: End,
    seed: u64,
}

/// Builds canonical scenario `name` at `seed`. `decode_inflation` scales
/// the fig2 video decode block, the energy gate's negative-control hook;
/// every other caller passes 1.0.
pub(crate) fn build(name: &str, seed: u64, decode_inflation: f64) -> Result<Scenario, String> {
    let (machine, scope, end) = match name {
        // The Figure 2 profiling run: 30 s of full-fidelity video.
        "fig2" => {
            let (scope, m) = fig2::build_with(seed, decode_inflation);
            (m, Some(scope), End::Exit)
        }
        "fig13" => {
            // One canonical condition — JPEG-50, hardware power
            // management on, the figure's 5 s think time — browsing all
            // four images as one page sequence.
            let mut rng = SimRng::new(seed).fork("fig13/trace");
            let m = fig13::build(
                WEB_IMAGES.to_vec(),
                WebFidelity::Jpeg50,
                true,
                5.0,
                &mut rng,
            );
            (m, None, End::Exit)
        }
        "goal" => {
            let mut rng = SimRng::new(seed).fork("goal/trace");
            let cfg = GoalConfig::paper(GOAL_ENERGY_J, SimDuration::from_secs(GOAL_SECS))
                .with_hardening(Hardening::standard());
            let rig = goalrig::build_composite_goal(&cfg, false, FaultConfig::clean(), &mut rng);
            (
                rig.machine,
                None,
                End::Goal(cfg, rig.priorities, rig.horizon),
            )
        }
        "supervise" => {
            // The supervised k=2 cell: video hangs at 200 s, map lies.
            let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
            let rig = supervise::build_one(2, true, &mut rng);
            (rig.machine, None, End::Until(rig.horizon))
        }
        other => {
            return Err(format!(
                "unknown golden scenario: {other} (have {SCENARIOS:?})"
            ))
        }
    };
    Ok(Scenario {
        machine,
        scope,
        end,
        seed,
    })
}

impl Scenario {
    /// Runs the scenario with `trace` attached.
    pub(crate) fn trace(mut self, trace: TraceHandle) {
        self.machine.set_trace(trace);
        self.finish();
    }

    /// Runs the scenario under a PowerScope session that resolves
    /// workload call paths, and returns the collected samples.
    pub(crate) fn profile(mut self) -> CollectedRun {
        let scope = self.scope.take().unwrap_or_else(|| {
            let (mut scope, observer) = PowerScope::new(self.seed);
            scope.set_resolver(odyssey_apps::call_path);
            self.machine.add_observer(observer);
            scope
        });
        self.finish();
        scope.into_run()
    }

    /// Runs to the end and drops the machine, releasing its observers.
    fn finish(self) {
        let mut m = self.machine;
        match self.end {
            End::Exit => {
                let _ = m.run();
            }
            End::Goal(cfg, priorities, horizon) => {
                let _ = goalrig::finish(m, cfg, priorities, horizon);
            }
            End::Until(horizon) => {
                let _ = m.run_until(horizon);
            }
        }
    }
}

/// The kinds of golden file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Each scenario's JSONL control-plane trace.
    Trace,
    /// Each scenario's per-call-path energy table.
    Energy,
    /// The cross-seed trace-digest matrix.
    Seeds,
}

impl Kind {
    /// The kind's name in reports and under `target/golden/`.
    fn name(self) -> &'static str {
        match self {
            Kind::Trace => "trace",
            Kind::Energy => "energy",
            Kind::Seeds => "seeds",
        }
    }

    /// Compares a fresh copy with the golden one: `None` when it passes,
    /// otherwise report lines naming each diverging line or path.
    pub fn compare(self, golden: &str, fresh: &str) -> Option<String> {
        match self {
            Kind::Trace | Kind::Seeds => first_divergence(golden, fresh),
            Kind::Energy => energymap::compare(golden, fresh),
        }
    }
}

/// One golden file rendered fresh.
#[derive(Debug)]
pub struct Rendered {
    /// The file's kind.
    pub kind: Kind,
    /// File name under the golden directory.
    pub name: String,
    /// The fresh contents.
    pub text: String,
}

/// Renders one golden file fresh at [`GOLDEN_SEED`]: the `kind` file of
/// `scenario` (the seed matrix, which covers every scenario, ignores it).
pub fn render(kind: Kind, scenario: &str, decode_inflation: f64) -> Result<Rendered, String> {
    let (name, text) = match kind {
        Kind::Trace => (
            format!("{scenario}.jsonl"),
            tracerec::record(scenario, GOLDEN_SEED)?.join("\n") + "\n",
        ),
        Kind::Energy => (
            format!("energymap_{scenario}.txt"),
            energymap::table(scenario, GOLDEN_SEED, decode_inflation)?,
        ),
        Kind::Seeds => ("seed_matrix.txt".to_string(), seed_matrix()?),
    };
    Ok(Rendered { kind, name, text })
}

/// Renders every golden file, in check order, fanned out over `threads`
/// workers. Output is byte-identical at any thread count. The files are
/// a handful of whole-scenario runs with very different costs: grain 1,
/// one chunk each.
pub fn render_all(threads: usize, decode_inflation: f64) -> Result<Vec<Rendered>, String> {
    let mut files = SCENARIOS.map(|s| (Kind::Trace, s)).to_vec();
    files.extend(SCENARIOS.map(|s| (Kind::Energy, s)));
    files.push((Kind::Seeds, ""));
    let cfg = simcore::par::PoolConfig::new(threads).grain(1);
    let (rendered, _) = simcore::par::map_stats(&cfg, &files, |_, &(kind, scenario)| {
        render(kind, scenario, decode_inflation)
    });
    rendered.into_iter().collect()
}

impl Rendered {
    /// Compares this fresh copy with its golden copy in `dir`: `None`
    /// when it passes, otherwise the kind's report (or why the golden
    /// copy could not be read).
    pub fn diff(&self, dir: &Path) -> Option<String> {
        let path = dir.join(&self.name);
        match fs::read_to_string(&path) {
            Ok(golden) => self.kind.compare(&golden, &self.text),
            Err(e) => Some(format!(
                "cannot read {}: {e}\n\
                 regenerate with: cargo run --release -p experiments -- golden --rec\n",
                path.display()
            )),
        }
    }
}

/// Renders every golden file and compares it with its copy in `dir`.
/// `Ok` carries one OK line per file; `Err` carries those lines plus a
/// report for each failing file, whose fresh copy is saved under
/// `target/golden/<kind>/` for CI artifact upload. `decode_inflation`
/// is the energy gate's negative-control hook; 1.0 checks the real
/// behaviour.
pub fn check(dir: &Path, decode_inflation: f64, threads: usize) -> Result<String, String> {
    let mut summary = String::new();
    let mut failures = String::new();
    for file in render_all(threads, decode_inflation)? {
        let kind = file.kind.name();
        let Some(report) = file.diff(dir) else {
            let lines = file.text.lines().count();
            summary.push_str(&format!(
                "golden: {kind} {}: OK ({lines} lines)\n",
                file.name
            ));
            continue;
        };
        failures.push_str(&format!("golden: {kind} {}: FAILED\n", file.name));
        for line in report.lines() {
            failures.push_str(&format!("  {line}\n"));
        }
        let fresh_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/golden")
            .join(kind);
        let fresh_path = fresh_dir.join(&file.name);
        if fs::create_dir_all(&fresh_dir).is_ok() && fs::write(&fresh_path, &file.text).is_ok() {
            failures.push_str(&format!("  fresh copy saved to {}\n", fresh_path.display()));
        }
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(format!("{summary}{failures}"))
    }
}

/// Renders every golden file into `dir` with no inflation. Returns one
/// line per file written.
pub fn record(dir: &Path, threads: usize) -> Result<String, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut summary = String::new();
    for file in render_all(threads, 1.0)? {
        let path = dir.join(&file.name);
        fs::write(&path, &file.text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        summary.push_str(&format!(
            "golden: wrote {} ({} lines)\n",
            path.display(),
            file.text.lines().count()
        ));
    }
    Ok(summary)
}

/// Digest of one scenario's recorded trace at one seed.
pub fn digest(scenario: &str, seed: u64) -> Result<u64, String> {
    let mut h = SnapshotHasher::new();
    for line in tracerec::record(scenario, seed)? {
        h.write_bytes(line.as_bytes());
    }
    Ok(h.finish())
}

/// The cross-seed matrix: every scenario's trace digest at every seed
/// in [`SEEDS`].
fn seed_matrix() -> Result<String, String> {
    let mut out = String::from(
        "# Cross-seed determinism matrix: scenario seed trace-digest.\n\
         # Regenerate after an intentional behavior change with\n\
         # `cargo run --release -p experiments -- golden --rec`.\n",
    );
    for scenario in SCENARIOS {
        for seed in SEEDS {
            out.push_str(&format!(
                "{scenario} {seed} {:016x}\n",
                digest(scenario, seed)?
            ));
        }
    }
    Ok(out)
}

/// Byte-exact comparison: `None` on a match, otherwise the first line
/// where `fresh` departs from `golden`, with up to three preceding
/// common lines for context.
fn first_divergence(golden: &str, fresh: &str) -> Option<String> {
    if golden == fresh {
        return None;
    }
    let golden: Vec<&str> = golden.lines().collect();
    let fresh: Vec<&str> = fresh.lines().collect();
    let at = (0..golden.len().min(fresh.len()))
        .find(|&i| golden[i] != fresh[i])
        .unwrap_or(golden.len().min(fresh.len()));
    let mut out = format!(
        "first divergence at line {} ({} golden / {} fresh lines)\n",
        at + 1,
        golden.len(),
        fresh.len()
    );
    for line in &golden[at.saturating_sub(3)..at] {
        out.push_str(&format!("    {line}\n"));
    }
    let end = "<end of file>";
    out.push_str(&format!("- golden: {}\n", golden.get(at).unwrap_or(&end)));
    out.push_str(&format!("+ fresh:  {}\n", fresh.get(at).unwrap_or(&end)));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(build("fig99", 1, 1.0).is_err());
    }

    #[test]
    fn divergence_report_points_at_first_differing_line() {
        let report = first_divergence("a\nb\nc\nd\n", "a\nb\nX\nd\n").unwrap();
        assert!(report.contains("first divergence at line 3"), "{report}");
        assert!(report.contains("- golden: c"), "{report}");
        assert!(report.contains("+ fresh:  X"), "{report}");
        // Context: the common prefix lines appear.
        assert!(report.contains("    a\n"), "{report}");
    }

    #[test]
    fn divergence_report_handles_truncated_fresh_copy() {
        let report = first_divergence("a\nb\n", "a\n").unwrap();
        assert!(report.contains("+ fresh:  <end of file>"), "{report}");
    }

    #[test]
    fn divergence_report_catches_a_lost_final_newline() {
        let report = first_divergence("a\nb\n", "a\nb").unwrap();
        assert!(report.contains("first divergence at line 3"), "{report}");
    }

    #[test]
    fn identical_copies_produce_no_report() {
        assert!(first_divergence("a\nb\n", "a\nb\n").is_none());
    }
}
