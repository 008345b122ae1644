//! Per-path energy tables and the energy-regression gate.
//!
//! The golden traces (PR 4's `tracerec`/`tracediff`) pin each canonical
//! scenario's *event stream*; this module pins its *energy shape*. Every
//! scenario is replayed with a PowerScope session and the workload
//! call-tree resolver attached, and the correlated per-call-path table
//! ([`powerscope::correlate_paths`]) is compared row-by-row against the
//! golden copy under `tests/golden/`. The gate fails — naming the exact
//! diverging path — when any path's exclusive or inclusive energy drifts
//! beyond [`TOLERANCE_REL`] (with an absolute floor for near-zero rows),
//! or when a path appears or disappears.
//!
//! Tolerance rationale (DESIGN.md §17): the simulation is bit-exact at a
//! fixed seed, so the band does not absorb run-to-run noise — it gives
//! intentional refactors room for float reassociation (≪0.1%) while a
//! real energy change to any block (the seeded +2% decode inflation the
//! negative test injects) lands well outside it.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use machine::FaultConfig;
use odyssey::{GoalConfig, Hardening};
use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::WebFidelity;
use powerscope::{correlate_paths, PathProfile, PowerScope};
use simcore::{SimDuration, SimRng};

use crate::tracerec::{GOLDEN_SEED, SCENARIOS};
use crate::{fig13, fig2, goalrig, supervise};

/// Relative per-path energy drift the gate tolerates.
pub const TOLERANCE_REL: f64 = 0.01;

/// Absolute drift floor, J, so sub-joule rows don't flap on float
/// reassociation while still catching any real change.
pub const TOLERANCE_ABS_J: f64 = 0.05;

/// Goal-scenario scale, matching the trace recorder's goal golden.
const GOAL_ENERGY_J: f64 = 3000.0;

/// Goal-scenario duration, seconds.
const GOAL_SECS: u64 = 240;

/// Replays one scenario with a profiling session attached and returns
/// the raw collected run (samples + symbol tables), so callers can
/// correlate it flat, by path, or both (the reconciliation property
/// test needs both from the *same* run). `decode_inflation` scales the
/// video decode block (fig2 only) — the negative-control hook;
/// production callers pass 1.0.
pub fn collect(
    scenario: &str,
    seed: u64,
    decode_inflation: f64,
) -> Result<powerscope::CollectedRun, String> {
    let run = match scenario {
        "fig2" => {
            let (scope, mut m) = fig2::build_with(seed, decode_inflation);
            let _ = m.run();
            drop(m);
            scope.into_run()
        }
        "fig13" => {
            let mut rng = SimRng::new(seed).fork("fig13/trace");
            let mut m = fig13::build(
                WEB_IMAGES.to_vec(),
                WebFidelity::Jpeg50,
                true,
                5.0,
                &mut rng,
            );
            let (mut scope, observer) = PowerScope::new(seed);
            scope.set_resolver(odyssey_apps::call_path);
            m.add_observer(observer);
            let _ = m.run();
            drop(m);
            scope.into_run()
        }
        "goal" => {
            let mut rng = SimRng::new(seed).fork("goal/trace");
            let cfg = GoalConfig::paper(GOAL_ENERGY_J, SimDuration::from_secs(GOAL_SECS))
                .with_hardening(Hardening::standard());
            let rig = goalrig::build_composite_goal(&cfg, false, FaultConfig::clean(), &mut rng);
            let mut m = rig.machine;
            let (mut scope, observer) = PowerScope::new(seed);
            scope.set_resolver(odyssey_apps::call_path);
            m.add_observer(observer);
            let _ = goalrig::finish(m, cfg, rig.priorities, rig.horizon);
            scope.into_run()
        }
        "supervise" => {
            let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
            let mut rig = supervise::build_one(2, true, &mut rng);
            let (mut scope, observer) = PowerScope::new(seed);
            scope.set_resolver(odyssey_apps::call_path);
            rig.machine.add_observer(observer);
            let _ = rig.machine.run_until(rig.horizon);
            drop(rig);
            scope.into_run()
        }
        other => {
            return Err(format!(
                "unknown energymap scenario: {other} (have {SCENARIOS:?})"
            ))
        }
    };
    Ok(run)
}

/// One scenario's per-call-path profile.
pub fn profile(scenario: &str, seed: u64, decode_inflation: f64) -> Result<PathProfile, String> {
    collect(scenario, seed, decode_inflation).map(|run| correlate_paths(&run))
}

/// One scenario's rendered energy-by-path table.
pub fn table(scenario: &str, seed: u64, decode_inflation: f64) -> Result<String, String> {
    profile(scenario, seed, decode_inflation).map(|p| p.format_table())
}

/// Renders every scenario's table at [`GOLDEN_SEED`], fanned out over
/// `threads` workers. Output is byte-identical at any thread count (the
/// parallel-identity test pins this). A handful of whole-scenario
/// profiles with very different runtimes: grain 1, one chunk each.
pub fn render_all(threads: usize) -> Result<Vec<(&'static str, String)>, String> {
    let cfg = simcore::par::PoolConfig::new(threads).grain(1);
    let (outputs, _) = simcore::par::map_stats(&cfg, &SCENARIOS, |_, scenario| {
        table(scenario, GOLDEN_SEED, 1.0)
    });
    SCENARIOS
        .iter()
        .zip(outputs)
        .map(|(s, t)| t.map(|t| (*s, t)))
        .collect()
}

/// Path of the checked-in golden table for a scenario.
pub fn golden_path(scenario: &str) -> PathBuf {
    crate::tracerec::golden_dir().join(format!("energymap_{scenario}.txt"))
}

/// One parsed table row's comparable quantities.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RowEnergy {
    samples: u64,
    self_energy_j: f64,
    inclusive_energy_j: f64,
}

/// Parses a rendered table into `(process, path) -> energies`.
fn parse_table(text: &str) -> Result<BTreeMap<(String, String), RowEnergy>, String> {
    let mut rows = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            if !line.starts_with("process\t") {
                return Err(format!("bad energymap table header: {line:?}"));
            }
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [process, path, samples, _self_s, self_j, _incl_s, incl_j] = fields.as_slice() else {
            return Err(format!("bad energymap row at line {}: {line:?}", i + 1));
        };
        let parse = |v: &str, what: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|e| format!("bad {what} at line {}: {e}", i + 1))
        };
        let row = RowEnergy {
            samples: samples
                .parse::<u64>()
                .map_err(|e| format!("bad sample count at line {}: {e}", i + 1))?,
            self_energy_j: parse(self_j, "self_energy_j")?,
            inclusive_energy_j: parse(incl_j, "inclusive_energy_j")?,
        };
        if rows
            .insert((process.to_string(), path.to_string()), row)
            .is_some()
        {
            return Err(format!("duplicate row at line {}: {line:?}", i + 1));
        }
    }
    Ok(rows)
}

/// True when `fresh` drifted from `golden` beyond the gate's band.
fn drifted(golden_j: f64, fresh_j: f64) -> bool {
    (fresh_j - golden_j).abs() > TOLERANCE_ABS_J.max(TOLERANCE_REL * golden_j.abs())
}

/// Replays `scenario` at [`GOLDEN_SEED`] and compares its table against
/// the checked-in golden. `Ok` carries the number of matching rows;
/// `Err` carries a report naming every diverging path plus the fresh
/// table (for CI artifact upload).
pub fn check(scenario: &str, decode_inflation: f64) -> Result<usize, (String, String)> {
    let fresh_text =
        table(scenario, GOLDEN_SEED, decode_inflation).map_err(|e| (e, String::new()))?;
    let path = golden_path(scenario);
    let golden_text = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return Err((
                format!(
                    "energymap: {scenario}: cannot read golden table {}: {e}\n\
                     regenerate with: cargo run --release -p experiments -- energymaprec",
                    path.display()
                ),
                fresh_text,
            ))
        }
    };
    let golden = parse_table(&golden_text).map_err(|e| (e, fresh_text.clone()))?;
    let fresh = parse_table(&fresh_text).map_err(|e| (e, fresh_text.clone()))?;
    let mut report = String::new();
    for ((process, path), g) in &golden {
        match fresh.get(&(process.clone(), path.clone())) {
            None => {
                report.push_str(&format!(
                    "energymap: {scenario}: {process} path {path}: missing from fresh table\n"
                ));
            }
            Some(f) => {
                for (field, gj, fj) in [
                    ("self_energy_j", g.self_energy_j, f.self_energy_j),
                    (
                        "inclusive_energy_j",
                        g.inclusive_energy_j,
                        f.inclusive_energy_j,
                    ),
                ] {
                    if drifted(gj, fj) {
                        report.push_str(&format!(
                            "energymap: {scenario}: {process} path {path}: {field} drifted \
                             {gj:.6} -> {fj:.6} J ({:+.2}%, tolerance {:.0}%)\n",
                            if gj.abs() > 0.0 {
                                (fj - gj) / gj * 100.0
                            } else {
                                f64::INFINITY
                            },
                            TOLERANCE_REL * 100.0
                        ));
                    }
                }
            }
        }
    }
    for (process, path) in fresh.keys() {
        if !golden.contains_key(&(process.clone(), path.clone())) {
            report.push_str(&format!(
                "energymap: {scenario}: {process} path {path}: new path absent from golden\n"
            ));
        }
    }
    if report.is_empty() {
        Ok(golden.len())
    } else {
        Err((report, fresh_text))
    }
}

/// Checks every scenario, writing diverging fresh tables to
/// `target/energymap/` for CI artifact upload. `Err` carries the
/// concatenated divergence reports.
pub fn check_all(decode_inflation: f64) -> Result<String, String> {
    let mut summary = String::new();
    let mut failures = String::new();
    for scenario in SCENARIOS {
        match check(scenario, decode_inflation) {
            Ok(n) => summary.push_str(&format!("energymap: {scenario}: OK ({n} paths)\n")),
            Err((report, fresh)) => {
                failures.push_str(&report);
                if !fresh.is_empty() {
                    let dir =
                        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/energymap");
                    if fs::create_dir_all(&dir).is_ok() {
                        let path = dir.join(format!("{scenario}.fresh.txt"));
                        if fs::write(&path, &fresh).is_ok() {
                            failures
                                .push_str(&format!("  fresh table saved to {}\n", path.display()));
                        }
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(format!("{summary}{failures}"))
    }
}

/// Rewrites every golden table at [`GOLDEN_SEED`]. Returns a summary.
pub fn regenerate() -> Result<String, String> {
    let dir = crate::tracerec::golden_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut summary = String::new();
    for scenario in SCENARIOS {
        let text = table(scenario, GOLDEN_SEED, 1.0)?;
        let path = golden_path(scenario);
        fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        summary.push_str(&format!(
            "energymaprec: wrote {} ({} rows)\n",
            path.display(),
            text.lines().count().saturating_sub(1)
        ));
    }
    Ok(summary)
}

/// The plain `energymap` verb: renders every scenario's table, writes
/// each to `DIR/energymap_<scenario>.txt`, and returns the concatenated
/// text for printing.
pub fn write_results(dir: &Path, threads: usize) -> Result<String, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = String::new();
    for (scenario, text) in render_all(threads)? {
        let path = dir.join(format!("energymap_{scenario}.txt"));
        fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.push_str(&format!("== energymap: {scenario} ==\n{text}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Joules;

    #[test]
    fn fig2_profile_has_nested_video_paths() {
        let p = profile("fig2", 7, 1.0).unwrap();
        let xanim = p.process("xanim").expect("xanim present");
        let paths: Vec<&str> = xanim.rows.iter().map(|r| r.path.as_str()).collect();
        assert!(
            paths.contains(&"video_playback/frame_pipeline/decode_frame"),
            "{paths:?}"
        );
        // The interior pipeline node carries its children's energy.
        let pipeline = xanim
            .rows
            .iter()
            .find(|r| r.path == "video_playback/frame_pipeline")
            .expect("pipeline row");
        assert!(pipeline.inclusive_energy_j > Joules(0.0));
        assert_eq!(pipeline.samples, 0, "interior node sampled as a leaf");
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(profile("fig99", 1, 1.0).is_err());
        assert!(table("fig99", 1, 1.0).is_err());
    }

    #[test]
    fn tables_are_deterministic() {
        let a = table("fig2", 7, 1.0).unwrap();
        let b = table("fig2", 7, 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drift_band_has_absolute_floor_and_relative_slope() {
        assert!(!drifted(0.0, TOLERANCE_ABS_J * 0.9));
        assert!(drifted(0.0, TOLERANCE_ABS_J * 1.1));
        assert!(!drifted(100.0, 100.9));
        assert!(drifted(100.0, 101.1));
    }

    #[test]
    fn parse_round_trips_a_rendered_table() {
        let text = table("fig2", 7, 1.0).unwrap();
        let rows = parse_table(&text).unwrap();
        assert!(!rows.is_empty());
        let total: f64 = rows.values().map(|r| r.self_energy_j).sum();
        assert!(total > 0.0);
        assert!(rows
            .keys()
            .any(|(p, path)| p == "xanim" && path.ends_with("decode_frame")));
    }

    #[test]
    fn parse_rejects_malformed_tables() {
        assert!(parse_table("nonsense\n").is_err());
        let bad_row = "process\tpath\tsamples\tself_time_s\tself_energy_j\t\
                       inclusive_time_s\tinclusive_energy_j\np\ta\tnot_a_number\t0\t0\t0\t0\n";
        assert!(parse_table(bad_row).is_err());
    }
}
