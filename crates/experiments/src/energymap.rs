//! Per-path energy tables: the energy kind of the golden harness.
//!
//! The golden traces pin each canonical scenario's *event stream*; this
//! module pins its *energy shape*. Every scenario is replayed with a
//! PowerScope session and the workload call-tree resolver attached, and
//! the correlated per-call-path table ([`powerscope::correlate_paths`])
//! is compared row by row against `tests/golden/energymap_<scenario>.txt`.
//! A row fails — naming the exact diverging path — when its sample count
//! changes, when its exclusive or inclusive energy drifts beyond
//! [`TOLERANCE_REL`] (with an absolute floor for near-zero rows), or
//! when a path appears or disappears.
//!
//! Tolerance rationale (DESIGN.md §17): the simulation is bit-exact at a
//! fixed seed, so the band does not absorb run-to-run noise — it gives
//! intentional refactors room for float reassociation (≪0.1%) while a
//! real energy change to any block (the seeded +2% decode inflation the
//! negative test injects) lands well outside it. Sample counts get no
//! band: a sample that moves between paths also moves a byte-exact
//! trace.

use std::collections::BTreeMap;

use powerscope::{correlate_paths, PathProfile};

use crate::golden;

/// Relative per-path energy drift the gate tolerates.
pub const TOLERANCE_REL: f64 = 0.01;

/// Absolute drift floor, J, so sub-joule rows don't flap on float
/// reassociation while still catching any real change.
pub const TOLERANCE_ABS_J: f64 = 0.05;

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
    golden::build(scenario, seed, decode_inflation).map(golden::Scenario::profile)
}

/// One scenario's per-call-path profile.
pub fn profile(scenario: &str, seed: u64, decode_inflation: f64) -> Result<PathProfile, String> {
    collect(scenario, seed, decode_inflation).map(|run| correlate_paths(&run))
}

/// One scenario's rendered energy-by-path table.
pub fn table(scenario: &str, seed: u64, decode_inflation: f64) -> Result<String, String> {
    profile(scenario, seed, decode_inflation).map(|p| p.format_table())
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

/// Compares a fresh table with the golden one: `None` when they agree,
/// otherwise one line per diverging `(process, path)` row.
pub(crate) fn compare(golden: &str, fresh: &str) -> Option<String> {
    let (golden, fresh) = match (parse_table(golden), parse_table(fresh)) {
        (Ok(g), Ok(f)) => (g, f),
        (Err(e), _) => return Some(format!("golden table: {e}\n")),
        (_, Err(e)) => return Some(format!("fresh table: {e}\n")),
    };
    let mut report = String::new();
    for ((process, path), g) in &golden {
        let Some(f) = fresh.get(&(process.clone(), path.clone())) else {
            report.push_str(&format!(
                "{process} path {path}: missing from fresh table\n"
            ));
            continue;
        };
        if g.samples != f.samples {
            report.push_str(&format!(
                "{process} path {path}: samples changed {} -> {}\n",
                g.samples, f.samples
            ));
        }
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
                    "{process} path {path}: {field} drifted \
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
    for (process, path) in fresh.keys() {
        if !golden.contains_key(&(process.clone(), path.clone())) {
            report.push_str(&format!(
                "{process} path {path}: new path absent from golden\n"
            ));
        }
    }
    (!report.is_empty()).then_some(report)
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
