//! The golden harness: the check/record engine round-trips through a
//! scratch directory, and each kind's comparator names what moved. The
//! committed files themselves are checked one kind per test file:
//! `tests/golden_trace.rs` (traces, and the one record-twice
//! determinism test), `tests/energy_regression.rs` (energy tables) and
//! `tests/seed_matrix.rs` (the cross-seed digest matrix).
//!
//! The energy negative control works through a test-only hook
//! (`VideoPlayer::with_decode_inflation`, reachable here via
//! `energymap::table`'s `decode_inflation` parameter and on the CLI via
//! the hidden `--inflate-decode` flag): inflating the fig2 video decode
//! block by +2 % must push `decode_frame`'s exclusive energy — and its
//! ancestors' inclusive energy — outside the 1 % tolerance band.
//!
//! See `tests/golden/README.md` for the regeneration workflow.

use std::fs;
use std::path::{Path, PathBuf};

use experiments::energymap;
use experiments::golden::{self, Kind};
use experiments::tracerec::{self, GOLDEN_SEED, SCENARIOS};

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn energy_golden(scenario: &str) -> String {
    read(&tracerec::golden_dir().join(format!("energymap_{scenario}.txt")))
}

/// The record path: `record` into a scratch directory, `check` against
/// it passes, and one edited line per kind fails naming the file and
/// the line or path that moved. No test writes under `tests/golden/`.
#[test]
fn recorded_goldens_check_clean_and_name_each_edit() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-record-test");
    let _ = fs::remove_dir_all(&dir);
    golden::record(&dir, 2).expect("record into scratch dir");
    if let Err(report) = golden::check(&dir, 1.0, 2) {
        panic!("fresh recording fails its own check:\n{report}");
    }
    let edit = |name: &str, line: usize, f: &dyn Fn(&str) -> String| {
        let path = dir.join(name);
        let text = read(&path);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[line - 1] = f(&lines[line - 1]);
        fs::write(&path, lines.join("\n") + "\n").expect("write edited golden");
    };
    edit("fig13.jsonl", 3, &|_| "{\"edited\":true}".to_string());
    // Double one row's inclusive energy, the last column.
    edit("energymap_goal.txt", 2, &|l| {
        let (head, incl) = l.rsplit_once('\t').expect("tab-separated row");
        let j: f64 = incl.parse().expect("inclusive_energy_j");
        format!("{head}\t{:.6}", 2.0 * j + 1.0)
    });
    edit("seed_matrix.txt", 5, &|l| {
        let (head, _) = l.rsplit_once(' ').expect("space-separated row");
        format!("{head} 0000000000000000")
    });
    let report = golden::check(&dir, 1.0, 2).expect_err("edited goldens passed");
    let row = read(&dir.join("energymap_goal.txt"));
    let mut fields = row.lines().nth(1).expect("first row").split('\t');
    let (process, path) = (fields.next().unwrap(), fields.next().unwrap());
    let energy_row = format!("{process} path {path}: inclusive_energy_j drifted");
    for needle in [
        "golden: trace fig13.jsonl: FAILED",
        "first divergence at line 3",
        "golden: energy energymap_goal.txt: FAILED",
        energy_row.as_str(),
        "golden: seeds seed_matrix.txt: FAILED",
        "first divergence at line 5",
    ] {
        assert!(
            report.contains(needle),
            "report lacks {needle:?}:\n{report}"
        );
    }
    assert_eq!(report.matches("FAILED").count(), 3, "{report}");
    let _ = fs::remove_dir_all(&dir);
}

/// Seeded +2 % decode inflation fails the fig2 energy comparison, and
/// the report names the exact costed block that moved — not just the
/// process.
#[test]
fn seeded_decode_inflation_is_caught_and_named() {
    let fresh = energymap::table("fig2", GOLDEN_SEED, 1.02).unwrap();
    let report = Kind::Energy
        .compare(&energy_golden("fig2"), &fresh)
        .expect("+2 % decode inflation passed the 1 % gate");
    assert!(
        report.contains("xanim path video_playback/frame_pipeline/decode_frame"),
        "report does not name the inflated block:\n{report}"
    );
    // Inclusive accounting propagates the drift to every ancestor frame.
    assert!(
        report.contains("xanim path video_playback: inclusive_energy_j"),
        "report does not roll the drift up to the root frame:\n{report}"
    );
}

/// Sample counts are compared exactly: one extra sample on one row
/// fails even though every energy stays inside the band.
#[test]
fn a_changed_sample_count_is_caught_and_named() {
    let golden = energy_golden("fig2");
    let row = "xanim\tvideo_playback/frame_pipeline/decode_frame\t";
    let bumped = golden.replacen(&format!("{row}2106\t"), &format!("{row}2107\t"), 1);
    assert_ne!(
        bumped, golden,
        "decode_frame row with 2106 samples not found"
    );
    let fresh = energymap::table("fig2", GOLDEN_SEED, 1.0).unwrap();
    let report = Kind::Energy
        .compare(&bumped, &fresh)
        .expect("a changed sample count passed the gate");
    assert_eq!(
        report,
        "xanim path video_playback/frame_pipeline/decode_frame: samples changed 2107 -> 2106\n"
    );
}

/// The inflation hook is scoped to the fig2 video decode block: another
/// scenario's table is byte-untouched by it. (One scenario suffices —
/// only the fig2 builder threads the ratio through at all; this pins
/// that no future change plumbs it into shared code.)
#[test]
fn inflation_hook_does_not_leak_into_other_scenarios() {
    assert_eq!(
        energymap::table("fig13", 7, 1.0).unwrap(),
        energymap::table("fig13", 7, 1.02).unwrap(),
        "fig13: decode inflation leaked outside fig2"
    );
}

/// Golden tables carry unit-suffixed headers and stable path order
/// (BTreeMap iteration: processes alphabetical, paths lexicographic, so
/// parents always precede children).
#[test]
fn golden_tables_have_stable_schema_and_order() {
    for scenario in SCENARIOS {
        let text = energy_golden(scenario);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some(
                "process\tpath\tsamples\tself_time_s\tself_energy_j\t\
                 inclusive_time_s\tinclusive_energy_j"
            ),
            "{scenario}: header drifted"
        );
        let keys: Vec<(String, String)> = lines
            .map(|l| {
                let mut f = l.split('\t');
                (
                    f.next().unwrap_or_default().to_string(),
                    f.next().unwrap_or_default().to_string(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{scenario}: rows not in stable sorted order");
    }
}

/// Different seeds give different behavior: the digest captures the
/// run and the seed is not ignored.
#[test]
fn digests_vary_by_seed() {
    for scenario in SCENARIOS {
        let canonical = golden::digest(scenario, GOLDEN_SEED).unwrap();
        assert!(
            golden::SEEDS
                .iter()
                .filter(|&&s| s != GOLDEN_SEED)
                .any(|&s| golden::digest(scenario, s).unwrap() != canonical),
            "{scenario}: every seed produced the same trace — the seed is ignored"
        );
    }
}
